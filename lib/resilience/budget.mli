(** Solver budgets: a wall-clock deadline plus per-resource work limits.

    A {!t} is threaded (as an optional argument, defaulting to
    {!unlimited}) through every potentially-unbounded solver in the
    system — simplex pivots, branch-and-bound nodes, FDS frame passes,
    Hungarian/Kuhn augmentations, connection-search nodes.  Solvers call
    the [spend_*] functions on their unit of work; when a limit (or the
    deadline) is hit the functions raise {!Out_of_budget}, which every
    budgeted solver catches at its own boundary and converts into a typed
    [Exhausted] outcome — the exception never escapes a solver's public
    API unless the caller passed the budget in and is prepared for it
    (the {!Mcs_flow} pass manager catches it as a final safety net).

    The wall clock is only consulted every few dozen spends, so budgets
    are cheap enough for inner loops. *)

type resource = Wall | Nodes | Pivots | Passes | Augments

type exhausted = {
  resource : resource;  (** which limit was hit *)
  limit : int;  (** the limit (milliseconds for [Wall]) *)
  spent : int;  (** work done when the limit was hit *)
}

type t

exception Out_of_budget of exhausted

val unlimited : t
(** No deadline, no limits: the [spend_*] functions never raise. *)

val make :
  ?deadline_ms:float ->
  ?nodes:int ->
  ?pivots:int ->
  ?passes:int ->
  ?augments:int ->
  unit ->
  t
(** A budget whose deadline is [deadline_ms] from now.  Omitted resources
    are unlimited.  [make ()] is equivalent to {!unlimited}. *)

val restart : t -> t
(** A fresh budget with the same limits, nothing spent, and the deadline
    restarted at the original allowance — one template budget handed to
    each job of a sweep. *)

val halve : t -> t
(** A fresh budget with every limit halved (at least 1) and the deadline
    restarted at half the original allowance — the engine's retry
    discipline for timed-out or crashed jobs. *)

val is_limited : t -> bool
(** [false] exactly for budgets equivalent to {!unlimited}. *)

val remaining_ms : t -> float option
(** Milliseconds left before the deadline (clamped at 0), when one was
    set.  The refinement driver uses this to decide whether a request's
    deadline still has slack worth spending. *)

val slice : t -> t
(** A fresh budget holding half of what [t] has left on every limited
    axis (at least 1 each; unlimited axes stay unlimited).  The slice's
    spending is {e not} reflected in [t] — call {!absorb} afterwards so
    the parent's books stay honest. *)

val absorb : t -> t -> unit
(** [absorb parent child] adds the child's spent counters to the parent's
    without raising, even if the parent is now over a limit — the next
    [spend_*] on the parent will trip it.  Pure book-keeping, safe to call
    after a slice finished or exhausted. *)

val spent_pivots : t -> int
val spent_nodes : t -> int
(** Work recorded so far — per-iteration telemetry for the refinement
    loop. *)

val deadline_ms : t -> float option
(** The original wall allowance, when one was set. *)

val spend_node : t -> unit
val spend_pivot : t -> unit
val spend_pass : t -> unit
val spend_augment : t -> unit
(** Record one unit of work; raise {!Out_of_budget} when the resource's
    limit is exceeded or (checked periodically) the deadline has passed. *)

val check_wall : t -> unit
(** Unconditionally compare the clock against the deadline and raise
    {!Out_of_budget} when past it. *)

val exhausted : resource -> exhausted
(** A canned exhaustion record (limit 0) for fault injection. *)

val resource_to_string : resource -> string

val message : exhausted -> string
(** E.g. ["wall budget exhausted (52 of 50 ms)"]. *)
