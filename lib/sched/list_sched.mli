(** Resource-constrained pipelined list scheduling (Fig. 3.4), the scheduling
    engine of Chapters 3, 4 and 6.

    All partitions are scheduled simultaneously.  Functional operations
    compete for the per-chip functional units (multi-cycle units through
    {!Alloc_wheel}); I/O operations are additionally gated by a pluggable
    communication-resource hook — the pin-allocation feasibility checker in
    Chapter 3, communication-bus availability (with dynamic reassignment) in
    Chapters 4 and 6.  An I/O operation the hook rejects is postponed to a
    later control step, exactly as in the paper's flow chart.

    Data recursive edges impose maximum time constraints; the scheduler
    tracks the induced deadlines and fails — like the paper's greedy list
    scheduler — when a deadline can no longer be met.

    Readiness is event-driven.  Each operation counts its unplaced
    predecessors; when the last one is placed, its release step
    [max floor earliest_start] is computed once (it cannot change, since
    placements are final) and it waits in a bucket for that step, or
    enters the pool at the next sweep if the step has been reached — so a
    chained successor is still tried in the next sweep of the same
    control step.  Each control step sweeps its pool until nothing more
    places, trying candidates in (deadline, priority, op) order.  The
    order and every placement are those of a scheduler that rescans all
    operations on every sweep, and [ls.ready_size] keeps its meaning: the
    number of candidates of each sweep (one observation per sweep). *)

open Mcs_cdfg

type io_hook = {
  io_can : Schedule.t -> Types.op_id -> cstep:int -> bool;
      (** May the I/O operation be scheduled here?  Must be side-effect
          free. *)
  io_commit : Schedule.t -> Types.op_id -> cstep:int -> unit;
      (** Called exactly once right before the operation is recorded. *)
}

val unconstrained_io : io_hook
(** Accepts everything (pure functional-unit-constrained scheduling). *)

type kind =
  | Horizon of int  (** no schedule within this many control steps *)
  | Deadline_missed of Types.op_id * int
      (** recursive max-time constraint unsatisfiable: op needed by cstep *)
  | Missing_fu of int * string
      (** a functional operation has no functional unit at all in its
          (partition, optype) — a constraint-set bug rather than a
          scheduling failure, but reported as a typed failure instead of
          the [Invalid_argument] it used to raise *)
  | Exhausted of Mcs_resilience.Budget.exhausted
      (** the pass/wall budget ran out, here or inside an [io_hook] *)

type failure = {
  kind : kind;
  reason : string;  (** human-readable rendering of [kind] *)
  at_cstep : int;
  partial : Schedule.t;  (** state at the point of failure, for diagnosis *)
}

val run :
  ?budget:Mcs_resilience.Budget.t ->
  Cdfg.t ->
  Module_lib.t ->
  Constraints.t ->
  rate:int ->
  ?max_csteps:int ->
  ?io_hook:io_hook ->
  ?priority_bias:int array ->
  ?min_cstep:int array ->
  ?fixed:(Types.op_id * int) list ->
  unit ->
  (Schedule.t, failure) result
(** [priority_bias] perturbs the static priorities (added per operation);
    [min_cstep] forbids scheduling an operation before the given control
    step — the paper's manual trick of "postponing some of the operations
    ... and rerunning" (§5.3), mechanized by [Mcs_refine]'s
    resched-tail move.
    [fixed] replays the given [(op, cstep)] placements verbatim — charging
    allocation wheels and the [io_hook]'s commit exactly as if the
    scheduler had chosen them — while the remaining operations are
    scheduled freely around them; this is the subproblem-extraction entry
    point of [Mcs_refine] (freeze the non-bottleneck prefix, re-schedule
    the tail).  Fixed placements must come from a valid schedule over the
    same resources: every predecessor of a fixed operation must itself be
    fixed no later, or the run raises [Invalid_argument].
    [budget] charges one pass per control step; a
    {!Mcs_resilience.Budget.Out_of_budget} escaping the [io_hook] is also
    caught here and reported as an [Exhausted] failure. *)

val priorities : Cdfg.t -> Module_lib.t -> int array
(** The static priority function: longest path (in cycles) from each
    operation to any sink, the classic list-scheduling urgency measure. *)
