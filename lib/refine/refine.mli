(** Feedback-guided iterative refinement: the anytime-improvement loop
    that closes the degradation ladder.

    {!improve} takes a flow result — typically one produced under a tight
    budget, possibly degraded — extracts the bottleneck subgraph from
    {!Mcs_check.Bottleneck} evidence, re-solves just that subproblem under
    a {e sliced} {!Mcs_resilience.Budget} (so a runaway move can never
    drain the caller's pool), and splices the solution back.  It repeats
    until the budget, a fixed point, or the iteration cap is hit.

    The loop is {e anytime}: a candidate is accepted only when it strictly
    improves the objective {e and} passes the strict checker, so the
    incumbent is checker-clean after every iteration and the caller can
    stop the loop whenever it likes — including by deadline.

    Moves, chosen by bottleneck score:

    - {e reclimb} (ladder evidence): re-run the whole flow with the
      ladder disabled, under the iteration's budget slice;
    - {e resched-tail} (critical-tail / pin-pressure / FU-slack evidence,
      Ch. 3 and Ch. 4 results): freeze every operation before the tail
      window as an exact {!Mcs_sched.List_sched} replay ([~fixed]),
      re-schedule the window with the flow's own communication hook,
      rebuild the connection (Theorem 3.1 bundles, or bus reassignment
      over the fixed connection), and keep the best.  This mechanizes the
      paper's manual postponement and rerun (§5.3, §6.3): 12 trials, each
      a hashed priority perturbation (none on the first) and, on even
      trials, a postponement floor on the lower-priority half of the I/O
      operations, never below the window's cut.  The window starts at a
      quarter of the pipe and doubles after each attempt that does not
      improve (an accepted one resets it); at the whole pipe nothing is
      frozen, and a Ch. 4 result is rescheduled
      with the flow's own dynamic bus reassignment from its initial
      assignment (a frozen prefix replays the final assignment
      statically instead). *)

type iteration = {
  index : int;  (** 1-based *)
  bottleneck : string;  (** {!Mcs_check.Bottleneck.describe} label *)
  action : string;  (** ["reclimb"] or ["resched-tail:w<N>"] *)
  objective_before : int;
  objective_after : int option;  (** [None] when the move failed to run *)
  accepted : bool;
  reason : string;
  pivots : int;  (** simplex pivots the move's slice spent *)
  nodes : int;  (** branch & bound nodes the move's slice spent *)
  wall_ms : float;
}

type outcome = {
  result : Mcs_flow.Flow.result;
      (** the incumbent: [r0] itself when nothing was accepted *)
  iterations : iteration list;  (** in execution order *)
  improved : bool;
  fixed_point : bool;
      (** no applicable move was left — provably stuck at this quality
          under the available moves *)
  exhausted : bool;  (** the deadline ran out first *)
}

val objective : Mcs_flow.Flow.result -> int
(** [1000 * total pins + pipe length] — pins dominate, pipe length breaks
    ties (the Ch. 6 candidate ordering, promoted to the system-wide
    quality measure). *)

val improve :
  max_iters:int ->
  ?policy:Mcs_flow.Flow.policy ->
  Mcs_flow.Flow.spec ->
  Mcs_flow.Flow.result ->
  outcome
(** Refine [r0] for up to [max_iters] iterations ([0] returns [r0]
    untouched with no iterations — bit-identical passthrough).
    [policy.budget] is the parent pool: every iteration runs on a
    half-remaining slice whose spending is absorbed back, and the loop
    stops early when the pool's deadline has under ~2 ms of slack.  Never
    raises; never returns a result worse than [r0]. *)
