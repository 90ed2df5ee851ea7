(** Force-directed scheduling [PK89] adapted to partitioned pipelined
    designs, as used in Chapter 5: all partitions are scheduled
    simultaneously under a global (initiation rate, pipe length) pair, and
    the scheduler balances, per partition, the distribution graphs of every
    functional-unit type plus the input-pin and output-pin usage implied by
    I/O operations (an I/O operation loads both the output distribution of
    its source chip and the input distribution of its destination chip,
    weighted by bit width — §5.1).

    Resource constraints are not enforced; the point is to {e minimize} the
    resources the schedule implies.  Use {!fu_requirements} and the
    Chapter 5 connection synthesis to read them off afterwards. *)

open Mcs_cdfg

type error =
  | Infeasible of string
      (** no schedule exists under the (rate, pipe length) pair *)
  | Chaining_overflow of Types.op_id
      (** schedule materialization found an operation whose chained delay
          exceeds the stage time — a malformed module library or design *)
  | Exhausted of Mcs_resilience.Budget.exhausted
      (** the pass/wall budget ran out (or the [exhaust-fds] fault is
          injected) before the scheduler converged *)

val error_message : Cdfg.t -> error -> string

val run :
  ?budget:Mcs_resilience.Budget.t ->
  Cdfg.t ->
  Module_lib.t ->
  rate:int ->
  pipe_length:int ->
  unit ->
  (Schedule.t, error) result
(** Fails when the pipe length cannot accommodate the critical path or the
    recursive-edge maximum time constraints.  [budget] charges one pass
    per placement round and one per [(operation, step)] candidate scored
    in that round, whether the candidate's forces are computed afresh or
    reused from an earlier round (a window force is kept until the
    operation's window or its distribution graphs move).  So the budget
    runs out at the same placement as a scheduler that rescored every
    candidate every round; [fds.force_evals] counts only the forces
    actually computed. *)

val fu_requirements : Schedule.t -> ((int * string) * int) list
(** Functional units needed to execute the schedule, per (partition,
    operation type): first-fit packing of operations onto allocation wheels,
    so multi-cycle fragmentation is accounted for. *)

val frames :
  Cdfg.t ->
  Module_lib.t ->
  rate:int ->
  pipe_length:int ->
  fixed:int option array ->
  (int array * int array) option
(** Chaining-aware (ASAP, ALAP) start-step windows under the given fixed
    assignments and the recursive-edge constraints; [None] if inconsistent
    (or if the design has no operation).  The windows are the least
    fixpoint of the forward and backward clamped earliest-start passes and
    the max-time constraints; {!run} settles the same fixpoint
    incrementally after each placement.  Exposed for the
    conditional-sharing heuristic of §7.2 and for tests. *)
