(** Chapter 3: synthesis for designs with a {e simple} partitioning.

    For a simple partitioning (Definition 3.2) the interchip communication
    problem reduces to pin allocation: Theorem 3.1 proves that any schedule
    whose I/O operations fit the per-chip pin budgets admits a conflict-free
    interchip connection, and its proof is constructive.  Scheduling is
    ordinary list scheduling with a pin-allocation feasibility checker in
    front of every I/O operation (Fig. 3.4); the checker decides an ILP
    (§3.1.1, reduced as in §3.1.2) whose variables say in which control-step
    group each I/O operation's pins can be allocated.

    This module holds the checker ({!hook}) and the connection
    ({!Theorem31}); [Mcs_flow.Flow] drives them. *)

open Mcs_cdfg

val is_simple : Cdfg.t -> bool
(** Definition 3.2, quantified over real partitions only (the outside world
    is exempt; see DESIGN.md). *)

val violations : Cdfg.t -> string list
(** Human-readable list of Definition 3.2 violations (empty iff simple). *)

(** The pin-allocation feasibility problem (Definition 3.3). *)
module Pin_ilp : sig
  val model :
    Cdfg.t -> Constraints.t -> rate:int ->
    fixed:(Types.op_id * int) list -> Mcs_ilp.Model.t
  (** The ILP of §3.1.1 with the single-fanout merge of §3.1.2; [fixed]
      pins already-scheduled I/O operations to their control-step groups. *)

  (** The answer to one question, with the integer point behind a yes. *)
  type answer =
    | Feasible of int array array
        (** an integer point: [p.(u).(k)] is the x variable of I/O unit
            [u] (see {!units}) in control-step group [k] *)
    | Infeasible  (** proven: the search refuted every branch *)
    | Undecided  (** the solver's own node cap; proves nothing *)

  val units : Cdfg.t -> int array * int
  (** [(unit_of, n)]: the x-variable unit of every I/O operation (indexed
      by operation id; [-1] for the others), and the number of units.  A
      single-fanout operation shares its unit with every operation of the
      same (source, destination, width) — the merge of §3.1.2 — and a
      fixing of such an operation to group [k] raises x_{u,k}'s lower
      bound by one; any other operation has a 0/1 unit of its own. *)

  val decide :
    ?budget:Mcs_resilience.Budget.t ->
    arith:Mcs_ilp.Fsimplex.arith ->
    ?basis:int list ref ->
    Cdfg.t -> Constraints.t -> rate:int ->
    fixed:(Types.op_id * int) list -> answer
  (** Decides the model by branch & bound.  A solver node limit that
      already found an integer point counts as feasible.  Exhaustion of an
      explicit [budget] (or the [exhaust-ilp] fault) raises
      {!Mcs_resilience.Budget.Out_of_budget} — the schedule attempt is out
      of time and the caller's degradation ladder decides what's next.
      [arith] picks the solver arithmetic; [basis] is {!Mcs_ilp.Model.solve}'s
      warm-start hint, valid across the models of one
      (design, constraints, rate) — they differ only by fixing rows.
      Counts [pin_ilp.solves]. *)

  val feasible :
    ?budget:Mcs_resilience.Budget.t ->
    arith:Mcs_ilp.Fsimplex.arith ->
    Cdfg.t -> Constraints.t -> rate:int ->
    fixed:(Types.op_id * int) list -> bool
  (** {!decide} as a yes/no: an undecided question is treated as
      infeasible (safe for the scheduler: the operation is merely
      postponed). *)
end

val hook :
  ?budget:Mcs_resilience.Budget.t ->
  arith:Mcs_ilp.Fsimplex.arith ->
  Cdfg.t -> Constraints.t -> rate:int -> Mcs_sched.List_sched.io_hook
(** The safety checker of Fig. 3.4: before an I/O operation is scheduled in
    a control step, verify a completing pin allocation still exists.

    The hook solves only what it cannot answer from its own history, and
    its answers are the ones solving every question would give — except
    where such a solve would stop undecided at the solver's node cap (a
    no), and the history holds the exact answer:
    - {e Refutations.}  The committed fixings only grow, and each one only
      shrinks the feasible set, so a question [(op, k)] proven
      {!Pin_ilp.Infeasible} stays infeasible for the rest of the run; the
      hook answers no again without solving.  An [Undecided] answer
      proves nothing and is asked again.
    - {e The witness.}  The last integer point a solve returned satisfies
      every fixing in force when it was found.  The hook keeps it while
      it covers every committed fixing (x_{u,k} at least the number of
      operations committed to unit [u] in group [k]); a commit it does not
      cover — e.g. the fixed-operation replay of [List_sched], which
      commits without asking — drops it.  A question the witness already
      covers (x_{u,k} at least one more than committed) has a completing
      allocation, so the hook answers yes without solving.
    Each solve is warm-started from the root basis of the hook's own
    previous solve (the {!Pin_ilp.decide} [basis] hint), so a hook's
    effort depends on its own questions only, never on other runs in the
    process.
    Counters: [pin_ilp.questions] per question, [pin_ilp.refuted_hits] and
    [pin_ilp.witness_hits] per answer from the history, and
    [pin_ilp.solves] per {!Pin_ilp.decide}. *)

(** Constructive interchip connection of Theorem 3.1.

    Following the proof, "the connections at the input and output ends of a
    partition can be constructed independently": the connection is a set of
    per-end wire {e bundles}.  A partition's pin usage is the total width of
    its own ends' bundles; a fan of two counterparts is decomposed into the
    A/B/C bundles of Fig. 3.3, wider fans (only the exempt outside world)
    into one shared bus-style bundle per end. *)
module Theorem31 : sig
  type bundle = {
    owner : [ `Out of int | `In of int ];
        (** which partition's output or input end this bundle belongs to *)
    counterparts : int list;  (** partitions on the far side *)
    wires : int;
  }

  val connect : Mcs_sched.Schedule.t -> bundle list

  val check : Mcs_sched.Schedule.t -> bundle list -> (unit, string) result
  (** Replays every control-step group's transfers through the bundles and
      verifies no end is oversubscribed (including the A/B/C inequalities of
      the proof) — the "no communication conflict" claim of the theorem. *)
end
