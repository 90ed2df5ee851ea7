(** Chapter 6: sharing communication buses within a cycle.

    A bus may be logically divided into (at most) two sub-buses, each a
    contiguous slice of its lines, so two values can cross it in the same
    control step.  Following the prototype simplifications of §6.1.2:

    - a bus's width is the largest bit width assigned to it (ports are never
      widened just to enable sharing);
    - a bus splits only when the new operation fits the second sub-bus while
      every operation already assigned fits the first (so no occupant's
      ports need rewiring); a value may still group both sub-buses
      ([Whole]);
    - I/O ports are bidirectional (the assumption of the Chapter 6
      experiments).

    This module holds the two phases; [Mcs_flow.Flow] drives them (the
    slot-cap sweep and the choice among caps; [Flow.static_baseline]
    reschedules the winner statically for the reports that print it). *)

open Mcs_cdfg

type sub = Lo | Hi | Whole

type real_bus = {
  width : int;
  split_at : int option;  (** width of the first sub-bus *)
  ports : (int * int) list;  (** (partition, r_{i,h}) with r > 0 *)
  carried : (Types.op_id * sub) list;
}

type t = {
  real_buses : real_bus list;
  initial_assignment : (Types.op_id * (int * sub)) list;
  final_assignment : (Types.op_id * (int * sub)) list;
  allocation : ((int * sub * int) * (string * int * Types.op_id list)) list;
      (** [((bus, slice, group), (value, cstep, ops))] *)
  schedule : Mcs_sched.Schedule.t;
  pins : (int * int) list;
}

val search :
  ?budget:Mcs_resilience.Budget.t ->
  Cdfg.t ->
  Constraints.t ->
  rate:int ->
  ?slot_cap:int ->
  unit ->
  (real_bus list * (Types.op_id * (int * sub)) list, string) result
(** Connection synthesis alone: buses (with splits) plus the tentative
    assignment of each I/O operation to (bus, slice).  [budget] bounds the
    backtracking search; exhaustion (and the [exhaust-heuristic] fault)
    raises {!Mcs_resilience.Budget.Out_of_budget} so the caller's
    degradation ladder can take over.

    Before its first node the search checks a line-slot capacity bound:
    a slice holds at most [slot_cap] distinct values (a [Whole] occupant
    counts on both halves), and a value on a port uses at least its width
    of the port's lines, so on every partition p the distinct values
    touching p may carry at most [slot_cap] x [Constraints.pins cons p]
    bits (each value once, at its widest operation touching p).  A cap
    that breaks it on some partition is refuted in zero nodes: the call
    returns the same [Error] as a failed search and counts in
    [subbus.refuted].

    The search also stops after 200 000 nodes on its own; that cutoff
    returns [Error] like any failed search (the caller's slot-cap sweep
    goes on) and counts in the [subbus.node_limit] metric.  Every call
    counts in [subbus.attempts]. *)

val schedule_over :
  ?budget:Mcs_resilience.Budget.t ->
  Cdfg.t ->
  Module_lib.t ->
  Constraints.t ->
  rate:int ->
  dynamic:bool ->
  real_bus list * (Types.op_id * (int * sub)) list ->
  (t, string) result
(** List scheduling over an already-synthesized bus structure (a {!search}
    result): builds the sub-slot hook — restricted reassignment when
    [dynamic], the initially assigned slice only otherwise — and returns
    the full flow record.  Lets a pass manager run connection synthesis
    and scheduling as separate phases without re-searching.  The Ch. 6
    slot-cap sweep runs it once per cap, dynamic only; the static run
    ([~dynamic:false]) is [Flow.static_baseline]'s, once per sweep, on
    the winning cap's buses and initial assignment.  [budget]
    exhaustion inside the scheduler raises
    {!Mcs_resilience.Budget.Out_of_budget} (it is not a property of this
    bus structure); other scheduling failures return [Error].

    The dynamic hook decides each I/O feasibility test once: it tries the
    tentative slice first, then every capable slice in bus order, and
    stops at the first one after which the other unscheduled transfers
    can still be packed onto the free sub-slots (a matching, counted in
    [subbus.repacks]); the commit that follows takes that slice. *)
