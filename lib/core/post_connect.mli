(** Chapter 5 flow: interchip connection synthesis {e after} scheduling.

    A force-directed schedule fixes every I/O operation's control-step
    group; compatible I/O operations (different groups, or same value in the
    same control step) may then share a communication bus.  Minimizing pins
    becomes a maximum-gain clique partitioning of the compatibility graph —
    NP-hard in general, but the graph's group structure (Fig. 5.1) lets the
    heuristic of Fig. 5.2 build the cliques with a series of bipartite
    weighted matchings (Hungarian algorithm), largest groups first.

    This module holds the clique partitioning; [Mcs_flow.Flow] runs the
    schedule and then these functions. *)

open Mcs_cdfg

val weight :
  Cdfg.t -> mode:Mcs_connect.Connection.mode ->
  Types.op_id -> Types.op_id -> int
(** The edge weight of §5.2 (with all [wf_i = 1]): pins shareable when the
    two operations ride one bus — [min] of the bit widths per common
    endpoint.  In bidirectional mode endpoints compare as unordered sets. *)

val cliques :
  ?budget:Mcs_resilience.Budget.t ->
  Mcs_sched.Schedule.t -> mode:Mcs_connect.Connection.mode ->
  Types.op_id list list
(** The clique partitioning of the scheduled I/O operations.  [budget]
    bounds the Hungarian merge passes; exhaustion (and the
    [exhaust-hungarian] fault) raises
    {!Mcs_resilience.Budget.Out_of_budget}. *)

val cliques_trivial : Mcs_sched.Schedule.t -> Types.op_id list list
(** The unmerged supernodes (same value in the same control step, else
    singleton) — every one a valid clique, no Hungarian passes.  The
    degraded fallback when {!cliques} runs out of budget: more buses and
    pins, but always available in linear time. *)

val connection_of_cliques :
  Cdfg.t ->
  mode:Mcs_connect.Connection.mode ->
  Types.op_id list list ->
  Mcs_connect.Connection.t * (Types.op_id * int) list
(** Materialize a clique partitioning as one bus per clique, each wide
    enough for every member at both endpoints, plus the operation-to-bus
    assignment. *)
