(** The branch-limited heuristic search of §4.1.2 (Fig. 4.3): determine the
    interchip connection structure — buses, port widths, and a tentative
    assignment of every I/O operation to a bus — before scheduling.

    I/O operations are assigned in descending bit-width order; at each level
    only the two best candidate buses (by the gain
    [g = 10000 g1 + 100 g2 + g3], favouring port reuse weighted by pin
    scarcity, same-value sharing, and slot balance) with pairwise distinct
    topologies are explored, plus a fresh bus.

    After each move the search prunes the subtree when a lower bound
    shows it holds no complete assignment.  Pruning never reorders the
    search, so it changes node counts, never the answer.
    - Per partition, the fresh pins the remaining transfers need, after
      the free slots of the partition's existing ports, must fit its
      budget.  Only values no bus carries yet count: an operation whose
      value is already on a bus (a rider) can share that bus's slot, so
      its cheapest completion takes no slot and possibly no pin.
    - With unidirectional ports, for every p sending and q receiving, the
      values neither can move onto fresh ports (at most [slot_cap] values
      per port, ports no narrower than the narrowest value that fits the
      pins left) must fit the free slots of the buses where p has an
      output or q an input port; a value p sends to q fills one slot for
      both.  Each such value takes a slot that is free now, so the count
      is a lower bound.  Bidirectional ports, where one port and its pins
      serve both directions, are left out. *)

open Mcs_cdfg

type result = {
  conn : Connection.t;
  assign : (Types.op_id * int) list;  (** I/O operation -> bus id *)
}

type error =
  | Infeasible  (** no connection satisfies the pin constraints *)
  | Exhausted of Mcs_resilience.Budget.exhausted
      (** node/wall budget ran out (either [max_nodes], an explicit
          budget, or the [exhaust-heuristic] fault) *)

val error_message : error -> string

val search :
  ?budget:Mcs_resilience.Budget.t ->
  Cdfg.t ->
  Constraints.t ->
  rate:int ->
  mode:Connection.mode ->
  ?slot_cap:int ->
  ?max_nodes:int ->
  unit ->
  (result, error) Stdlib.result
(** [max_nodes] (search-tree node budget) defaults to 200_000.
    [slot_cap] (default [rate]) caps the values tentatively packed onto one
    bus; lowering it below the initiation rate forces a wider-bandwidth
    connection with more buses, serving the role of the paper's
    bus-count-maximizing ILP objective (4.6) when the packed-tight
    connection leaves the scheduler no slack. *)

val pins_used_by_partition : result -> int list
(** Pins committed per partition [0 .. N]. *)
