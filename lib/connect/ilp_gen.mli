(** ILP formulations of the interchip-connection synthesis problems.

    The dissertation submitted these formulations to the Bozo and Lindo
    packages; they were too large to solve at practical sizes but remain
    "useful for verification of synthesized results" (§4.1.2).  Exactly so
    here: the test suite solves them with the in-repo branch-and-bound on
    small designs and checks the heuristics' results against them. *)

open Mcs_cdfg

(** Chapter 4 (§4.1.1): assignment of every I/O operation to one of at most
    [max_buses] buses with port-width and pin-budget constraints, capacity
    [rate] values per bus, maximizing the number of buses used (4.6). *)
module Ch4 : sig
  type vars

  val model :
    Cdfg.t -> Constraints.t -> rate:int -> mode:Connection.mode ->
    max_buses:int -> Mcs_ilp.Model.t * vars

  val solve :
    ?budget:Mcs_resilience.Budget.t ->
    arith:Mcs_ilp.Fsimplex.arith ->
    Cdfg.t -> Constraints.t -> rate:int -> mode:Connection.mode ->
    max_buses:int ->
    [ `Sat of (Types.op_id * int) list * (int * int) list
      (** assignment and per-partition pins used *)
    | `Unsat
    | `Unknown
    | `Exhausted of Mcs_resilience.Budget.exhausted ]
  (** [arith] selects the solver arithmetic; no solve carries a
      warm-start hint. *)
end

(** Chapter 6 (§6.1.1): sub-slot assignment with buses divided into [subs]
    sub-buses, including the contiguity (exclusive-or transition counting)
    and shared-sub-slot constraints, linearized as in §6.1.1.4. *)
module Ch6 : sig
  val model :
    Cdfg.t -> Constraints.t -> rate:int -> max_buses:int -> subs:int ->
    Mcs_ilp.Model.t

  val feasible :
    ?budget:Mcs_resilience.Budget.t ->
    arith:Mcs_ilp.Fsimplex.arith ->
    Cdfg.t -> Constraints.t -> rate:int -> max_buses:int -> subs:int ->
    bool option
  (** [None] when the solver budget runs out. *)
end
