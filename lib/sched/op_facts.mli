(** Per-operation facts of one design under one module library, read by
    the schedulers' inner loops: each operation's cycle count and delay,
    its degree-0 predecessors and successors, and both topological
    orders.  [Timing.op_cycles] and [Timing.op_delay_ns] look an
    operation type up by name and [Cdfg.preds]/[Cdfg.succs] allocate a
    fresh list per call, so a scheduler builds this table once per run
    (or per {!Schedule.t}) instead of asking them again and again.
    Nothing builds one while a design is elaborated. *)

open Mcs_cdfg

type t = private {
  cycles : int array;
  delay : int array;  (** ns *)
  preds : Types.op_id list array;  (** as [Cdfg.preds] *)
  succs : Types.op_id list array;  (** as [Cdfg.succs] *)
  topo : Types.op_id list;  (** [Cdfg.topo_order] *)
  rev_topo : Types.op_id list;  (** [List.rev (Cdfg.topo_order ...)] *)
}

val make : Cdfg.t -> Module_lib.t -> t
