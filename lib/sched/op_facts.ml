open Mcs_cdfg

type t = {
  cycles : int array;
  delay : int array;
  preds : Types.op_id list array;
  succs : Types.op_id list array;
  topo : Types.op_id list;
  rev_topo : Types.op_id list;
}

let make cdfg mlib =
  let n = Cdfg.n_ops cdfg in
  let topo = Cdfg.topo_order cdfg in
  {
    cycles = Array.init n (Timing.op_cycles cdfg mlib);
    delay = Array.init n (Timing.op_delay_ns cdfg mlib);
    preds = Array.init n (Cdfg.preds cdfg);
    succs = Array.init n (Cdfg.succs cdfg);
    topo;
    rev_topo = List.rev topo;
  }
