open Mcs_cdfg
module SP = Mcs_core.Simple_part
module SB = Mcs_core.Subbus

type connection =
  | Bundles of SP.Theorem31.bundle list
  | Buses of {
      conn : Mcs_connect.Connection.t;
      initial : (Types.op_id * int) list;
      assignment : (Types.op_id * int) list;
      allocation : ((int * int) * (string * int * Types.op_id list)) list;
    }
  | Subbuses of {
      buses : SB.real_bus list;
      initial : (Types.op_id * (int * SB.sub)) list;
      assignment : (Types.op_id * (int * SB.sub)) list;
      allocation : ((int * SB.sub * int) * (string * int * Types.op_id list)) list;
    }

type t = Schedule of Mcs_sched.Schedule.t | Connection of connection
