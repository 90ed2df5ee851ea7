(** Intermediate artifacts a flow phase hands to the pass manager.

    The pass manager ({!Pass.phase}) exposes each phase's product in this
    common shape so a checker ({!Mcs_check}) can audit it {e between}
    phases without knowing which flow produced it. *)

open Mcs_cdfg

(** The three connection structures the dissertation's flows build. *)
type connection =
  | Bundles of Mcs_core.Simple_part.Theorem31.bundle list
      (** Chapter 3: per-end wire bundles of the constructive proof *)
  | Buses of {
      conn : Mcs_connect.Connection.t;
      initial : (Types.op_id * int) list;
      assignment : (Types.op_id * int) list;
          (** final operation-to-bus assignment (equals [initial] before
              scheduling commits reassignments) *)
      allocation : ((int * int) * (string * int * Types.op_id list)) list;
          (** [((bus, group), (value, cstep, ops))]; empty before
              scheduling *)
    }  (** Chapters 4 and 5: shared buses *)
  | Subbuses of {
      buses : Mcs_core.Subbus.real_bus list;
      initial : (Types.op_id * (int * Mcs_core.Subbus.sub)) list;
      assignment : (Types.op_id * (int * Mcs_core.Subbus.sub)) list;
      allocation :
        ((int * Mcs_core.Subbus.sub * int) * (string * int * Types.op_id list))
        list;  (** [((bus, slice, group), (value, cstep, ops))] *)
    }  (** Chapter 6: buses with sub-bus slices *)

type t = Schedule of Mcs_sched.Schedule.t | Connection of connection
