(** Communication-bus allocation during scheduling, with the dynamic
    reassignment of §4.2: when the bus tentatively assigned to an I/O
    operation is already allocated in the current control-step group, the
    operation may preempt another (not yet scheduled) operation's tentative
    bus, which preempts another, and so on — an augmenting path in a
    bipartite graph of I/O operations versus communication slots (Fig. 4.5).

    Two I/O operations transferring the same value may share one slot when
    scheduled in the same control step (§4.4.2). *)

open Mcs_cdfg

type t

val create :
  ?budget:Mcs_resilience.Budget.t ->
  Cdfg.t ->
  Connection.t ->
  rate:int ->
  initial:(Types.op_id * int) list ->
  dynamic:bool ->
  t
(** [dynamic:false] reproduces the paper's static-assignment baseline: an
    I/O operation may only ever use the bus it was initially assigned.
    [budget] bounds the repacking matchings; exhaustion raises
    {!Mcs_resilience.Budget.Out_of_budget} out of the {!hook}, which
    [List_sched.run] converts into a typed failure. *)

val hook : t -> Mcs_sched.List_sched.io_hook

val final_assignment : t -> (Types.op_id * int) list
(** Scheduled operations with their final buses, in operation order. *)

val allocation_table : t -> ((int * int) * (string * int * Types.op_id list)) list
(** [((bus, group), (value, cstep, ops))] rows — the "Bus allocation" tables
    (4.4, 4.6, 4.8, 4.15...) of the dissertation. *)
