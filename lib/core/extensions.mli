(** Chapter 7 extensions: data recursive edges, conditional I/O operations,
    time division I/O multiplexing, and multiple-cycle operations. *)

open Mcs_cdfg

(** §7.1 — data recursive edges.  Theorem 7.1 reduces precedence-constrained
    scheduling to the question "does a pipelined schedule exist with these
    two I/O operations on one communication bus?"; this module builds the
    reduction instance so the hardness construction can be exercised. *)
module Recursion : sig
  val theorem71_instance :
    tasks:int ->
    precedence:(int * int) list ->
    machines:int ->
    deadline:int ->
    Cdfg.t * Constraints.t * Module_lib.t * int
  (** The ASG instance of the proof: a chain partition P1 feeding, through
      I/O operation X, a partition P2 holding the PCS tasks, closed by I/O
      operation Y and a degree-2 recursive edge; returns
      (cdfg, constraints, module library, initiation rate = deadline + 2). *)

  val schedulable_sharing_one_bus :
    Cdfg.t -> Constraints.t -> Module_lib.t -> rate:int -> bool
  (** Can the instance be scheduled with X and Y assigned to the same
      single communication bus?  True iff the embedded PCS instance is a
      yes-instance (the equivalence of the proof). *)

  val schedulable_with_two_buses :
    Cdfg.t -> Constraints.t -> Module_lib.t -> rate:int -> bool
end

(** §7.2 — conditional I/O operations: mutually exclusive I/O operations
    (on opposite branches of a conditional spread over several chips) may
    share communication slots and pins.  Implements the merging heuristic of
    Fig. 7.7 over a compatibility graph whose nodes carry a schedule
    time-frame and a minimal bus-connection structure. *)
module Cond_share : sig
  type group = {
    members : Types.op_id list;
    frame : int * int;  (** [asap, alap] window shared by the group *)
    ports : (int * int) list;  (** minimal (partition, width) connection *)
  }

  val run :
    Cdfg.t -> Module_lib.t -> rate:int -> pipe_length:int -> group list
  (** Groups of conditional I/O operations to be scheduled in a common
      control step sharing one communication slot.  Merges are weighed
      with §7.2's [pf = 1.0] on lost scheduling freedom and [f = 0.5] on
      excluded future merges. *)

  val pins_saved : Cdfg.t -> group list -> int
  (** Total pins saved versus giving every member its own connection. *)
end

(** §7.3 — time division I/O multiplexing: replace one wide transfer by
    several narrower ones spread over consecutive cycles, with split/merge
    glue operations (Fig. 7.8). *)
module Tdm : sig
  val apply :
    Cdfg.t -> value:string -> dst:int -> parts:int ->
    split_optype:string -> merge_optype:string -> Cdfg.t
  (** Rebuilds the CDFG with the I/O operation carrying [value] into [dst]
      split into [parts] transfers of [ceil (width / parts)] bits.  A
      [split_optype] operation is inserted in the source partition (omitted
      for primary inputs, which the outside world supplies pre-split) and a
      [merge_optype] operation in the destination partition; both types must
      exist in the module library used for scheduling.
      @raise Invalid_argument if no such transfer exists or [parts < 2]. *)

  val pin_effect :
    Cdfg.t -> value:string -> dst:int -> parts:int -> int * int
  (** [(pins_before, pins_after)] for the transfer itself: the width versus
      the per-part width — the §7.3 trade of pins against control steps. *)
end

(** §7.4 — multiple-cycle operations. *)
module Multicycle : sig
  val lower_bound : ops:int -> rate:int -> cycles:int -> int
  (** Eq. 7.5: minimum functional units for [ops] operations of [cycles]
      cycles each at initiation rate [rate].
      @raise Invalid_argument when [cycles > rate] (no pipelined design). *)

  val fragmentation_demo : unit -> bool * bool
  (** The Fig. 7.10 scenario: three 2-cycle operations on one allocation
      wheel of rate 6.  Returns (fits when started at groups 0 and 3 — the
      bad placement, expected [false]; fits at groups 0 and 2 — expected
      [true]). *)
end
