(** A (possibly partial) pipelined schedule: the control step and intra-step
    combinational offset of every operation, for a design with a fixed
    initiation rate.

    Operations scheduled in the same {e control step group} (steps congruent
    mod the initiation rate) overlap in steady state and cannot share
    hardware (§2.3.1). *)

open Mcs_cdfg

type t

val create : ?facts:Op_facts.t -> Cdfg.t -> Module_lib.t -> rate:int -> t
(** An empty schedule.  [facts] must be [Op_facts.make cdfg mlib]; a
    scheduler that already built them passes them in, otherwise they are
    built here. *)

val copy : t -> t
(** An independent snapshot: mutations of either side never show through.
    The refinement driver copies before speculatively re-scheduling. *)

val cdfg : t -> Cdfg.t
val mlib : t -> Module_lib.t
val rate : t -> int

val facts : t -> Op_facts.t
(** The per-operation facts the schedule was created with. *)

val is_scheduled : t -> Types.op_id -> bool
val cstep : t -> Types.op_id -> int
(** @raise Invalid_argument if the operation is not scheduled. *)

val finish_ns : t -> Types.op_id -> int
val group : t -> Types.op_id -> int
(** [cstep mod rate]. *)

val set : t -> Types.op_id -> cstep:int -> finish_ns:int -> unit
val unset : t -> Types.op_id -> unit

val all_scheduled : t -> bool
val pipe_length : t -> int
(** [1 + max (cstep + cycles - 1)] over scheduled operations (0 if none). *)

val value_available : t -> Types.op_id -> reader_cstep:int -> bool
(** True when the result of scheduled operation [op] is latched in a
    register before control step [reader_cstep] begins. *)

val chain_offset : t -> Types.op_id -> at_cstep:int -> int
(** Combinational offset a consumer starting in [at_cstep] must wait for
    before reading [op]'s result: [finish_ns op] when the value is produced
    combinationally in that very step, 0 once registered. *)

val earliest_start : t -> Types.op_id -> int
(** Smallest control step at which the operation could start given its
    currently scheduled degree-0 predecessors (ignores resources; 0 when no
    predecessor is scheduled).  Chaining-aware only in the sense that a
    same-step start is allowed when every predecessor value either is
    registered or can legally chain. *)

val min_start_with_chaining : t -> Types.op_id -> int * int
(** [(cstep, offset_ns)] — as {!earliest_start} plus the incoming
    combinational offset at that step. *)

val verify : t -> (unit, string) result
(** Full invariant check of a complete schedule: precedence (with chaining
    legality and stage-time fit), multi-cycle no-chaining, and recursive-edge
    maximum time constraints.  Used by the test suite and after every
    synthesis flow. *)

val pp : Format.formatter -> t -> unit
