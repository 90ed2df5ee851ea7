(** Functional simulation of synthesized multiple-chip systems.

    Two executions of the same design are compared:

    - {!reference} evaluates the CDFG denotationally: instance [n] of each
      operation applies its operator to its operands, a data recursive edge
      of degree [d] reading instance [n - d] (seeded deterministically for
      [n - d < 0]);
    - {!machine} replays the synthesized implementation cycle by cycle: each
      operation of each execution instance runs at its scheduled control
      step, interchip values travel over their assigned buses, and the
      simulator {e checks the hardware invariants as it goes} — at most one
      value per bus per cycle (same-value broadcasts excepted), ports wide
      enough for what they carry, and every operand latched before use.

    Both interpret operators the same way: "add", "sub" and "mul" as
    arithmetic, any other type as a deterministic hash of its operands, all
    masked to 30 bits.

    Equal traces mean the schedule, the bus allocation and the connection
    together implement the behaviour; any pipelining bug (overlapped
    instances clobbering each other, a transfer on a busy bus, a value read
    before it exists) surfaces as a mismatch or an invariant report. *)

open Mcs_cdfg

type inputs = string -> int -> int
(** [inputs value instance] — the primary input stream. *)

val random_inputs : seed:int -> inputs
(** Deterministic pseudo-random stream. *)

type trace = {
  outputs : ((string * int) * int) list;
      (** (output value name, instance) -> value, sorted *)
}

val reference : Cdfg.t -> inputs:inputs -> instances:int -> trace

val machine :
  Mcs_sched.Schedule.t ->
  bus_of:(Types.op_id -> int list) ->
  bus_capable:(int -> Types.op_id -> bool) ->
  inputs:inputs ->
  instances:int ->
  (trace, string) result
(** [bus_of] gives the bus slots each I/O operation occupies in its control
    step (one id for an ordinary bus; a Chapter-6 whole-bus transfer lists
    both of its sub-bus slots); [bus_capable slot op] is the static
    capability predicate used to check port widths (wrap
    [Connection.capable] or the Chapter-6 slice predicate).  Returns
    [Error] describing the first violated hardware invariant. *)

val check_equivalent :
  Mcs_sched.Schedule.t ->
  bus_of:(Types.op_id -> int list) ->
  bus_capable:(int -> Types.op_id -> bool) ->
  seed:int ->
  instances:int ->
  (unit, string) result
(** Reference-vs-machine comparison over a random input stream. *)
