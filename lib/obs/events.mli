(** Typed solver event journal: a process-wide, bounded ring buffer.

    Where {!Metrics} answers "how many" and {!Trace} answers "how long",
    the event bus answers "what happened, in what order": branch-and-bound
    node opens and closes, simplex pivot batches, force-directed passes,
    Hungarian augments, cache hits, pool retries, degradation-ladder
    steps, budget exhaustion.  Emission is off by default — a disabled
    [emit] is one ref read, so hot solver loops guard allocation of the
    argument list behind {!on} and pay nothing in normal runs.

    When enabled, events land in a fixed-capacity ring (default 4096
    slots): once full, new events overwrite the oldest, so the journal
    always holds the most recent history — the part a post-mortem of an
    [Exhausted] or degraded run needs — at bounded memory.  Subscribers
    ({!subscribe}) additionally see every event live; the Chrome-trace
    exporter in [Mcs_prof] uses this to record more than one ring's
    worth. *)

type arg = Int of int | Str of string | Float of float | Bool of bool

type t = {
  seq : int;  (** emission order, monotone per process *)
  ts : float;  (** [Unix.gettimeofday] at emission *)
  cat : string;  (** solver family: "bb", "simplex", "fds", ... *)
  name : string;  (** event kind within the family: "node.open", ... *)
  args : (string * arg) list;
}

val on : unit -> bool
(** True when emission is enabled.  Guard argument-list construction with
    it on hot paths: [if Events.on () then Events.emit ...]. *)

val set_enabled : bool -> unit

val emit : ?args:(string * arg) list -> cat:string -> string -> unit
(** [emit ~cat name] appends one event (no-op when disabled). *)

val recent : unit -> t list
(** The ring's current contents, oldest first. *)

val emitted : unit -> int
(** Total events emitted since the last {!clear} (including overwritten). *)

val dropped : unit -> int
(** How many of {!emitted} were overwritten by newer events. *)

val clear : unit -> unit
(** Empty the ring and restart the sequence counter. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Resize the ring (contents are discarded).  Raises [Invalid_argument]
    on a non-positive capacity. *)

val subscribe : (t -> unit) -> unit
(** Register a live listener called on every emitted event, in
    subscription order, after the event is stored in the ring. *)

val clear_subscribers : unit -> unit

val arg_to_string : arg -> string
val pp : Format.formatter -> t -> unit
