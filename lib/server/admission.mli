(** Deadline-aware admission control for the daemon.

    The server tracks the last few dozen request latencies; a new
    request with a deadline is rejected up front when the queue is full
    or when [(depth + 1) x median latency] already exceeds its deadline
    — failing fast with a typed diagnostic instead of burning a worker
    domain on a budget that will expire mid-solve.

    Not domain-safe by design: every call site is the server's
    single-threaded main loop.

    Metrics: counters [server.admitted] / [server.rejected], gauges
    [server.queue_depth] / [server.inflight], histogram
    [server.latency_ms] (the source of the stats endpoint's p50/p95). *)

type t

val make : ?max_queue:int -> unit -> t
(** [max_queue] (default 256) bounds jobs admitted but not yet replied. *)

val max_queue : t -> int

val observe : ?predict:bool -> t -> latency_ms:float -> unit
(** Record one completed request's submit-to-reply latency in the
    [server.latency_ms] histogram and, unless [predict] is [false], in
    the window {!decide} predicts from.  A settled hit answered at
    admission passes [false]: it never queues, so its sub-millisecond
    latency says nothing about the wait a miss would face. *)

val median : t -> float option
(** Median of the recorded window; [None] before the first completion. *)

val decide : t -> depth:int -> deadline_ms:float option -> (unit, string) result
(** Admit or reject a request arriving with [depth] jobs already in
    flight.  [Error] carries the human-readable reason (the caller wraps
    it in a typed [exhausted] diag). *)

val set_depth : int -> unit
val set_inflight : int -> unit
(** Publish the current queue/in-flight gauges. *)
