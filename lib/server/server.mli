(** The synthesis daemon: accept [mcs-req/1] submissions over a
    Unix-domain socket (and optionally loopback TCP), run them on a
    {!Mcs_engine.Supervisor} of OCaml 5 worker domains through the same
    {!Mcs_engine.Pool} execution path the CLI uses, and stream
    [mcs-run/1] replies back.

    Architecture: all socket I/O, request parsing, {!Admission} control
    and {!Coalesce} bookkeeping happen on the single main loop (a
    [select] over listeners, connections and a wake pipe); worker
    domains only execute dispatched batches and push completions back
    through a mutex-guarded list plus the wake pipe.  A per-request
    [deadline_ms] becomes the {!Mcs_resilience.Budget} of the whole
    flow; a deadline that is already unmeetable at admission, or expired
    by execution time, is answered with a typed [exhausted] diagnostic.
    With a [cache_dir], worker domains share the content-addressed
    {!Mcs_engine.Cache} (safe: the cache is bucket-locked per entry).

    Fast path: a request only waits when there is a reason to.  A job
    with nothing identical in flight is looked up in the cache on the
    main loop at admission — the daemon's one lookup site — and a
    settled hit is answered there ([cached = true]) under the same
    deadline rule, with no journal record, window or domain.  A miss
    enters the {!Coalesce} window, which is flushed at once while any
    worker domain is idle (fewer unreplied dispatched entries than
    domains); the window opens only when every domain is busy and
    closes as soon as one frees, so [window_ms] bounds the wait under
    load only.

    Crash safety: the {!Mcs_engine.Supervisor} heartbeat-monitors the worker
    domains — a dead or stuck domain is respawned with backoff and its
    batch requeued, and a job that keeps killing domains is quarantined
    with a typed [poisoned] diagnostic (known-poison jobs are refused at
    admission).  With a [wal_path], every request that is not a settled
    hit is fsync'd to the [mcs-wal/1] journal ({!Wal}) before dispatch
    and marked done on reply; [recover] replays admitted-but-unanswered
    records through the same admission path at startup (one already
    settled in the cache is marked done without executing), so a daemon
    crash loses zero accepted requests.

    Hostile clients: connections are nonblocking with buffered partial
    writes (a reply can never block the loop; a consumer that stops
    reading past the buffer cap is dropped), a partial line older than
    [read_deadline_s] or a connection idle past [idle_timeout_s] is
    reaped, and a frame over [max_frame] bytes is answered with a typed
    [oversized] diagnostic before the connection is retired.  [EINTR]
    around the loop's [select]/[read]/[write] restarts the call — a
    signal never surfaces as a protocol error.  At [create], a stale
    socket file left by a crashed daemon is detected by connect-probe
    and unlinked; a live daemon's socket raises [EADDRINUSE].

    Graceful shutdown (a [shutdown] request): new submissions are
    rejected, open batching windows flush, every in-flight job finishes
    and is replied to, then the requester gets the farewell with the
    drained-job count and the daemon exits {!serve}.

    Counters: [server.requests], [server.served],
    [server.protocol_errors], [server.oversized], [server.reaped],
    [server.backpressure_drops], [server.wal.recovered],
    [server.wal.torn] (plus those of {!Admission}, {!Coalesce},
    {!Mcs_engine.Supervisor} and {!Wal}). *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** loopback only *)
  domains : int;
  cache_dir : string option;
  window_ms : float;
      (** batching window, milliseconds — applies only while every
          worker domain is busy *)
  max_queue : int;
  wal_path : string option;  (** durable request journal ([mcs-wal/1]) *)
  recover : bool;  (** replay incomplete journal records at startup *)
  read_deadline_s : float;
      (** max age of a partial request line before the connection is
          reaped (slowloris guard); [<= 0.] disables *)
  idle_timeout_s : float;
      (** max idle age of a connection owing/owed nothing; [<= 0.]
          disables *)
  max_frame : int;  (** request-line size bound, bytes *)
  stall_s : float;
      (** worker-domain heartbeat age before the supervisor declares it
          stuck; [<= 0.] disables *)
}

val default_config : config
(** [/tmp/mcs-serve.sock], no TCP, 2 domains, no cache, 5 ms window,
    queue limit 256, no journal, 10 s read deadline, 60 s idle timeout,
    1 MiB frames, 30 s stall threshold. *)

type t

val create : ?config:config -> unit -> t
(** Bind the listeners (probing and unlinking a stale socket file),
    replay the journal when [recover] is set, and spawn the supervised
    worker domains.  Ignores [SIGPIPE] process-wide (a disconnecting
    client must not kill the daemon).
    @raise Unix.Unix_error when a listener cannot bind, including
    [EADDRINUSE] when a live daemon already owns the socket. *)

val serve : t -> unit
(** Run the main loop until a graceful shutdown completes.  All sockets
    are closed, the journal closed, and the socket file unlinked on
    exit. *)

val request_shutdown : t -> unit
(** Begin a graceful shutdown from outside the protocol — what the
    daemon's [SIGTERM]/[SIGINT] handlers call.  Async-signal-safe (sets
    one flag); {!serve} notices within one select timeout. *)
