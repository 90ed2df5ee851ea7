(** Request coalescing and batching for the daemon.

    Two mechanisms, one structure.  {e Coalescing}: a submission whose
    canonical job encoding matches an in-flight entry (queued or already
    running) attaches as an extra waiter and shares the one computation
    — its reply is bit-identical to a solo run because the outcome codec
    carries no environment-dependent data.  {e Batching}: new entries
    collect in a window; on flush, same-design same-flow entries (e.g.
    one design swept over rates) merge into one batch dispatched to a
    single worker domain as one grid job.  The window only holds entries
    while every worker domain is busy: the server forces the flush as
    soon as one is idle, so an unloaded daemon dispatches at once and
    the batch forms in the queue only under load.

    Not domain-safe by design: every call site is the server's
    single-threaded main loop; worker domains only ever see the
    immutable job and the waiter list snapshot the server hands them.

    Counters: [server.coalesced] (requests that attached),
    [server.batches] (batches dispatched). *)

type waiter = {
  conn : int;  (** connection id to reply on *)
  req_id : string;
  enqueued_at : float;
  deadline : float option;  (** absolute, [Unix.gettimeofday] clock *)
  fallback : bool;
  attached : bool;  (** joined an already-in-flight entry *)
}

type entry = {
  job : Mcs_engine.Job.t;
  key : string;  (** canonical encoding, the coalescing identity *)
  mutable waiters : waiter list;  (** reverse arrival order *)
  mutable dispatched : bool;
}

type t

val make : ?window_ms:float -> unit -> t
(** [window_ms] (default 5) is the batching window: how long a fresh
    entry waits for same-design company before dispatch while every
    worker domain is busy (the bound on the wait under load). *)

val pending : t -> int
(** Entries admitted and not yet completed (queued or running). *)

val inflight : t -> Mcs_engine.Job.t -> bool
(** Whether an identical job is admitted and not yet completed — a
    submission of it would coalesce rather than start fresh. *)

val submit :
  t -> now:float -> Mcs_engine.Job.t -> waiter -> [ `New | `Coalesced ]

val due : t -> now:float -> float option
(** Seconds until the open window must flush; [None] when empty. *)

val flush : t -> now:float -> force:bool -> entry list list
(** The batches to dispatch, in arrival order, when the window has
    expired or is [force]d (an idle domain, or shutdown); [[]]
    otherwise. *)

val complete : t -> entry -> unit
(** Forget a finished entry so later identical jobs start fresh. *)

val entry_deadline : entry -> float option
(** Most patient waiter's absolute deadline; [None] if any waiter is
    unlimited. *)

val entry_fallback : entry -> bool
(** Degradation ladder engages if any waiter asked for it. *)
