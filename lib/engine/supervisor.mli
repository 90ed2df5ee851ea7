(** The one job executor: OCaml 5 domains draining a queue of batches,
    under heartbeat monitoring with respawn, requeue and poison
    quarantine.  The [mcs-serve] daemon runs its coalesced batches on it,
    and {!Pool.run} (the [mcs-synth dse] sweep) runs one single-entry
    batch per job on it.

    Worker domains may die: each slot records a generation, the batch
    and entry it is on, and a heartbeat refreshed at every entry
    boundary.  The caller's loop calls {!check} each tick:

    - A {e dead} slot (its domain's spawn wrapper caught an escaping
      exception — the [kill-domain] fault, or a defect the caller's own
      wrapping missed) is joined, the entry it was on takes a strike in
      the shared {!Strikes} ledger, the rest of its batch is requeued
      ([server.requeued]), and the domain is respawned after an
      exponential backoff ([server.respawns]).
    - A {e stuck} slot (heartbeat older than [stall_s]) is superseded: a
      generation bump makes any late completion discardable, the domain
      is parked as a never-joined zombie (it may be wedged forever), and
      its batch is requeued with a strike exactly as if it had died.
    - An entry whose strikes reach the ledger limit (default 2) is
      {e poisoned} ([server.poisoned]): reported through [on_poisoned]
      instead of requeued — the circuit breaker that stops a lethal job
      from grinding the pool down forever.  {!poisoned_key} lets the
      server fast-fail known-poison submissions at admission.

    Exactly-once delivery: a completion is delivered if and only if the
    executing domain still held a fresh claim (same generation, batch
    not cancelled) after [exec] returned — checked under the lock that
    also advances the batch cursor — so a requeue never replays a
    delivered entry and a zombie never delivers alongside its
    replacement.

    Graceful {!shutdown} joins live domains and drains any leftover
    queue inline, so admitted work is finished, not dropped.

    The [crash-worker:N] fault is sampled once at {!create}; the first
    [N] {!take_crash} calls answer [true].

    Counters (named for the daemon, which introduced them):
    [server.pool.tasks], [server.pool.crashes_injected],
    [server.respawns], [server.requeued], [server.poisoned]. *)

(** Requeue bookkeeping: a mutex-guarded ledger of how many times a job
    (by canonical string key) has taken down its executor — one policy
    for "how many failures before we stop retrying". *)
module Strikes : sig
  type t

  val create : ?max_strikes:int -> unit -> t
  (** [max_strikes] defaults to 2: a job that kills its executor twice is
      poison. *)

  val max_strikes : t -> int

  val count : t -> string -> int
  (** Strikes recorded so far against [key]; 0 when never seen. *)

  val poisoned : t -> string -> bool
  (** [count t key >= max_strikes] — the circuit is open for this key. *)

  val record : t -> string -> [ `Retry of int | `Poisoned of int ]
  (** Record one strike and return the new count: [`Retry n] while below
      the limit, [`Poisoned n] at or above it. *)

  val forgive : t -> string -> unit
  (** Clear a key's strikes (e.g. after a clean completion). *)
end

type ('a, 'c) t
(** ['a] is the batch-entry type, ['c] the completion type [exec]
    produces and [deliver] consumes. *)

exception Domain_killed
(** What the [kill-domain] fault raises inside a worker. *)

val recommended_minor_heap_words : int
(** Per-domain minor heap (in words) under which a multi-domain pool
    stops losing its parallel gains to stop-the-world minor-GC
    synchronisation on the allocation-heavy flows.  On OCaml 5.1 the
    minor arenas are reserved at startup and [Gc.set] cannot grow them,
    so the daemon entry point re-execs with [OCAMLRUNPARAM=s=...] before
    any domain is spawned. *)

val create :
  ?domains:int ->
  ?stall_s:float ->
  ?backoff_ms:float ->
  ?strikes:Strikes.t ->
  key:('a -> string) ->
  exec:('a array -> int -> 'c) ->
  deliver:('c -> unit) ->
  on_poisoned:('a -> strikes:int -> unit) ->
  on_wake:(unit -> unit) ->
  unit ->
  ('a, 'c) t
(** Spawn [domains] (default 2, floored at 0) supervised worker domains.
    [stall_s] (default 30, [<= 0.] disables) is the heartbeat age past
    which a busy domain counts as stuck; [backoff_ms] (default 25) the
    base respawn backoff, doubled per consecutive failure and capped at
    2 s.  [key] gives an entry's canonical identity for the [strikes]
    ledger (default: a private one with the standard 2-strike limit).
    [exec entries i] runs one entry and returns its completion —
    called on a worker domain, it must not touch supervisor state.
    [deliver] and [on_poisoned] hand results back (worker domain /
    main-loop context respectively); [on_wake] pokes the main loop after
    a death so {!check} runs promptly. *)

val size : ('a, 'c) t -> int

val submit : ('a, 'c) t -> 'a array -> bool
(** Enqueue a batch; [false] (batch dropped) only after {!shutdown}
    began.  An empty batch is accepted and ignored. *)

val queued : ('a, 'c) t -> int
(** Batches accepted but not yet picked up by a domain. *)

val check : ('a, 'c) t -> now:float -> unit
(** The supervision tick (main-loop context): join dead domains,
    supersede stuck ones, strike/requeue/poison their batches, respawn
    slots whose backoff has elapsed. *)

val help : ('a, 'c) t -> bool
(** Run one queued batch in the calling domain, delivering its
    completions; [false] when the queue was empty.  An entry whose [exec]
    raises is reported through [on_poisoned].  No heartbeat watches an
    inline batch, so a caller that needs its stall limit enforced must
    not help. *)

val take_crash : ('a, 'c) t -> bool
(** Consume one injected [crash-worker] crash if any remain. *)

val strikes : ('a, 'c) t -> Strikes.t
val poisoned_key : ('a, 'c) t -> string -> bool
(** Is this canonical key quarantined?  (Admission-time circuit
    breaker.) *)

val zombie_count : ('a, 'c) t -> int
(** Superseded stuck domains parked un-joined — the observable leak. *)

val shutdown : ('a, 'c) t -> unit
(** Stop accepting batches, join live domains, requeue batches stranded
    by un-checked deaths, and drain the remaining queue inline with
    {!help}. *)
