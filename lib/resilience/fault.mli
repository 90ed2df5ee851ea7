(** Deterministic fault injection, driven by the [MCS_FAULT] environment
    variable.

    Grammar: a comma-separated list of modes —
    {v
      MCS_FAULT=exhaust-ilp,exhaust-fds,exhaust-heuristic,exhaust-hungarian,
                crash-worker:N,corrupt-cache
    v}

    Each [exhaust-*] mode may carry an armed count, [exhaust-ilp:N]: the
    fault fires on the first [N] injection-point hits in this process,
    then disarms (counts reset whenever the env value changes).  A bare
    mode fires on every hit.  Armed counts are what let a refinement pass
    in the same process re-solve cleanly after the initial run was forced
    down the degradation ladder.

    - [exhaust-ilp] — branch & bound reports [Exhausted] immediately.
    - [exhaust-fds] — force-directed scheduling reports [Exhausted].
    - [exhaust-heuristic] — the Ch4 connection search reports [Exhausted].
    - [exhaust-hungarian] — Hungarian assignment/matching raises
      {!Budget.Out_of_budget} at entry.
    - [crash-worker:N] — the first [N] engine pool jobs exit abnormally on
      their first attempt (they succeed when retried).
    - [corrupt-cache] — the engine cache writes a corrupt body on [store],
      so the next [lookup] must quarantine it.
    - [kill-domain:N] — the next [N] jobs picked up by a server worker
      domain kill that domain (the supervisor must respawn it and requeue
      or quarantine the batch).
    - [stall-conn:N] — the next [N] connections the server accepts go
      silent (their reads stall), exercising idle reaping.
    - [wal-torn] — the next WAL append writes a torn (checksum-invalid)
      record, exercising recovery's torn-tail handling.
    - [hold-dispatch:N] — the next [N] servers created hold every
      admitted request undispatched for their whole life (only a
      shutdown's forced flush drains them), so a test can crash or drain
      a daemon with requests deterministically journaled but not run.

    The chaos modes ([kill-domain], [stall-conn], [wal-torn],
    [hold-dispatch]) always carry
    an armed count; their bare forms mean one shot — an unbounded
    kill-domain would poison every job it touches.

    The injection points re-read the environment lazily (memoized on the
    variable's value) so tests can flip faults with [Unix.putenv]. *)

type t =
  | Exhaust_ilp
  | Exhaust_fds
  | Exhaust_heuristic
  | Exhaust_hungarian
  | Crash_worker of int
  | Corrupt_cache
  | Kill_domain
  | Stall_conn
  | Wal_torn
  | Hold_dispatch

val parse : string -> (t list, string) result
(** Parse a comma-separated [MCS_FAULT] value.  The empty string parses to
    [].  Armed counts ([exhaust-ilp:2]) parse to the same constructors as
    their bare forms — arming is runtime state, not identity. *)

val to_string : t -> string

val reset : unit -> unit
(** Forget the memoized armed-shot counters: the next injection-point hit
    re-reads [MCS_FAULT] and re-arms counts from scratch.  Tests that flip
    the variable back to a previously-seen value need this — when no
    injection point runs in between, the memo cannot tell the sequence
    [A → "" → A] apart from an unchanged [A], so a consumed count would
    otherwise stay consumed. *)

val active : unit -> t list
(** Faults currently enabled via [MCS_FAULT].  An unparseable value
    disables all faults (and logs a warning once per distinct value) —
    fault injection must never be able to crash a flow by itself. *)

val exhaust_ilp : unit -> Budget.exhausted option
val exhaust_fds : unit -> Budget.exhausted option
val exhaust_heuristic : unit -> Budget.exhausted option
val exhaust_hungarian : unit -> Budget.exhausted option
(** [Some e] when the corresponding exhaustion fault is enabled. *)

val crash_workers : unit -> int
(** Number of pool jobs to crash on first attempt; 0 when disabled. *)

val corrupt_cache : unit -> bool

val kill_domain : unit -> bool
(** Consume one kill-domain shot: [true] means the calling worker domain
    should die now. *)

val stall_conn : unit -> bool
(** Consume one stall-conn shot: [true] means the connection being
    accepted should be treated as silent (never readable). *)

val wal_torn : unit -> bool
(** Consume one wal-torn shot: [true] means the WAL append in progress
    should write a torn record. *)

val hold_dispatch : unit -> bool
(** Consume one hold-dispatch shot: [true] means the server being
    created should never dispatch on its own (shutdown still drains). *)
