(** Process-wide registry of solver counters, gauges and histograms.

    Instruments the hot loops of the synthesis flows (simplex pivots,
    branch-and-bound nodes, force evaluations, augmenting paths, ...).
    Instruments are registered once at module-initialization time and
    updated in place, so the hot-path cost of an update is a single
    unboxed mutation — no allocation, no formatting, no branching on an
    "enabled" flag.  Reading the registry ([snapshot], [pp_summary]) is
    the only place any work happens.

    Every instrument is sharded per domain ([Domain.DLS]): each domain
    updates only its own shard, lock-free, and a read merges every shard
    (including those of domains that have exited), so no update is lost
    with any number of domains.  Counters and histograms merge by sum; a
    gauge reads the largest value any domain wrote, which is exact for a
    peak ({!set_max}) and for a level ({!set}) written by one domain, as
    the server's queue gauges are.  {!count_local} reads the calling
    domain's shard alone — the exact share of work done on this domain,
    which is how a job running on a worker domain measures its own
    solver effort while other domains run other jobs. *)

type counter
(** Monotonically increasing event count. *)

type gauge
(** Last-written (or maximum) value of some quantity. *)

type histogram
(** Value distribution over fixed integer bucket boundaries. *)

val counter : string -> counter
(** [counter name] registers (or retrieves) the counter called [name].
    Registration is idempotent: the same name always yields the same
    instrument. *)

val gauge : string -> gauge

val histogram : string -> buckets:int array -> histogram
(** [histogram name ~buckets] registers a histogram whose bucket upper
    bounds are [buckets] (strictly increasing); an implicit overflow
    bucket catches larger observations.  Raises [Invalid_argument] if
    [buckets] is empty, not increasing, or disagrees with a previous
    registration under the same name. *)

val incr : ?n:int -> counter -> unit

val count : counter -> int
(** The total over every domain. *)

val count_local : counter -> int
(** The calling domain's share only: what this domain has counted since
    it started (or since the last {!reset}). *)

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** [set_max g v] raises [g] to [v] if [v] is larger (peak tracking). *)

val observe : histogram -> int -> unit

(** Read-only view of one instrument, for reports. *)
type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : int array;
      counts : int array;  (** length [Array.length bounds + 1]; last = overflow *)
      sum : int;
      total : int;
    }

val histogram_quantile : value -> float -> float option
(** [histogram_quantile v q] estimates the [q]-quantile (0 ≤ q ≤ 1,
    clamped) of a [Histogram] value by linear interpolation inside the
    bucket holding the q-th observation; the open overflow bucket clamps
    to the last finite bound.  [None] for empty histograms and
    non-histogram values.  Reports use it to export p50/p95 per
    experiment rather than only sums. *)

val snapshot : unit -> (string * value) list
(** All registered instruments, sorted by name. *)

val reset : unit -> unit
(** Zero every registered instrument on every domain (registrations
    persist).  Run reports call this before a flow so counts are per-run.
    Meant for quiescent points: an update racing a reset on another
    domain may survive it. *)

val pp_summary : Format.formatter -> unit -> unit
(** Table of every instrument with a nonzero value. *)
