(** The result of one {!Job}, in a form every engine layer shares.

    An outcome deliberately carries {e no} wall-clock time or other
    environment-dependent data: the [mcs-dse/1] report must be
    byte-identical whichever worker count (or cache state) produced it,
    so timing lives with the {!Pool} and the caller, never here.  The
    JSON codec below is the on-disk format of {!Cache} entries and the
    payload of daemon replies. *)

type status =
  | Feasible
  | Infeasible of string
      (** the flow rejected the point (returned [Error] or raised
          [Invalid_argument]/[Failure], the flows' input-rejection
          convention) *)
  | Crashed of string
      (** the worker died (signal, uncaught exception, unparsable
          reply): the point failed, the sweep survives *)
  | Timed_out

(** Verdict of the {!Mcs_check} static analysis on a feasible result. *)
type check = Clean | Violations of int  (** count of error diagnostics *)

(** How the job's ILP solves ran: the arithmetic mode
    ({!Mcs_ilp.Fsimplex.arith_to_string}) and the job's own share of the
    certification counters, so a degraded-to-rational solve is visible in
    the [mcs-dse/1] report it lands in.  Counts are per job (each
    domain's counter shard), and IEEE arithmetic plus fixed pivot
    tie-breaks pin a solve's pivot sequence; no solver state outlives a
    job, so the counts are the same whatever ran before the job or beside
    it. *)
type solver = {
  arith : string;
  certify_ok : int;
  certify_fail : int;
  arith_fallbacks : int;
}

(** One {!Mcs_refine} iteration, as cached: what move ran, the objective
    it reached (absent when the move failed to produce a candidate),
    whether the incumbent took it, and the simplex pivots its budget
    slice spent. *)
type refine_step = {
  action : string;
  objective : int option;
  step_accepted : bool;
  step_pivots : int;
}

(** Telemetry of the job's optional refinement stage ({!Job.refine}
    [> 0]): start/end objective under {!Mcs_refine.objective}, accepted
    iteration count, and how the loop stopped. *)
type refine = {
  steps : refine_step list;
  objective_start : int;
  objective_end : int;
  accepted : int;
  fixed_point : bool;
  refine_exhausted : bool;
}

type t = {
  job : Job.t;
  status : status;
  pins : (int * int) list;  (** per partition; [[]] unless [Feasible] *)
  pipe_length : int;  (** 0 unless [Feasible] *)
  fu_count : int;
      (** total functional units: the constraint tables' allocation for
          the resource-constrained flows, the FDS-implied counts for
          Chapter 5; 0 unless [Feasible] *)
  check : check option;
      (** [None] when the job ran with checking off ([MCS_CHECK] unset);
          cached in [mcs-dse/1] reports like every other field *)
  degraded : string list;
      (** the flow's degradation-ladder steps ({!Mcs_flow.Flow.result}
          [degraded]); empty for a full-quality result.  Serialized only
          when nonempty, and absent parses as empty, so pre-resilience
          cache entries and reports stay valid *)
  solver : solver option;
      (** [None] for synthetic workers and pre-hybrid cache entries
          (absent in the encoding parses as [None]) *)
  refine : refine option;
      (** [None] when the job ran without a refinement stage
          ([Job.refine = 0], and every pre-refinement cache entry) *)
}

val pins_total : t -> int
val is_feasible : t -> bool
val equal : t -> t -> bool

val status_label : status -> string
(** ["feasible"], ["infeasible"], ["crashed"], ["timeout"]. *)

val check_label : check -> string
(** ["clean"] or ["violations:<n>"]. *)

val to_json : t -> Mcs_obs.Report_json.t
val of_json : Mcs_obs.Report_json.t -> (t, string) result

val to_string : t -> string
(** Single-line JSON ({!to_json} compactly printed). *)

val of_string : string -> (t, string) result
