(** The unit of work of the design-space exploration engine.

    A job names one synthesis invocation — a design, one of the five
    dissertation flows, an initiation rate and (for the schedule-first
    flow) a pipe length — in a {e canonical} textual encoding.  The
    encoding is the job's identity everywhere: {!Pool} keys its retry
    strikes on it, {!Cache} digests it into a content address, and the
    [mcs-dse/1] report quotes it verbatim, so {!to_string}/{!of_string}
    must round-trip exactly (a qcheck property in [test/suite_engine.ml]
    pins this down). *)

(** One flow per evaluated configuration of the dissertation: Chapter 3
    (simple partitionings), Chapter 4 in both port modes, Chapter 5
    (schedule-first) and Chapter 6 (sub-bus sharing). *)
type flow = Ch3 | Ch4_unidir | Ch4_bidir | Ch5 | Ch6

val flow_to_string : flow -> string
(** ["ch3"], ["ch4-unidir"], ["ch4-bidir"], ["ch5"], ["ch6"]. *)

val flow_of_string : string -> (flow, string) result
val all_flows : flow list

(** Which design a job runs on.  [Named] designs come from
    {!named_designs}; the [Random]/[Random_simple] forms embed their
    generator parameters so a worker (or a cold cache) can rebuild the
    identical CDFG from the encoding alone. *)
type design_spec =
  | Named of string  (** only [A-Za-z0-9_-]+, see {!named_designs} *)
  | Random of { seed : int; n_partitions : int; n_ops : int }
  | Random_simple of { seed : int; n_partitions : int; ops_per_chip : int }

type t = private {
  design : design_spec;
  flow : flow;
  rate : int;
  pipe_length : int option;
      (** [Some _] only when [flow = Ch5]; [None] means "use the critical
          path", like the CLI default *)
  refine : int;
      (** iteration cap for the post-flow {!Mcs_refine} stage; 0 = off.
          Part of the identity (a refined result is different work), but
          encoded as a trailing [|refN] field {e only when nonzero}, so
          every pre-refinement encoding and cache address is unchanged *)
}

val make :
  ?pipe_length:int ->
  ?refine:int ->
  design:design_spec ->
  flow:flow ->
  rate:int ->
  unit ->
  t
(** Canonicalizing constructor: [pipe_length] is dropped unless the flow
    is {!Ch5}, so equal work always has an equal encoding.
    @raise Invalid_argument on a nonpositive rate or pipe length, a
    negative refine cap, or on a [Named] design whose name is empty or
    uses characters outside [A-Za-z0-9_-]. *)

val design_to_string : design_spec -> string
val design_of_string : string -> (design_spec, string) result
(** The design field of the canonical encoding, e.g. [ar-general] or
    [random:7:3:14]. *)

val to_string : t -> string
(** Canonical encoding, e.g.
    [mcs-job/1|ar-general|ch5|r4|pl8] or
    [mcs-job/1|random:7:3:14|ch4-bidir|r3|pl-]. *)

val of_string : string -> (t, string) result
val equal : t -> t -> bool

val hash : t -> string
(** Short (12 hex chars) content digest of the canonical encoding; used
    to tag structured log lines and trace events with a job identity. *)

val pp : Format.formatter -> t -> unit
(** Short human form, e.g. [ar-general ch5 r4 pl8]. *)

val grid :
  designs:design_spec list ->
  flows:flow list ->
  rates:int list ->
  ?pipe_lengths:int list ->
  ?refine:int ->
  unit ->
  t list
(** The cross product in deterministic order (designs outermost, then
    flows, rates, pipe lengths).  [pipe_lengths] applies to {!Ch5} jobs
    only — other flows contribute one job per (design, flow, rate). *)

val named_designs : (string * (unit -> Mcs_cdfg.Benchmarks.design)) list
(** The bundled designs, by CLI name (ar-simple, ar-general, elliptic,
    cond-demo, subbus-demo). *)

val resolve : design_spec -> (Mcs_cdfg.Benchmarks.design, string) result
(** Materialize the design a job refers to.  Random specs get generous
    pin budgets (the property tests exercise flow determinism, not
    feasibility hunting) and the adverse chaining-free
    {!Mcs_cdfg.Random_design.mlib}. *)
