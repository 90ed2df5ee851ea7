(** The unified synthesis flow API.

    All four dissertation flows — Ch. 3 pin-constrained scheduling on a
    simple partitioning, Ch. 4 connection-first, Ch. 5 schedule-first,
    Ch. 6 sub-bus sharing — run through one entry point ({!run}) on one
    input shape ({!spec}) and produce one result shape ({!result}).  Each
    flow is decomposed into phases executed by the {!Pass} manager, so
    every run gets spans, metrics, typed diagnostics and (when a checker
    is injected, see {!Mcs_check}) static analysis between phases and on
    the final result — uniformly, with no per-flow glue in the callers. *)

open Mcs_cdfg

type name = Ch3 | Ch4 | Ch5 | Ch6

val all : name list
val name_to_string : name -> string
val name_of_string : string -> (name, string) result

type spec = {
  tag : string;  (** design name, for reports *)
  cdfg : Cdfg.t;
  mlib : Module_lib.t;
  cons : Constraints.t;
  rate : int;
  pipe_length : int option;
      (** Ch. 5 target pipe length (default: the critical path); ignored
          by the other flows *)
  mode : Mcs_connect.Connection.mode;
}

type policy = {
  budget : Mcs_resilience.Budget.t;
      (** shared by every solver the flow invokes (scheduling, pin ILP,
          connection search, matchings); one deadline and one set of
          counters for the whole run *)
  fallback : bool;
      (** engage the degradation ladder on budget exhaustion (default
          [true]); with [false], exhaustion is a [Diag.Exhausted] error *)
  arith : Mcs_ilp.Fsimplex.arith;
      (** arithmetic of every ILP the flow (and refinement) solves;
          [--arith] on the CLI *)
}

val default_policy : policy
(** Unlimited budget, [fallback = true], [arith] from
    {!Mcs_ilp.Fsimplex.arith_of_env} (read once, at startup) — with no
    budget and no injected fault nothing ever exhausts, so the ladder
    never engages and results are bit-identical to a policy-less run. *)

val spec_of_design :
  ?pipe_length:int ->
  ?mode:Mcs_connect.Connection.mode ->
  flow:name ->
  Benchmarks.design ->
  rate:int ->
  spec
(** Builds the spec the paper's experiments use for [flow] on a bundled
    benchmark: the port mode and its pin budgets, and the design's minimal
    functional units.  This is the one place a flow name gets its port
    mode.  Ch. 3 is always unidirectional (dedicated ports) and Ch. 6
    always bidirectional (its experiments' assumption); [mode] is ignored
    for them.  Ch. 4 defaults to unidirectional and Ch. 5 to bidirectional
    (the paper's Ch. 5 tables for the AR filter); [mode] overrides both. *)

type result = {
  flow : name;
  tag : string;
  rate : int;
  mode : Mcs_connect.Connection.mode;
  schedule : Mcs_sched.Schedule.t;
  connection : Artifact.connection;
  pins : (int * int) list;  (** per partition, complete over [0..n] *)
  fus : ((int * string) * int) list;
      (** per (partition, optype): the constraint tables' allocation for
          the resource-constrained flows, FDS-implied counts for Ch. 5 *)
  pipe_length : int;
  attempts : int;  (** retry-loop iterations the flow needed *)
  diags : Diag.t list;
      (** diagnostics collected during the run; under {!Pass.Warn} this
          includes checker violations (severity [Error]) that did not
          abort the flow *)
  degraded : string list;
      (** degradation-ladder steps taken, in order; empty for a
          full-quality result.  Each step is also a [Warning]-severity
          [Diag.Degraded] diagnostic on [diags]. *)
}

val pins_of : n_partitions:int -> Artifact.connection -> (int * int) list
(** Recompute the per-partition pin table from the connection structure
    alone (via {!Mcs_connect.Pins}, the single source of truth): wire
    bundles by owner, shared buses by port width, sub-buses by port
    commitment. *)

val fus_of_constraints :
  Cdfg.t -> Module_lib.t -> Constraints.t -> ((int * string) * int) list
(** The constraint tables' functional-unit allocation as a per
    [(partition, optype)] list (only nonzero entries). *)

val static_baseline : spec -> result -> int option
(** The paper's Ch. 4/Ch. 6 comparison baseline: the pipe length of the
    result's connection scheduled again with static assignment (every
    transfer on its initially assigned bus, or sub-bus slice) from the
    result's [Buses {conn; initial}] (Ch. 4) or [Subbuses {buses;
    initial}] (Ch. 6).  [None] when that schedule fails, and for every
    other flow or connection shape (Ch. 3, Ch. 5, a dedicated-bus
    fallback).  [spec] must be the one the result was synthesized from.

    No flow computes it: {!run} leaves it to the reports that print it
    (the CLI, the bench tables and the AR-filter example), so the [dse]
    and [mcs-serve] jobs, which never read it, never pay for it.  It runs
    unbudgeted, in spans [flow.ch4.baseline] / [flow.ch6.baseline] of
    its own.  So under [--deadline-ms] the CLI's baseline runs after the
    flow, outside the flow's budget, and a budgeted run reports the same
    baseline as an unbudgeted run over the same connection: for Ch. 6 the
    winning cap's (one baseline run, however many caps the sweep tried). *)

val pins_total : result -> int
val fus_total : result -> int
val clean : result -> bool
(** No [Error]-severity diagnostic on the result. *)

val is_degraded : result -> bool
(** At least one degradation-ladder step was taken. *)

val run :
  ?level:Pass.level ->
  ?checker:Artifact.t Pass.checker ->
  ?check_result:(result -> Diag.t list) ->
  ?policy:policy ->
  name ->
  spec ->
  (result, Diag.t) Stdlib.result
(** Run one flow through the pass manager.  [checker] audits each phase's
    artifact, [check_result] the assembled result; both run only when
    [level] is [Warn] or [Strict] (default [Off]).  Under [Strict] the
    first violation anywhere turns the run into [Error]; under [Warn]
    violations are collected on [result.diags].

    [policy] bounds the run and controls the degradation ladder.  When the
    shared budget exhausts (or a {!Mcs_resilience.Fault} injects
    exhaustion), each flow steps down — Ch. 3: pin-checked scheduling to
    unchecked scheduling with Theorem 3.1 dedicated buses; Ch. 4:
    heuristic search (slot caps from the rate down) to dedicated buses;
    Ch. 5: force-directed to list scheduling, merged to unmerged cliques;
    Ch. 6: sub-bus sweep to best-completed-cap to dedicated buses — with
    every step on [result.degraded].  The invariant: the caller always
    gets a (possibly degraded) result whose artifacts verify, or a typed
    diagnostic; never an exception, never an unbounded run. *)
