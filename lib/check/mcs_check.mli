(** Static analysis over flow artifacts and results.

    Each checker turns a legality rule of the dissertation into executable
    form and reports violations as structured {!Mcs_flow.Diag.t} values
    naming the offending operations, control steps and partitions:

    - schedules: precedence (with chaining and stage-fit legality),
      recursive-edge maximum time constraints, and functional-unit limits
      (a sound clique lower bound on the group wheels, so conditional
      sharing never causes a false positive);
    - connections: per-chip pin budgets, port capability, sub-bus slice
      fit (Ch. 6 rules), and — given the schedule — conflict freedom:
      Theorem 3.1 replay for wire bundles, the one-value-per-bus-per-step
      cap for shared buses (Ch. 4) and compatibility-clique validity
      (Ch. 5), and per-slice occupancy for sub-buses;
    - results: the claimed pin/FU tables agree with what the artifacts
      imply.

    The Ch. 5 flow {e derives} resources instead of respecting the
    constraint tables, so its FU-limit and pin-budget comparisons are
    replaced by implied-versus-claimed consistency checks.

    [Mcs_check] depends on [Mcs_flow], never the reverse: callers inject
    {!artifact_checker}/{!check_result} into {!Mcs_flow.Flow.run}, or use
    {!run} which does so for them. *)

open Mcs_cdfg
module Diag := Mcs_flow.Diag

module Bottleneck = Bottleneck
(** Typed bottleneck evidence for the {!Mcs_refine} driver. *)

val level_of_string : string -> Mcs_flow.Pass.level
(** [""], ["off"], ["0"], ["none"] → [Off]; ["strict"], ["2"] → [Strict];
    anything else (including ["warn"], ["check"], ["on"], ["1"]) → [Warn]. *)

val level_of_env : unit -> Mcs_flow.Pass.level
(** {!level_of_string} on [MCS_CHECK] ([Off] when unset). *)

val schedule_diags :
  ?check_fus:bool ->
  Constraints.t ->
  phase:string ->
  Mcs_sched.Schedule.t ->
  Diag.t list
(** Structured mirror of {!Mcs_sched.Schedule.verify} plus, when
    [check_fus] (default [true]), the functional-unit limit check against
    the constraint tables. *)

val connection_diags :
  ?enforce_budgets:bool ->
  Cdfg.t ->
  Constraints.t ->
  phase:string ->
  Mcs_flow.Artifact.connection ->
  Diag.t list
(** Schedule-independent structure checks: pin budgets (unless
    [enforce_budgets] is [false], as for Ch. 5), bus port capability, and
    the sub-bus fit rules. *)

val occupancy_diags :
  ?clique_semantics:bool ->
  Cdfg.t ->
  Mcs_sched.Schedule.t ->
  phase:string ->
  Mcs_flow.Artifact.connection ->
  Diag.t list
(** Conflict freedom given the schedule: Theorem 3.1 replay for bundles;
    for buses and sub-bus slices, any two transfers sharing a carrier in
    one control-step group must move the same value in the same step (or
    be mutually exclusive).  [clique_semantics] reports bus sharing
    violations as [Clique_invalid] (Ch. 5) instead of [Bus_conflict]. *)

val artifact_checker :
  flow:Mcs_flow.Flow.name ->
  Cdfg.t ->
  Module_lib.t ->
  Constraints.t ->
  Mcs_flow.Artifact.t Mcs_flow.Pass.checker
(** The per-phase checker to inject into {!Mcs_flow.Flow.run}: schedules
    and connection structures are audited as soon as a phase produces
    them. *)

val check_result :
  Cdfg.t ->
  Module_lib.t ->
  Constraints.t ->
  Mcs_flow.Flow.result ->
  Diag.t list
(** Everything, on the assembled result: schedule legality, connection
    structure, conflict freedom, claimed-versus-recomputed pin and FU
    tables ([Result_mismatch]), and — on completed results — agreement
    between the [degraded] step list and the [Degraded] diagnostics. *)

val run :
  ?level:Mcs_flow.Pass.level ->
  ?policy:Mcs_flow.Flow.policy ->
  Mcs_flow.Flow.name ->
  Mcs_flow.Flow.spec ->
  (Mcs_flow.Flow.result, Diag.t) result
(** {!Mcs_flow.Flow.run} with {!artifact_checker} and {!check_result}
    injected.  [level] defaults to {!level_of_env}, so
    [MCS_CHECK=warn|strict] turns checking on for any caller that routes
    through here (the CLI, the engine, the benches). *)
