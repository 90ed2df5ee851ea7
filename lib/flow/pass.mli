(** The pass manager: every flow phase runs through {!phase}, which gives
    it a {!Mcs_obs} span and counter automatically, folds recoverable
    raises ([Invalid_argument]/[Failure], and
    {!Mcs_resilience.Budget.Out_of_budget} as a [Diag.Exhausted]) into
    {!Diag.t} errors, offers the
    phase's artifact to an injected checker (and, under {!Strict}, aborts
    the flow on the first violation).

    The checker is {e injected} (typically {!Mcs_check}'s artifact
    checker): [Mcs_flow] itself has no opinion about legality, so the
    dependency points strictly from the checker to the flows. *)

(** How much the injected checker is allowed to interfere. *)
type level =
  | Off  (** checker not invoked *)
  | Warn  (** violations recorded on the result's diagnostics *)
  | Strict  (** the first [Error]-severity violation aborts the flow *)

type 'a checker = phase:string -> 'a -> Diag.t list

type 'a t
(** Per-run pass state for a flow whose phases produce ['a] artifacts. *)

val create :
  ?level:level ->
  ?checker:'a checker ->
  flow:string ->
  unit ->
  'a t
(** [level] defaults to [Off]. *)

val level : _ t -> level

val phase :
  'a t ->
  string ->
  ?artifact:('b -> 'a) ->
  (unit -> ('b, Diag.t) result) ->
  ('b, Diag.t) result
(** [phase t name f] runs [f] under a span named [flow.<flow>.<name>].
    When [f] succeeds and [artifact] is given, the artifact is checked (per
    [level]).  A checker violation under [Strict] turns the phase's [Ok]
    into [Error] and marks {!check_failed}, so retry loops know to stop
    rather than try the next design point. *)

val attempt : _ t -> unit
(** Count one attempt (one retry-loop iteration). *)

val attempts : _ t -> int

val record : _ t -> Diag.t -> unit
(** Append a diagnostic to the run's collected list. *)

val diags : _ t -> Diag.t list
(** Collected diagnostics, in emission order. *)

val check_failed : _ t -> bool
(** True once a [Strict] checker violation aborted a phase. *)

val degrade : _ t -> phase:string -> string -> unit
(** Record one degradation-ladder step: the note joins {!degraded} and a
    [Warning]-severity [Diag.Degraded] diagnostic joins {!diags}. *)

val degraded : _ t -> string list
(** Degradation steps taken, in emission order. *)
