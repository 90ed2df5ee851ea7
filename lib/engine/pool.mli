(** Running jobs: {!exec} runs one {!Job} in the calling domain, and
    {!run} fans a batch of jobs out over {!Supervisor} worker domains and
    collects {!Outcome}s.

    Results come back in {e submission order}, regardless of completion
    order or worker count: [run ~jobs:4] and [run ~jobs:1] return the
    same answers for deterministic flows (a qcheck property in
    [test/suite_engine.ml], and the byte-identical-report acceptance
    check of the [dse] CLI).  Only the per-job [solver] effort stats may
    differ: every domain shares the process-wide warm-start registry
    ({!Mcs_ilp.Warm}), so how many bases a job certifies depends on what
    ran before it.

    With a {!Cache}, hits skip execution entirely and fresh settled
    results are stored back.  Counters in {!Mcs_obs.Metrics}:
    [engine.pool.jobs]; [engine.pool.crashes] and [engine.pool.timeouts],
    the jobs reported [Crashed] or [Timed_out]; [engine.pool.retries],
    the second attempts; and [engine.jobs.executed], the flows actually
    run. *)

val exec : ?policy:Mcs_flow.Flow.policy -> Job.t -> Outcome.t
(** Run one job in the calling domain.  Flow rejections ([Error],
    [Invalid_argument], [Failure] — including an unknown design name)
    become [Infeasible]; any other exception becomes [Crashed].  Never
    raises.  [policy] (default {!Mcs_flow.Flow.default_policy}) bounds
    the flow and its refinement — e.g. a per-request deadline budget.
    The outcome's [solver] stats are this domain's share of the
    certification counters across the run. *)

val exec_diag :
  ?policy:Mcs_flow.Flow.policy -> Job.t -> Outcome.t * Mcs_flow.Diag.t option
(** Like {!exec} but also returns the typed diagnostic when the flow was
    rejected by the pass pipeline ([Error dg] — e.g. a budget
    [Exhausted]), so servers can forward structured failure causes
    instead of re-parsing the outcome's message string. *)

val run :
  ?jobs:int ->
  ?timeout:float ->
  ?cache:Cache.t ->
  ?worker:(Job.t -> Outcome.t) ->
  ?retry:bool ->
  ?policy:Mcs_flow.Flow.policy ->
  Job.t list ->
  Outcome.t list
(** [run ~jobs:n js] runs the jobs not answered by [cache] as one
    single-entry batch each on the {!Supervisor}, at most [n] (default
    1) at a time, and blocks until every job has an outcome.  The calling
    thread drives {!Supervisor.check} and, between ticks, runs queued
    jobs itself ({!Supervisor.help}) beside [n - 1] worker domains — so
    [run ~jobs:1] spawns no domain at all.  With a [timeout] the caller
    only supervises, over [n] worker domains.  The worker domains are
    joined before [run] returns, except a stalled one, which is left
    running and never joined.

    Each distinct design of the jobs to run is materialized once per
    call ({!Job.resolve}, in the calling domain, before any job starts)
    and the read-only {!Mcs_cdfg.Benchmarks.design} is shared by every
    job and domain of that call; a job whose design fails to resolve
    ends as it would under {!exec}.  The table is scoped to the call:
    nothing is cached across calls, so a long-lived caller (the daemon)
    holds no designs between sweeps.  With a custom [worker] no design
    is resolved here.

    [policy] is a template: each job runs under a fresh copy of its
    budget ({!Mcs_resilience.Budget.restart}).  [worker] (default {!exec}
    with that policy) is what each job runs — overridable so tests can
    simulate failing workers.  A worker that raises yields a [Crashed]
    outcome for its job; the other jobs carry on.

    [timeout] (seconds; a non-positive one sets none) is the stall
    limit: a job still running after that long is reported [Timed_out],
    and its domain is abandoned so the sweep finishes promptly.  A worker domain that dies under a job with
    no limit set reports the job [Crashed].

    [retry] (default [false], so execution counts stay exactly
    reproducible) gives each job one second attempt after a crash or a
    stall, in degraded mode: the budget is halved
    ({!Mcs_resilience.Budget.halve} on [policy]'s budget, or on a
    deadline of [timeout] when that budget sets no limit), so the flows'
    degradation ladders get a real chance to land a result inside the
    original allowance.
    Both failures count as strikes in one {!Supervisor.Strikes} ledger;
    a job at the limit keeps its failed outcome.  Counter:
    [engine.pool.retries]. *)
