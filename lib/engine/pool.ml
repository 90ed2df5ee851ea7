module C = Mcs_connect.Connection
module F = Mcs_flow.Flow
module Diag = Mcs_flow.Diag
module M = Mcs_obs.Metrics

let c_jobs = M.counter "engine.pool.jobs"
let c_crashes = M.counter "engine.pool.crashes"
let c_timeouts = M.counter "engine.pool.timeouts"
let c_retries = M.counter "engine.pool.retries"
let c_executed = M.counter "engine.jobs.executed"

(* ---- in-process execution ---- *)

let feasible ?refine job ~pins ~pipe_length ~fu_count ~check ~degraded ~solver
    =
  {
    Outcome.job;
    status = Outcome.Feasible;
    pins;
    pipe_length;
    fu_count;
    check;
    degraded;
    solver;
    refine;
  }

let settled ?solver job status =
  {
    Outcome.job;
    status;
    pins = [];
    pipe_length = 0;
    fu_count = 0;
    check = None;
    degraded = [];
    solver;
    refine = None;
  }

(* The job's own share of the hybrid-arithmetic counters: deltas of the
   executing domain's counter shard across the flow run, so jobs running
   at the same time on other domains never leak into each other's
   stats. *)
let c_certify_ok = M.counter "ilp.certify.ok"
let c_certify_fail = M.counter "ilp.certify.fail"
let c_arith_fallbacks = M.counter "bb.arith_fallbacks"

let with_solver_stats ~arith f =
  let ok0 = M.count_local c_certify_ok
  and fail0 = M.count_local c_certify_fail
  and fb0 = M.count_local c_arith_fallbacks in
  let r = f () in
  let stats =
    {
      Outcome.arith = Mcs_ilp.Fsimplex.arith_to_string arith;
      certify_ok = M.count_local c_certify_ok - ok0;
      certify_fail = M.count_local c_certify_fail - fail0;
      arith_fallbacks = M.count_local c_arith_fallbacks - fb0;
    }
  in
  (r, Some stats)

(* Every job routes through the unified flow API; the checker level comes
   from MCS_CHECK (one process, so a sweep's verdicts are uniform), and
   its verdict rides on the outcome into caches and mcs-dse/1 reports.
   [policy] (a sweep's --deadline-ms, the server's per-request deadline)
   bounds the flow and refinement.  [resolve] materializes the job's
   design: {!Job.resolve}, or a sweep's shared table (see [run]). *)
let exec_diag_raw ~resolve ?(policy = F.default_policy) (job : Job.t) =
  M.incr c_executed;
  match resolve job.Job.design with
  | Error m -> (settled job (Outcome.Infeasible m), None)
  | Ok d -> (
      let flow, mode =
        match job.Job.flow with
        | Job.Ch3 -> (F.Ch3, None)
        | Job.Ch4_unidir -> (F.Ch4, Some C.Unidir)
        | Job.Ch4_bidir -> (F.Ch4, Some C.Bidir)
        | Job.Ch5 -> (F.Ch5, None)
        | Job.Ch6 -> (F.Ch6, None)
      in
      let spec =
        F.spec_of_design ?pipe_length:job.Job.pipe_length ?mode ~flow d
          ~rate:job.Job.rate
      in
      let level = Mcs_check.level_of_env () in
      let run, solver =
        with_solver_stats ~arith:policy.F.arith (fun () ->
            Mcs_check.run ~level ~policy flow spec)
      in
      match run with
      | Error dg ->
          ( settled ?solver job (Outcome.Infeasible (Diag.message dg)),
            Some dg )
      | Ok r ->
          (* The optional refinement stage: anytime-improve the result
             under the same policy budget (so a per-request deadline
             bounds refinement too), then report the incumbent.  The
             telemetry rides on the outcome into caches and reports. *)
          let r, refine =
            if job.Job.refine <= 0 then (r, None)
            else
              let module R = Mcs_refine.Refine in
              let before = R.objective r in
              let out = R.improve ~max_iters:job.Job.refine ~policy spec r in
              let steps =
                List.map
                  (fun (it : R.iteration) ->
                    {
                      Outcome.action = it.R.action;
                      objective = it.R.objective_after;
                      step_accepted = it.R.accepted;
                      step_pivots = it.R.pivots;
                    })
                  out.R.iterations
              in
              ( out.R.result,
                Some
                  {
                    Outcome.steps;
                    objective_start = before;
                    objective_end = R.objective out.R.result;
                    accepted =
                      List.length
                        (List.filter (fun (it : R.iteration) -> it.R.accepted)
                           out.R.iterations);
                    fixed_point = out.R.fixed_point;
                    refine_exhausted = out.R.exhausted;
                  } )
          in
          let check =
            match level with
            | Mcs_flow.Pass.Off -> None
            | Mcs_flow.Pass.Warn | Mcs_flow.Pass.Strict ->
                let n = List.length (List.filter Diag.is_error r.F.diags) in
                Some (if n = 0 then Outcome.Clean else Outcome.Violations n)
          in
          ( feasible ?refine job ~pins:r.F.pins ~pipe_length:r.F.pipe_length
              ~fu_count:(F.fus_total r) ~check ~degraded:r.F.degraded ~solver,
            None ))

let exec_diag_in ~resolve ?policy job =
  try exec_diag_raw ~resolve ?policy job with
  | Invalid_argument m | Failure m ->
      (settled job (Outcome.Infeasible m), None)
  | e -> (settled job (Outcome.Crashed (Printexc.to_string e)), None)

let exec_diag ?policy job = exec_diag_in ~resolve:Job.resolve ?policy job
let exec ?policy job = fst (exec_diag ?policy job)

(* One design per sweep: every distinct design of the jobs [todo] is
   materialized once, in the calling domain, and the read-only result is
   shared by all of that sweep's jobs and domains.  An exception from
   [Job.resolve] is kept and re-raised in each job that asks, so it ends
   the same way as when the job resolved its own design.  The table lives
   as long as the returned function, which [run] drops on return. *)
let sweep_resolver joblist todo =
  let table = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let spec = joblist.(i).Job.design in
      if not (Hashtbl.mem table spec) then
        Hashtbl.add table spec
          (match Job.resolve spec with d -> Ok d | exception e -> Error e))
    todo;
  fun spec ->
    match Hashtbl.find table spec with Ok d -> d | Error e -> raise e

(* ---- the sweep: one single-entry batch per job on the supervisor ---- *)

(* How often the calling thread ticks the supervisor while it waits:
   stall detection and respawns happen on a tick, and the last
   completion is noticed within one. *)
let tick_s = 0.001

(* With worker domains running, every major GC cycle is a stop-the-world
   handshake between them, and the float-first simplex's Bigarray buffers
   count as custom-block memory, which at the default ratio starts a
   cycle every few hundred kilobytes of tableau snapshots in a
   small-heap process.  On the random-mix batches that made the two-domain
   tail worse than forked workers (EXPERIMENTS.md, E-DSE executor); ten
   times the heap instead keeps a sweep to a handful of cycles.  Scoped
   to the sweep because the setting is process-wide. *)
let custom_major_ratio = 1000

let with_sweep_gc f =
  let ratio = (Gc.get ()).Gc.custom_major_ratio in
  let set r = Gc.set { (Gc.get ()) with Gc.custom_major_ratio = r } in
  set (max ratio custom_major_ratio);
  Fun.protect ~finally:(fun () -> set ratio) f

(* A degraded attempt (a retry) gets half the budget, so the flows'
   ladders have room to land a result inside the original allowance;
   when the policy sets no limit the halved allowance is the stall
   limit's.  Every attempt gets a fresh budget of its own. *)
let attempt_policy ?(policy = F.default_policy) ~stall_s ~degraded () =
  let module B = Mcs_resilience.Budget in
  match stall_s with
  | Some s when degraded && not (B.is_limited policy.F.budget) ->
      { policy with F.budget = B.halve (B.make ~deadline_ms:(s *. 1000.) ()) }
  | _ ->
      let fresh = if degraded then B.halve else B.restart in
      { policy with F.budget = fresh policy.F.budget }

(* Run the jobs [todo] (indices into [joblist]) on supervised domains,
   filling in [results].  One strike ledger covers both ways a job
   fails: a stall (the supervisor strikes it and requeues it) and a
   crashed outcome (struck here and re-run on the spot).  Below the limit
   the job runs again in degraded mode; at the limit its failure stands.
   Without [retry] the first strike is the limit. *)
let supervise ~jobs ~stall_s ?worker ~retry ?policy joblist results todo =
  let work =
    match worker with
    | Some w -> fun ~degraded:_ job -> w job
    | None ->
        let resolve = sweep_resolver joblist todo in
        fun ~degraded job ->
          fst
            (exec_diag_in ~resolve
               ~policy:(attempt_policy ?policy ~stall_s ~degraded ())
               job)
  in
  let key i = Job.to_string joblist.(i) in
  let strikes =
    Supervisor.Strikes.create ~max_strikes:(if retry then 2 else 1) ()
  in
  let sup = ref None in
  let rec attempt i =
    let job = joblist.(i) in
    let degraded = Supervisor.Strikes.count strikes (key i) > 0 in
    if degraded then begin
      M.incr c_retries;
      if Mcs_obs.Events.on () then
        Mcs_obs.Events.emit ~cat:"pool" "retry"
          ~args:[ ("job", Mcs_obs.Events.Str (Job.hash job)) ]
    end;
    (* The crash-worker fault hits first attempts only. *)
    let o =
      if (not degraded) && Supervisor.take_crash (Option.get !sup) then
        settled job
          (Outcome.Crashed "injected worker crash (crash-worker fault)")
      else
        try work ~degraded job
        with e -> settled job (Outcome.Crashed (Printexc.to_string e))
    in
    match o.Outcome.status with
    | Outcome.Crashed _ -> (
        match Supervisor.Strikes.record strikes (key i) with
        | `Retry _ -> attempt i
        | `Poisoned _ ->
            M.incr c_crashes;
            o)
    | _ -> o
  in
  (* Each result is written once, before the count drops; the atomic
     orders the write before the caller's read. *)
  let remaining = Atomic.make (List.length todo) in
  let settle (i, o) =
    results.(i) <- Some o;
    Atomic.decr remaining
  in
  (* Without a stall limit the calling domain runs jobs too, between
     ticks, and [jobs] counts it: the caller plus [jobs - 1] worker
     domains measured faster than an idle caller plus [jobs] (see
     EXPERIMENTS.md, E-DSE executor).  A stall limit needs a caller that
     is free to enforce it. *)
  let helping = stall_s = None in
  let s =
    Supervisor.create
      ~domains:
        (min (if helping then jobs - 1 else jobs) (List.length todo))
      ~stall_s:(Option.value stall_s ~default:0.0)
      ~strikes ~key
      ~exec:(fun entries e ->
        let i = entries.(e) in
        ( i,
          Mcs_obs.Log.with_field "job" (Job.hash joblist.(i)) (fun () ->
              attempt i) ))
      ~deliver:settle
      (* A job struck out: it stalled past the limit — or, with no limit
         set, its worker domain died under it. *)
      ~on_poisoned:(fun i ~strikes:_ ->
        let status =
          if stall_s = None then Outcome.Crashed "worker domain died"
          else begin
            M.incr c_timeouts;
            Outcome.Timed_out
          end
        in
        settle (i, settled joblist.(i) status))
      ~on_wake:ignore ()
  in
  sup := Some s;
  List.iter (fun i -> ignore (Supervisor.submit s [| i |])) todo;
  while Atomic.get remaining > 0 do
    Supervisor.check s ~now:(Unix.gettimeofday ());
    if Atomic.get remaining > 0 && not (helping && Supervisor.help s) then
      Unix.sleepf tick_s
  done;
  (* Joins the live domains only: a stalled one was superseded and is
     left running, never joined. *)
  Supervisor.shutdown s

let run ?(jobs = 1) ?timeout ?cache ?worker ?(retry = false) ?policy joblist =
  let joblist = Array.of_list joblist in
  let n = Array.length joblist in
  M.incr c_jobs ~n;
  let results =
    Array.map
      (fun job -> Option.bind cache (fun c -> Cache.lookup c job))
      joblist
  in
  let todo =
    List.filter (fun i -> results.(i) = None) (Mcs_util.Listx.range 0 n)
  in
  if todo <> [] then begin
    let stall_s =
      Option.bind timeout (fun s -> if s > 0. then Some s else None)
    in
    with_sweep_gc (fun () ->
        supervise ~jobs ~stall_s ?worker ~retry ?policy joblist results todo);
    Option.iter
      (fun c ->
        List.iter
          (fun i -> Option.iter (Cache.store c joblist.(i)) results.(i))
          todo)
      cache
  end;
  Array.to_list
    (Array.mapi
       (fun i r ->
         match r with
         | Some o -> o
         | None -> settled joblist.(i) (Outcome.Crashed "result lost"))
       results)
