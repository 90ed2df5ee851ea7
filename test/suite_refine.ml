(* Tests for Mcs_refine: the anytime-improvement loop is monotone (every
   accepted iteration strictly improves the objective and stays
   checker-clean), [--refine=0] is a bit-identical passthrough, forced
   degradation is recovered when a better result exists, armed fault
   counts disarm after firing, and the [List_sched ~fixed] replay used
   for subproblem extraction reproduces schedules verbatim. *)

module F = Mcs_flow.Flow
module Diag = Mcs_flow.Diag
module Pass = Mcs_flow.Pass
module Rf = Mcs_refine.Refine
module Bot = Mcs_check.Bottleneck
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault
module LS = Mcs_sched.List_sched
module Sched = Mcs_sched.Schedule
module C = Mcs_connect.Connection
module Job = Mcs_engine.Job
module Pool = Mcs_engine.Pool
module Outcome = Mcs_engine.Outcome

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let with_env name v f =
  let old = Sys.getenv_opt name in
  Unix.putenv name v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let with_fault v f =
  Fault.reset ();
  with_env "MCS_FAULT" v f

let spec_for ?pipe_length name ~flow ~mode ~rate =
  match Job.resolve (Job.Named name) with
  | Ok d -> F.spec_of_design ?pipe_length ~mode ~flow d ~rate
  | Error m -> Alcotest.fail m

let run_ok ?policy ~level spec flow =
  match Mcs_check.run ~level ?policy flow spec with
  | Ok r -> r
  | Error d -> Alcotest.failf "flow failed: %s" (Diag.message d)

let errors spec r =
  List.filter Diag.is_error
    (Mcs_check.check_result spec.F.cdfg spec.F.mlib spec.F.cons r)

(* --- refine = 0 is a bit-identical passthrough --- *)

let test_refine_zero_passthrough () =
  let spec = spec_for "cond-demo" ~flow:F.Ch4 ~mode:C.Bidir ~rate:4 in
  let r = run_ok ~level:Pass.Strict spec F.Ch4 in
  let out = Rf.improve ~max_iters:0 spec r in
  checkb "same physical result" true (out.Rf.result == r);
  checki "no iterations" 0 (List.length out.Rf.iterations);
  checkb "not improved" false out.Rf.improved;
  (* The engine path: a job with [refine = 0] carries no refine stats
     and is byte-identical to the pre-refinement encoding. *)
  let job =
    Job.make ~design:(Job.Named "cond-demo") ~flow:Job.Ch4_bidir ~rate:4 ()
  in
  let o = Pool.exec job in
  checkb "no refine stats" true (o.Outcome.refine = None);
  checkb "no ref field in job encoding" false
    (contains (Job.to_string job) "|ref")

(* --- forced degradation is recovered --- *)

let test_recovers_forced_degradation () =
  with_fault "exhaust-heuristic:1" @@ fun () ->
  let spec = spec_for "cond-demo" ~flow:F.Ch4 ~mode:C.Bidir ~rate:4 in
  let r0 = run_ok ~level:Pass.Warn spec F.Ch4 in
  checkb "base run degraded" true (r0.F.degraded <> []);
  let out = Rf.improve ~max_iters:3 spec r0 in
  checkb "refinement improved" true out.Rf.improved;
  checkb "objective strictly better" true
    (Rf.objective out.Rf.result < Rf.objective r0);
  checki "incumbent is checker-clean" 0 (List.length (errors spec out.Rf.result));
  checkb "first move is the ladder re-climb" true
    (match out.Rf.iterations with
    | it :: _ -> it.Rf.action = "reclimb" && it.Rf.accepted
    | [] -> false)

(* --- anytime monotonicity (qcheck) --- *)

let scenario_gen =
  QCheck.Gen.oneofl
    [
      ("cond-demo", F.Ch4, C.Bidir, 3);
      ("cond-demo", F.Ch4, C.Bidir, 4);
      ("cond-demo", F.Ch4, C.Unidir, 5);
      ("cond-demo", F.Ch6, C.Bidir, 4);
      ("cond-demo", F.Ch6, C.Bidir, 6);
      ("ar-general", F.Ch4, C.Unidir, 4);
      ("ar-simple", F.Ch3, C.Unidir, 3);
    ]

let prop_monotone_anytime =
  QCheck.Test.make ~name:"refinement is monotone and checker-clean" ~count:14
    (QCheck.make
       ~print:(fun ((d, f, _, r), iters, faulty) ->
         Printf.sprintf "%s/%s/r%d iters=%d fault=%b" d (F.name_to_string f) r
           iters faulty)
       QCheck.Gen.(triple scenario_gen (int_range 1 3) bool))
    (fun ((design, flow, mode, rate), iters, faulty) ->
      let body () =
        let spec = spec_for design ~flow ~mode ~rate in
        match Mcs_check.run ~level:Pass.Warn flow spec with
        | Error _ -> true (* degradation bottomed out: nothing to refine *)
        | Ok r0 ->
            let out = Rf.improve ~max_iters:iters spec r0 in
            let never_worse = Rf.objective out.Rf.result <= Rf.objective r0 in
            let monotone =
              List.for_all
                (fun (it : Rf.iteration) ->
                  (not it.Rf.accepted)
                  ||
                  match it.Rf.objective_after with
                  | Some a -> a < it.Rf.objective_before
                  | None -> false)
                out.Rf.iterations
            in
            let capped = List.length out.Rf.iterations <= iters in
            let clean = errors spec out.Rf.result = [] in
            never_worse && monotone && capped && clean
      in
      if faulty then with_fault "exhaust-heuristic:1" body else body ())

(* --- armed fault counts --- *)

let test_armed_fault_counts () =
  with_fault "exhaust-ilp:2" (fun () ->
      checkb "fires once" true (Fault.exhaust_ilp () <> None);
      checkb "fires twice" true (Fault.exhaust_ilp () <> None);
      checkb "disarmed after the count" true (Fault.exhaust_ilp () = None);
      checkb "stays disarmed" true (Fault.exhaust_ilp () = None));
  with_fault "exhaust-ilp" (fun () ->
      checkb "bare mode never disarms" true
        (List.for_all
           (fun _ -> Fault.exhaust_ilp () <> None)
           [ 1; 2; 3; 4; 5 ]));
  checkb "zero count rejected" true
    (Result.is_error (Fault.parse "exhaust-ilp:0"));
  checkb "junk count rejected" true
    (Result.is_error (Fault.parse "exhaust-ilp:x"));
  checkb "crash-worker count still means workers" true
    (Fault.parse "crash-worker:3" = Ok [ Fault.Crash_worker 3 ]);
  checkb "armed count composes with other faults" true
    (match Fault.parse "exhaust-fds:2,corrupt-cache" with
    | Ok [ Fault.Exhaust_fds; Fault.Corrupt_cache ] -> true
    | _ -> false)

(* --- List_sched ~fixed replay --- *)

let test_fixed_replay_verbatim () =
  let spec = spec_for "ar-simple" ~flow:F.Ch3 ~mode:C.Unidir ~rate:3 in
  let cdfg = spec.F.cdfg in
  let run ?min_cstep ?fixed () =
    match
      LS.run cdfg spec.F.mlib spec.F.cons ~rate:spec.F.rate ?min_cstep ?fixed
        ()
    with
    | Ok sch -> sch
    | Error f -> Alcotest.failf "list scheduling failed: %s" f.LS.reason
  in
  let sch = run () in
  let placements =
    List.map (fun op -> (op, Sched.cstep sch op)) (Mcs_cdfg.Cdfg.ops cdfg)
  in
  (* Fix everything: the replay must reproduce the schedule verbatim. *)
  let sch' = run ~fixed:placements () in
  List.iter
    (fun (op, c) -> checki "replayed cstep" c (Sched.cstep sch' op))
    placements;
  (* Fix a prefix and floor the rest: frozen placements survive, free
     operations land at or after the cut, and the result is legal. *)
  let pl = Sched.pipe_length sch in
  let cut = max 1 (pl - 2) in
  let prefix = List.filter (fun (_, c) -> c < cut) placements in
  let floor = Array.make (Mcs_cdfg.Cdfg.n_ops cdfg) cut in
  let sch2 = run ~fixed:prefix ~min_cstep:floor () in
  List.iter
    (fun (op, c) -> checki "frozen cstep survives" c (Sched.cstep sch2 op))
    prefix;
  List.iter
    (fun op ->
      if not (List.mem_assoc op prefix) then
        checkb "free op floored at the cut" true (Sched.cstep sch2 op >= cut))
    (Mcs_cdfg.Cdfg.ops cdfg);
  checkb "spliced schedule verifies" true
    (match Sched.verify sch2 with Ok () -> true | Error _ -> false);
  (* A fixed operation whose predecessor is free is a contract violation. *)
  checkb "fixed op with free predecessor rejected" true
    (match
       List.find_opt
         (fun (op, _) -> Mcs_cdfg.Cdfg.preds cdfg op <> [])
         placements
     with
    | None -> true
    | Some (op, c) -> (
        match run ~fixed:[ (op, c) ] () with
        | (_ : Sched.t) -> false
        | exception Invalid_argument _ -> true))

(* --- bottleneck extraction --- *)

let test_bottleneck_evidence () =
  let spec, r =
    with_fault "exhaust-heuristic:1" @@ fun () ->
    let spec = spec_for "cond-demo" ~flow:F.Ch4 ~mode:C.Bidir ~rate:4 in
    let r = run_ok ~level:Pass.Warn spec F.Ch4 in
    (spec, r)
  in
  let bots = Bot.analyze spec.F.cdfg spec.F.cons r in
  checkb "evidence found" true (bots <> []);
  checkb "ladder evidence ranks first" true
    (match bots with
    | { Bot.kind = Bot.Ladder _; _ } :: _ -> true
    | _ -> false);
  checkb "describe labels the ladder" true
    (contains (Bot.describe (List.hd bots)) "ladder:");
  (* A full-quality run has no ladder evidence. *)
  let spec' = spec_for "cond-demo" ~flow:F.Ch4 ~mode:C.Bidir ~rate:4 in
  let r' = run_ok ~level:Pass.Warn spec' F.Ch4 in
  checkb "no ladder evidence on a clean run" true
    (List.for_all
       (fun (b : Bot.t) ->
         match b.Bot.kind with Bot.Ladder _ -> false | _ -> true)
       (Bot.analyze spec'.F.cdfg spec'.F.cons r'))

(* --- budget slices --- *)

let test_budget_slice_absorb () =
  let parent = Budget.make ~pivots:100 () in
  for _ = 1 to 10 do
    Budget.spend_pivot parent
  done;
  let slice = Budget.slice parent in
  checkb "slice is limited" true (Budget.is_limited slice);
  (* 45 = ceil((100 - 10) / 2): the slice funds half the remaining. *)
  checkb "slice exhausts at half the remaining" true
    (match
       for _ = 1 to 46 do
         Budget.spend_pivot slice
       done
     with
    | () -> false
    | exception Budget.Out_of_budget e -> e.Budget.limit = 45);
  Budget.absorb parent slice;
  checki "absorb charges the parent" (10 + 46) (Budget.spent_pivots parent);
  checkb "slice of unlimited is unlimited" false
    (Budget.is_limited (Budget.slice Budget.unlimited))

(* --- degraded cross-audit --- *)

let test_degraded_cross_audit () =
  with_fault "exhaust-heuristic:1" @@ fun () ->
  let spec = spec_for "cond-demo" ~flow:F.Ch4 ~mode:C.Bidir ~rate:4 in
  let r = run_ok ~level:Pass.Warn spec F.Ch4 in
  checki "degraded result audits clean" 0 (List.length (errors spec r));
  (* Renaming a step keeps the counts balanced, so the per-step payload
     audit fires and names the orphan. *)
  let renamed =
    { r with F.degraded = List.map (fun _ -> "bogus-step") r.F.degraded }
  in
  checkb "unbacked degradation step is an error" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.code = Diag.Result_mismatch
         && contains (Diag.message d) "bogus-step")
       (errors spec renamed));
  (* Appending one unbalances the step/diagnostic counts. *)
  let appended = { r with F.degraded = r.F.degraded @ [ "bogus-step" ] } in
  checkb "unbalanced step count is an error" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = Diag.Result_mismatch)
       (errors spec appended))

(* --- job identity and outcome codec --- *)

let test_refine_job_identity () =
  let j =
    Job.make ~design:(Job.Named "cond-demo") ~flow:Job.Ch6 ~rate:4 ~refine:2 ()
  in
  checkb "refine in the encoding" true (contains (Job.to_string j) "|ref2");
  (match Job.of_string (Job.to_string j) with
  | Ok j' ->
      checkb "refine round-trips" true (Job.equal j j' && j'.Job.refine = 2)
  | Error m -> Alcotest.fail m);
  let j0 = Job.make ~design:(Job.Named "cond-demo") ~flow:Job.Ch6 ~rate:4 () in
  checkb "refine changes job identity" false (Job.equal j j0);
  checkb "negative refine rejected" true
    (match
       Job.make ~design:(Job.Named "x") ~flow:Job.Ch5 ~rate:2 ~refine:(-1) ()
     with
    | (_ : Job.t) -> false
    | exception Invalid_argument _ -> true)

let test_refined_outcome_roundtrip () =
  with_fault "exhaust-heuristic:1" @@ fun () ->
  let job =
    Job.make ~design:(Job.Named "cond-demo") ~flow:Job.Ch4_bidir ~rate:4
      ~refine:2 ()
  in
  let o = with_env "MCS_CHECK" "warn" (fun () -> Pool.exec job) in
  checkb "outcome feasible" true (Outcome.is_feasible o);
  (match o.Outcome.refine with
  | None -> Alcotest.fail "refined job carries no refine stats"
  | Some st ->
      checkb "stage improved the objective" true
        (st.Outcome.objective_end < st.Outcome.objective_start);
      checkb "accepted counted" true (st.Outcome.accepted >= 1);
      checkb "steps recorded" true (st.Outcome.steps <> []));
  match Outcome.of_string (Outcome.to_string o) with
  | Ok o' -> checkb "refined outcome round-trips" true (Outcome.equal o o')
  | Error m -> Alcotest.fail m

let suite =
  ( "refine",
    [
      Alcotest.test_case "refine=0 is a passthrough" `Quick
        test_refine_zero_passthrough;
      Alcotest.test_case "forced degradation recovered" `Quick
        test_recovers_forced_degradation;
      Alcotest.test_case "armed fault counts disarm" `Quick
        test_armed_fault_counts;
      Alcotest.test_case "fixed replay is verbatim" `Quick
        test_fixed_replay_verbatim;
      Alcotest.test_case "bottleneck evidence ranked" `Quick
        test_bottleneck_evidence;
      Alcotest.test_case "budget slice and absorb" `Quick
        test_budget_slice_absorb;
      Alcotest.test_case "degraded cross-audit" `Quick
        test_degraded_cross_audit;
      Alcotest.test_case "refine is part of job identity" `Quick
        test_refine_job_identity;
      Alcotest.test_case "refined outcome round-trips" `Quick
        test_refined_outcome_roundtrip;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_monotone_anytime ] )
