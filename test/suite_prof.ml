(* Tests for Mcs_prof: Chrome-trace well-formedness (parses, spans nest,
   timestamps monotone), the solver event journal under fault injection,
   baseline comparison verdicts and gating, the tracing-is-transparent
   property over all four flows, and the retry-does-not-double-count
   cache-miss regression. *)

module J = Mcs_obs.Report_json
module Events = Mcs_obs.Events
module Chrome_trace = Mcs_prof.Chrome_trace
module Journal = Mcs_prof.Journal
module B = Mcs_prof.Baseline
module F = Mcs_flow.Flow
module C = Mcs_connect.Connection
module Benchmarks = Mcs_cdfg.Benchmarks

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Leave the global observability state the way we found it, whatever
   the test does: other suites assume events are off and no hook is set. *)
let isolated f =
  Fun.protect
    ~finally:(fun () ->
      Chrome_trace.stop ();
      Events.set_enabled false;
      Events.clear ();
      Unix.putenv "MCS_FAULT" "")
    f

let run_ch5 () =
  let d = Benchmarks.ar_general () in
  let spec =
    F.spec_of_design ~pipe_length:9 ~mode:C.Bidir ~flow:F.Ch5 d ~rate:4
  in
  F.run F.Ch5 spec

(* --- Chrome trace --- *)

let trace_entries () =
  match Chrome_trace.to_json () with
  | J.Arr es -> es
  | _ -> Alcotest.fail "trace is not a JSON array"

let f_member name e =
  match Option.bind (J.member name e) J.to_float with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "trace entry lacks %S" name)

let s_member name e =
  match Option.bind (J.member name e) J.to_str with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "trace entry lacks %S" name)

let test_trace_wellformed () =
  isolated @@ fun () ->
  Events.clear ();
  Chrome_trace.start ();
  (match run_ch5 () with
  | Ok _ -> ()
  | Error dg -> Alcotest.fail (Mcs_flow.Diag.message dg));
  Chrome_trace.stop ();
  let es = trace_entries () in
  checkb "has entries" true (es <> []);
  (* Round-trips through the JSON printer/parser. *)
  (match J.of_string (J.to_string (J.Arr es)) with
  | Ok (J.Arr es') -> checki "round-trip preserves count" (List.length es)
                        (List.length es')
  | Ok _ | Error _ -> Alcotest.fail "trace does not round-trip");
  let ts = List.map (f_member "ts") es in
  checkb "ts monotone" true (List.sort Float.compare ts = ts);
  let spans = List.filter (fun e -> s_member "ph" e = "X") es in
  let instants = List.filter (fun e -> s_member "ph" e = "i") es in
  checkb "at least 4 phase spans" true (List.length spans >= 4);
  checkb "has solver event slices" true (instants <> []);
  (* Spans on one tid must nest: any two are disjoint or one contains
     the other (small epsilon for float microseconds). *)
  let eps = 5.0 in
  let intervals =
    List.map (fun e -> (f_member "ts" e, f_member "ts" e +. f_member "dur" e))
      spans
  in
  List.iteri
    (fun i (a0, a1) ->
      List.iteri
        (fun k (b0, b1) ->
          if i < k then
            let disjoint = a1 <= b0 +. eps || b1 <= a0 +. eps in
            let a_in_b = b0 <= a0 +. eps && a1 <= b1 +. eps in
            let b_in_a = a0 <= b0 +. eps && b1 <= a1 +. eps in
            checkb "spans nest" true (disjoint || a_in_b || b_in_a))
        intervals)
    intervals

let test_trace_stop_releases () =
  isolated @@ fun () ->
  Chrome_trace.start ();
  checkb "recording" true (Chrome_trace.recording ());
  checkb "events forced on" true (Events.on ());
  Chrome_trace.stop ();
  checkb "not recording" false (Chrome_trace.recording ());
  checkb "events restored off" false (Events.on ());
  (* Entries survive stop for inspection. *)
  ignore (trace_entries ())

(* --- Journal --- *)

let test_journal_exhausted_names_axis () =
  isolated @@ fun () ->
  Unix.putenv "MCS_FAULT" "exhaust-ilp";
  Events.clear ();
  Events.set_enabled true;
  let d = Benchmarks.ar_simple () in
  let spec = F.spec_of_design ~mode:C.Unidir ~flow:F.Ch3 d ~rate:2 in
  ignore (F.run F.Ch3 spec);
  (match Journal.exhausted_axis () with
  | Some axis -> checks "exhaust-ilp trips the nodes axis" "nodes" axis
  | None -> Alcotest.fail "no exhausted event in the journal");
  (match Journal.summary () with
  | Some s ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      checkb "summary names the axis" true (contains s "nodes")
  | None -> Alcotest.fail "no journal summary");
  match Journal.to_json () with
  | J.Obj fields ->
      checkb "journal has events" true
        (match List.assoc_opt "events" fields with
        | Some (J.Arr (_ :: _)) -> true
        | _ -> false)
  | _ -> Alcotest.fail "journal is not an object"

let test_journal_quiet_without_exhaustion () =
  isolated @@ fun () ->
  Events.clear ();
  Events.set_enabled true;
  ignore (run_ch5 ());
  checkb "no exhausted axis on a clean run" true
    (Journal.exhausted_axis () = None)

(* --- Baseline comparison --- *)

let rec_ ?(hard = true) experiment metric value =
  { B.experiment; metric; value; hard }

let verdict_of cs exp metric =
  match
    List.find_opt
      (fun c -> c.B.record.B.experiment = exp && c.B.record.B.metric = metric)
      cs
  with
  | Some c -> c.B.verdict
  | None -> Alcotest.fail (Printf.sprintf "no comparison for %s/%s" exp metric)

let test_compare_verdicts () =
  let baseline =
    [
      rec_ "ilp.ar.r3" "warm_pivots" 100.;
      rec_ "ilp.ar.r3" "warm_nodes" 20.;
      rec_ ~hard:false "ilp.ar.r3" "warm_wall_s" 0.10;
      rec_ ~hard:false "ilp.ar.r3" "cold_wall_s" 0.50;
      rec_ "ilp.ewf.r6" "warm_pivots" 40.;
    ]
  in
  let current =
    [
      (* seeded 2x pivot regression *)
      rec_ "ilp.ar.r3" "warm_pivots" 200.;
      rec_ "ilp.ar.r3" "warm_nodes" 15.;
      (* +20% wall: inside the 25% noise band *)
      rec_ ~hard:false "ilp.ar.r3" "warm_wall_s" 0.12;
      (* +60% wall: a soft regression, which must not gate *)
      rec_ ~hard:false "ilp.ar.r3" "cold_wall_s" 0.80;
      (* ilp.ewf.r6 absent: Missing *)
    ]
  in
  let cs = B.compare ~noise:0.25 ~baseline ~current () in
  checki "one comparison per baseline record" 5 (List.length cs);
  (match verdict_of cs "ilp.ar.r3" "warm_pivots" with
  | B.Regression _ -> ()
  | v -> Alcotest.fail ("2x pivots: " ^ B.verdict_to_string v));
  (match verdict_of cs "ilp.ar.r3" "warm_nodes" with
  | B.Improvement _ -> ()
  | v -> Alcotest.fail ("fewer nodes: " ^ B.verdict_to_string v));
  (match verdict_of cs "ilp.ar.r3" "warm_wall_s" with
  | B.Within_noise _ -> ()
  | v -> Alcotest.fail ("+20% wall: " ^ B.verdict_to_string v));
  (match verdict_of cs "ilp.ar.r3" "cold_wall_s" with
  | B.Regression _ -> ()
  | v -> Alcotest.fail ("+60% wall: " ^ B.verdict_to_string v));
  (match verdict_of cs "ilp.ewf.r6" "warm_pivots" with
  | B.Missing -> ()
  | v -> Alcotest.fail ("absent record: " ^ B.verdict_to_string v));
  (* Gate: the hard pivot regression and the missing hard record fail;
     the soft regression does not. *)
  checki "hard failures" 2 (List.length (B.failures cs));
  checki "soft regressions" 1 (List.length (B.soft_regressions cs))

let test_compare_hard_is_noise_free () =
  let baseline = [ rec_ "e" "pivots" 100. ] in
  let cs =
    B.compare ~noise:0.5 ~baseline ~current:[ rec_ "e" "pivots" 101. ] ()
  in
  (* One extra pivot fails even under a huge noise allowance. *)
  checki "hard +1 regresses" 1 (List.length (B.failures cs));
  let cs =
    B.compare ~noise:0.5 ~baseline ~current:[ rec_ "e" "pivots" 100. ] ()
  in
  checki "hard equal passes" 0 (List.length (B.failures cs))

let test_baseline_roundtrip () =
  let t =
    [
      rec_ "ilp.ar.r3" "warm_pivots" 123.;
      rec_ ~hard:false "ch5.ar-general.r4" "wall_s" 0.25;
    ]
  in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcs-baseline-%d.json" (Unix.getpid ()))
  in
  (match B.save path t with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match B.load path with
  | Ok t' -> checkb "round-trips" true (t = t')
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  (* Wrong schema is rejected. *)
  match B.of_json (J.Obj [ ("schema", J.Str "mcs-bench/1") ]) with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ()

(* --- Tracing transparency --- *)

let flow_cases =
  [
    (F.Ch3, "ar-simple", 2, C.Unidir, None);
    (F.Ch4, "ar-general", 3, C.Unidir, None);
    (F.Ch5, "ar-general", 4, C.Bidir, Some 9);
    (F.Ch6, "ar-general", 3, C.Bidir, None);
  ]

let design_of = function
  | "ar-simple" -> Benchmarks.ar_simple ()
  | "ar-general" -> Benchmarks.ar_general ()
  | s -> Alcotest.fail ("unknown design " ^ s)

let run_case (flow, name, rate, mode, pipe_length) =
  let spec = F.spec_of_design ?pipe_length ~mode ~flow (design_of name) ~rate in
  match F.run flow spec with
  | Ok r -> Ok (r.F.pins, r.F.pipe_length, r.F.attempts)
  | Error dg -> Error (Mcs_flow.Diag.message dg)

let prop_tracing_transparent =
  QCheck.Test.make ~name:"tracing on/off is result-bit-identical" ~count:8
    (QCheck.make
       ~print:(fun (f, n, r, _, _) ->
         Printf.sprintf "%s %s r%d" (F.name_to_string f) n r)
       (QCheck.Gen.oneofl flow_cases))
    (fun case ->
      isolated @@ fun () ->
      let plain = run_case case in
      Events.clear ();
      Chrome_trace.start ();
      let traced = run_case case in
      Chrome_trace.stop ();
      plain = traced)

(* --- Retry must not double-count cache misses --- *)

let synthetic_worker (j : Mcs_engine.Job.t) =
  {
    Mcs_engine.Outcome.job = j;
    status = Mcs_engine.Outcome.Feasible;
    pins = [ (1, j.Mcs_engine.Job.rate) ];
    pipe_length = j.Mcs_engine.Job.rate;
    fu_count = 1;
    check = None;
    degraded = [];
    solver = None;
    refine = None;
  }

let test_retry_counts_misses_once () =
  isolated @@ fun () ->
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcs-prof-test-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let c = Mcs_engine.Cache.open_dir dir in
  let jobs =
    List.init 2 (fun i ->
        Mcs_engine.Job.make
          ~design:(Mcs_engine.Job.Named "ar-general")
          ~flow:Mcs_engine.Job.Ch4_unidir ~rate:(i + 1) ())
  in
  let counter name = Mcs_obs.Metrics.(count (counter name)) in
  let misses0 = counter "engine.cache.misses" in
  let retries0 = counter "engine.pool.retries" in
  (* Both jobs crash on their first attempt; with ~retry both re-run and
     succeed.  The cache is consulted once per job, before any attempt,
     so the retry must not bump the miss counter again. *)
  Unix.putenv "MCS_FAULT" "crash-worker:2";
  let rs =
    Mcs_engine.Pool.run ~jobs:2 ~cache:c ~worker:synthetic_worker ~retry:true
      jobs
  in
  Unix.putenv "MCS_FAULT" "";
  checkb "all feasible after retry" true
    (List.for_all Mcs_engine.Outcome.is_feasible rs);
  checki "retried both jobs" (retries0 + 2) (counter "engine.pool.retries");
  checki "one miss per job, not per attempt" (misses0 + 2)
    (counter "engine.cache.misses")

let suite =
  ( "prof",
    [
      Alcotest.test_case "chrome trace well-formed" `Quick
        test_trace_wellformed;
      Alcotest.test_case "chrome trace stop releases hooks" `Quick
        test_trace_stop_releases;
      Alcotest.test_case "journal names exhausted axis under fault" `Quick
        test_journal_exhausted_names_axis;
      Alcotest.test_case "journal quiet on clean run" `Quick
        test_journal_quiet_without_exhaustion;
      Alcotest.test_case "baseline compare verdicts" `Quick
        test_compare_verdicts;
      Alcotest.test_case "hard gates ignore noise" `Quick
        test_compare_hard_is_noise_free;
      Alcotest.test_case "baseline json round-trip" `Quick
        test_baseline_roundtrip;
      QCheck_alcotest.to_alcotest prop_tracing_transparent;
      Alcotest.test_case "retry counts cache misses once" `Quick
        test_retry_counts_misses_once;
    ] )
