(* Tests for Mcs_resilience and the degradation ladders: budget
   exhaustion at each solver boundary is typed (never an escaped
   exception), fault injection drives every flow down its ladder to a
   checker-clean degraded result or a typed diagnostic, and the engine
   quarantines corrupt cache entries and retries crashed jobs. *)

open Mcs_cdfg
module B = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault
module F = Mcs_flow.Flow
module Pass = Mcs_flow.Pass
module Diag = Mcs_flow.Diag
module Simplex = Mcs_ilp.Simplex
module BB = Mcs_ilp.Branch_bound
module Fds = Mcs_sched.Fds
module H = Mcs_graph.Hungarian
module Job = Mcs_engine.Job
module Outcome = Mcs_engine.Outcome
module Pool = Mcs_engine.Pool
module Cache = Mcs_engine.Cache
module M = Mcs_obs.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let counter name = M.count (M.counter name)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let diag_str d = Format.asprintf "%a" (fun fmt -> Diag.pp fmt) d

let with_env name v f =
  let old = Sys.getenv_opt name in
  Unix.putenv name v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let with_fault v f = with_env "MCS_FAULT" v f

(* --- Budget --- *)

let test_budget_limits () =
  let b = B.make ~nodes:2 () in
  B.spend_node b;
  B.spend_node b;
  checkb "third node raises" true
    (match B.spend_node b with
    | () -> false
    | exception B.Out_of_budget e ->
        e.B.resource = B.Nodes && e.B.limit = 2 && e.B.spent > e.B.limit);
  checkb "limited budget" true (B.is_limited b);
  checkb "unlimited is not limited" false (B.is_limited B.unlimited);
  checkb "unlimited never raises" true
    (try
       for _ = 1 to 10_000 do
         B.spend_pivot B.unlimited
       done;
       true
     with B.Out_of_budget _ -> false);
  let h = B.halve (B.make ~pivots:8 ()) in
  checkb "halved budget still limited" true (B.is_limited h);
  checkb "halved pivots exhaust at 4" true
    (match
       for _ = 1 to 5 do
         B.spend_pivot h
       done
     with
    | () -> false
    | exception B.Out_of_budget e -> e.B.limit = 4);
  checkb "deadline recorded" true
    (B.deadline_ms (B.make ~deadline_ms:50. ()) = Some 50.);
  checkb "message names the resource" true
    (contains (B.message (B.exhausted B.Wall)) "wall")

let lp n_vars objective rows =
  let r = Mcs_util.Ratio.of_int in
  {
    Simplex.n_vars;
    objective = Array.map r (Array.of_list objective);
    rows =
      List.map
        (fun (coefs, rel, b) ->
          (Array.map r (Array.of_list coefs), rel, r b))
        rows;
  }

let test_simplex_pivot_budget () =
  (* The [Ge] row forces phase-1 work, so one pivot can never finish. *)
  let p =
    lp 2 [ 3; 2 ]
      [
        ([ 1; 1 ], Simplex.Ge, 1);
        ([ 1; 1 ], Simplex.Le, 4);
        ([ 1; 3 ], Simplex.Le, 6);
      ]
  in
  checkb "unbudgeted solves" true
    (match Simplex.solve p with Simplex.Optimal _ -> true | _ -> false);
  checkb "one pivot is not enough" true
    (match Simplex.solve ~budget:(B.make ~pivots:1 ()) p with
    | Simplex.Exhausted e -> e.B.resource = B.Pivots
    | _ -> false)

let test_branch_bound_node_budget () =
  (* Fractional root, so no incumbent exists when the node budget dies. *)
  let p = lp 2 [ 1; 1 ] [ ([ 2; 2 ], Simplex.Le, 3) ] in
  let integer = [| true; true |] in
  checkb "unbudgeted solves" true
    (match BB.solve ~integer p with BB.Optimal _ -> true | _ -> false);
  checkb "node budget exhausts typed" true
    (match BB.solve ~budget:(B.make ~nodes:1 ()) ~integer p with
    | BB.Exhausted e -> e.B.resource = B.Nodes
    | _ -> false)

let test_fds_pass_budget () =
  let d = Benchmarks.elliptic () in
  match
    Fds.run ~budget:(B.make ~passes:1 ()) d.Benchmarks.cdfg d.Benchmarks.mlib
      ~rate:6 ~pipe_length:26 ()
  with
  | Error (Fds.Exhausted e) ->
      checkb "passes exhausted" true (e.B.resource = B.Passes)
  | Error e ->
      Alcotest.fail
        ("expected Exhausted, got " ^ Fds.error_message d.Benchmarks.cdfg e)
  | Ok _ -> Alcotest.fail "one pass cannot schedule the elliptic filter"

let test_hungarian_augment_budget () =
  let cost = [| [| 4; 1; 3 |]; [| 2; 0; 5 |]; [| 3; 2; 2 |] |] in
  checkb "budget raises at the boundary" true
    (match H.assignment ~budget:(B.make ~augments:1 ()) cost with
    | _ -> false
    | exception B.Out_of_budget e -> e.B.resource = B.Augments)

(* --- Fault parsing --- *)

let test_fault_parse () =
  checkb "full grammar" true
    (Fault.parse "exhaust-ilp,crash-worker:2,corrupt-cache"
    = Ok [ Fault.Exhaust_ilp; Fault.Crash_worker 2; Fault.Corrupt_cache ]);
  checkb "empty is no faults" true (Fault.parse "" = Ok []);
  checkb "spaces tolerated" true
    (Fault.parse " exhaust-fds , exhaust-hungarian "
    = Ok [ Fault.Exhaust_fds; Fault.Exhaust_hungarian ]);
  checkb "unknown mode rejected" true
    (match Fault.parse "exhaust-everything" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "bad crash count rejected" true
    (match Fault.parse "crash-worker:many" with
    | Error _ -> true
    | Ok _ -> false)

let test_fault_env_unparseable_disables () =
  with_fault "utter nonsense" (fun () ->
      checkb "unparseable env disables faults" true (Fault.active () = []);
      checki "no workers crashed" 0 (Fault.crash_workers ());
      checkb "no cache corruption" false (Fault.corrupt_cache ()));
  with_fault "exhaust-fds" (fun () ->
      checkb "re-read after change" true
        (Fault.exhaust_fds () <> None && Fault.exhaust_ilp () = None))

(* --- Degradation ladders --- *)

let run_strict ?(policy = F.default_policy) flow d ~rate ?pipe_length () =
  let spec = F.spec_of_design ?pipe_length ~flow d ~rate in
  Mcs_check.run ~level:Pass.Strict ~policy flow spec

(* Under [Strict] checking, [Ok r] means every phase artifact and the
   final result passed the checker; degraded results must clear the same
   bar. *)
let expect_degraded name outcome =
  match outcome with
  | Ok r ->
      checkb (name ^ ": degraded") true (F.is_degraded r);
      checkb (name ^ ": checker-clean") true (F.clean r)
  | Error d -> Alcotest.fail (name ^ ": " ^ diag_str d)

let test_ch3_ilp_fault_degrades () =
  (* The bundled budgets sit at the pin-checked minimum, below what
     dedicated buses need, so loosen them: the test is about the ladder,
     not the budgets. *)
  let d = Benchmarks.ar_simple () in
  let spec = F.spec_of_design ~flow:F.Ch3 d ~rate:2 in
  let spec =
    {
      spec with
      F.cons =
        Constraints.with_pins spec.F.cons
          (List.map
             (fun p -> (p, 4096))
             (Mcs_util.Listx.range 0 (Cdfg.n_partitions spec.F.cdfg + 1)));
    }
  in
  with_fault "exhaust-ilp" (fun () ->
      expect_degraded "ch3"
        (Mcs_check.run ~level:Pass.Strict ~policy:F.default_policy F.Ch3 spec))

let test_ch4_heuristic_fault_degrades () =
  with_fault "exhaust-heuristic" (fun () ->
      expect_degraded "ch4"
        (run_strict F.Ch4 (Benchmarks.elliptic ()) ~rate:6 ()))

let test_ch5_fds_fault_degrades () =
  with_fault "exhaust-fds" (fun () ->
      expect_degraded "ch5"
        (run_strict F.Ch5 (Benchmarks.elliptic ()) ~rate:6 ~pipe_length:26 ()))

let test_ch5_hungarian_fault_degrades () =
  with_fault "exhaust-hungarian" (fun () ->
      expect_degraded "ch5"
        (run_strict F.Ch5 (Benchmarks.elliptic ()) ~rate:6 ~pipe_length:26 ()))

let test_ch6_heuristic_fault_degrades () =
  with_fault "exhaust-heuristic" (fun () ->
      expect_degraded "ch6"
        (run_strict F.Ch6 (Benchmarks.elliptic ()) ~rate:6 ()))

let test_no_fallback_is_typed () =
  with_fault "exhaust-fds" (fun () ->
      let policy = { F.default_policy with F.fallback = false } in
      match
        run_strict ~policy F.Ch5 (Benchmarks.elliptic ()) ~rate:6
          ~pipe_length:26 ()
      with
      | Ok _ -> Alcotest.fail "fallback disabled, yet the flow completed"
      | Error d ->
          checkb "typed exhaustion diagnostic" true
            (d.Diag.code = Diag.Exhausted))

let test_default_policy_unaffected_by_ladder () =
  (* No budget, no fault: results must be bit-identical with and without
     an explicit policy (the engine cache and CI determinism depend on
     it). *)
  let spec = F.spec_of_design ~flow:F.Ch4 (Benchmarks.ar_general ()) ~rate:3 in
  let go ?policy () =
    match Mcs_check.run ~level:Pass.Strict ?policy F.Ch4 spec with
    | Ok r -> (r.F.pins, r.F.pipe_length, r.F.degraded)
    | Error d -> Alcotest.fail (diag_str d)
  in
  let explicit =
    {
      F.budget = B.unlimited;
      fallback = true;
      arith = F.default_policy.F.arith;
    }
  in
  checkb "policy-less run identical" true (go () = go ~policy:explicit ())

(* --- The invariant, fuzzed ---

   Any flow on any design under any fault mode and a 50 ms deadline
   terminates with a checker-clean (possibly degraded) result or a typed
   diagnostic — never an exception. *)

let fault_modes =
  [ ""; "exhaust-ilp"; "exhaust-fds"; "exhaust-heuristic"; "exhaust-hungarian" ]

let fuzz_resilience seed =
  let flow = List.nth F.all (seed mod 4) in
  let fault = List.nth fault_modes (seed mod List.length fault_modes) in
  let design =
    match flow with
    | F.Ch3 ->
        Job.resolve
          (Job.Random_simple
             { seed; n_partitions = 2 + (seed mod 3); ops_per_chip = 3 + (seed mod 3) })
    | _ ->
        Job.resolve
          (Job.Random
             { seed; n_partitions = 2 + (seed mod 3); n_ops = 8 + (seed mod 9) })
  in
  match design with
  | Error _ -> true
  | Ok d ->
      with_fault fault (fun () ->
          let policy =
            { F.default_policy with F.budget = B.make ~deadline_ms:50. () }
          in
          let spec = F.spec_of_design ~flow d ~rate:4 in
          match Mcs_check.run ~level:Pass.Strict ~policy flow spec with
          | Ok r -> F.clean r
          | Error _ -> true (* typed diagnostic: acceptable *)
          | exception e ->
              Printf.eprintf "fuzz seed %d (%s, MCS_FAULT=%s): raised %s\n%!"
                seed (F.name_to_string flow) fault (Printexc.to_string e);
              false)

let prop_resilience =
  QCheck.Test.make
    ~name:"any flow, any fault, 50ms deadline: clean result or typed diag"
    ~count:40
    QCheck.(int_range 1 10_000)
    fuzz_resilience

(* --- Engine: cache quarantine, corrupt-cache fault, pool retry --- *)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mcs-resilience-test-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    dir

let job ?(rate = 3) () =
  Job.make ~design:(Job.Named "ar-general") ~flow:Job.Ch4_unidir ~rate ()

let outcome j =
  {
    Outcome.job = j;
    status = Outcome.Feasible;
    pins = [ (0, 8); (1, 16) ];
    pipe_length = 7;
    fu_count = 4;
    check = None;
    degraded = [];
    solver = None;
    refine = None;
  }

let test_cache_quarantines_corrupt_entry () =
  let c = Cache.open_dir ~version:"test-v1" (tmp_dir ()) in
  let j = job () in
  Cache.store c j (outcome j);
  let path = Cache.entry_path c j in
  let oc = open_out_bin path in
  output_string oc "{ not an entry";
  close_out oc;
  let q = counter "engine.cache.quarantined" in
  checkb "corrupt entry is a miss" true (Cache.lookup c j = None);
  checki "quarantine counted" (q + 1) (counter "engine.cache.quarantined");
  checkb "entry moved aside" false (Sys.file_exists path);
  checkb "quarantine file kept for forensics" true
    (Sys.file_exists (path ^ ".bad"));
  (* A quarantined slot must be writable again. *)
  Cache.store c j (outcome j);
  checkb "slot reusable after quarantine" true (Cache.lookup c j <> None)

let test_corrupt_cache_fault () =
  let c = Cache.open_dir ~version:"test-v1" (tmp_dir ()) in
  let j = job () in
  with_fault "corrupt-cache" (fun () -> Cache.store c j (outcome j));
  let q = counter "engine.cache.quarantined" in
  checkb "corrupted store reads as miss" true (Cache.lookup c j = None);
  checki "and is quarantined" (q + 1) (counter "engine.cache.quarantined")

let synthetic_worker (j : Job.t) = outcome j

let test_pool_retry_after_crash_fault () =
  let jobs = [ job ~rate:1 (); job ~rate:2 () ] in
  (* Without retry: the injected crash surfaces as a Crashed outcome. *)
  with_fault "crash-worker:1" (fun () ->
      match Pool.run ~jobs:1 ~worker:synthetic_worker jobs with
      | [ o1; o2 ] ->
          checkb "first job crashed" true
            (match o1.Outcome.status with Outcome.Crashed _ -> true | _ -> false);
          checkb "second job fine" true (o2.Outcome.status = Outcome.Feasible)
      | _ -> Alcotest.fail "two outcomes expected");
  (* With retry: the job runs once more and succeeds. *)
  with_fault "crash-worker:1" (fun () ->
      let retries = counter "engine.pool.retries" in
      match Pool.run ~jobs:1 ~retry:true ~worker:synthetic_worker jobs with
      | [ o1; o2 ] ->
          checkb "first job recovered" true (o1.Outcome.status = Outcome.Feasible);
          checkb "second job fine" true (o2.Outcome.status = Outcome.Feasible);
          checki "retry counted" (retries + 1) (counter "engine.pool.retries")
      | _ -> Alcotest.fail "two outcomes expected")

let suite =
  ( "resilience",
    [
      Alcotest.test_case "budget limits and halving" `Quick test_budget_limits;
      Alcotest.test_case "simplex pivot budget" `Quick test_simplex_pivot_budget;
      Alcotest.test_case "branch & bound node budget" `Quick
        test_branch_bound_node_budget;
      Alcotest.test_case "FDS pass budget" `Quick test_fds_pass_budget;
      Alcotest.test_case "Hungarian augment budget" `Quick
        test_hungarian_augment_budget;
      Alcotest.test_case "MCS_FAULT grammar" `Quick test_fault_parse;
      Alcotest.test_case "unparseable MCS_FAULT disables faults" `Quick
        test_fault_env_unparseable_disables;
      Alcotest.test_case "ch3: ILP fault degrades to Theorem 3.1" `Quick
        test_ch3_ilp_fault_degrades;
      Alcotest.test_case "ch4: heuristic fault degrades to dedicated buses"
        `Quick test_ch4_heuristic_fault_degrades;
      Alcotest.test_case "ch5: FDS fault degrades to list scheduling" `Quick
        test_ch5_fds_fault_degrades;
      Alcotest.test_case "ch5: Hungarian fault degrades to unmerged cliques"
        `Quick test_ch5_hungarian_fault_degrades;
      Alcotest.test_case "ch6: search fault degrades to dedicated buses"
        `Quick test_ch6_heuristic_fault_degrades;
      Alcotest.test_case "--no-fallback yields a typed diagnostic" `Quick
        test_no_fallback_is_typed;
      Alcotest.test_case "default policy changes nothing" `Quick
        test_default_policy_unaffected_by_ladder;
      Alcotest.test_case "cache quarantines corrupt entries" `Quick
        test_cache_quarantines_corrupt_entry;
      Alcotest.test_case "corrupt-cache fault is contained" `Quick
        test_corrupt_cache_fault;
      Alcotest.test_case "pool retries crashed jobs once" `Quick
        test_pool_retry_after_crash_fault;
    ]
    @ [ QCheck_alcotest.to_alcotest prop_resilience ] )
