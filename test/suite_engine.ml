(* Tests for Mcs_engine: job codec round-trips, pool determinism across
   worker counts, crash isolation, stall limits and retries, cache
   behavior (hit / version-bump miss / corruption-as-miss), per-domain
   solver stats and Pareto extraction. *)

module Job = Mcs_engine.Job
module Outcome = Mcs_engine.Outcome
module Pool = Mcs_engine.Pool
module Cache = Mcs_engine.Cache
module Pareto = Mcs_engine.Pareto
module M = Mcs_obs.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let counter name = M.count (M.counter name)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mcs-engine-test-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    dir

let job ?pipe_length ?(design = Job.Named "ar-general") ?(flow = Job.Ch4_unidir)
    ?(rate = 3) () =
  Job.make ?pipe_length ~design ~flow ~rate ()

let outcome ?(status = Outcome.Feasible) ?(pins = [ (0, 8); (1, 16) ])
    ?(pipe_length = 7) ?(fu_count = 4) ?check j =
  {
    Outcome.job = j;
    status;
    pins;
    pipe_length;
    fu_count;
    check;
    degraded = [];
    solver = None;
    refine = None;
  }

(* --- Job codec --- *)

let test_job_encoding () =
  checks "named encoding"
    "mcs-job/1|ar-general|ch5|r4|pl8"
    (Job.to_string (job ~flow:Job.Ch5 ~rate:4 ~pipe_length:8 ()));
  checks "random encoding"
    "mcs-job/1|random:7:3:14|ch4-bidir|r3|pl-"
    (Job.to_string
       (job ~design:(Job.Random { seed = 7; n_partitions = 3; n_ops = 14 })
          ~flow:Job.Ch4_bidir ()));
  (* make canonicalizes: a pipe length is meaningless outside ch5 *)
  checks "pl dropped off ch5"
    "mcs-job/1|elliptic|ch6|r5|pl-"
    (Job.to_string (job ~design:(Job.Named "elliptic") ~flow:Job.Ch6 ~rate:5
                      ~pipe_length:9 ()))

let test_job_decoding_rejects () =
  let bad s =
    match Job.of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "bad magic" true (bad "mcs-job/2|ar-general|ch4-unidir|r3|pl-");
  checkb "bad flow" true (bad "mcs-job/1|ar-general|ch9|r3|pl-");
  checkb "bad rate" true (bad "mcs-job/1|ar-general|ch4-unidir|r0|pl-");
  checkb "pl on non-ch5" true (bad "mcs-job/1|ar-general|ch4-unidir|r3|pl7");
  checkb "bad design chars" true (bad "mcs-job/1|a b|ch4-unidir|r3|pl-");
  checkb "bad random params" true (bad "mcs-job/1|random:1:2|ch5|r3|pl-");
  checkb "good survives" false (bad "mcs-job/1|rsimple:-4:2:5|ch3|r2|pl-")

let job_gen =
  let open QCheck.Gen in
  let design =
    frequency
      [
        ( 3,
          oneofl
            [ "ar-simple"; "ar-general"; "elliptic"; "cond-demo"; "x_1-Y" ]
          >|= fun s -> Job.Named s );
        ( 1,
          map3
            (fun seed n_partitions n_ops ->
              Job.Random { seed; n_partitions; n_ops })
            (int_range (-50) 50) (int_range 1 5) (int_range 1 40) );
        ( 1,
          map3
            (fun seed n_partitions ops_per_chip ->
              Job.Random_simple { seed; n_partitions; ops_per_chip })
            (int_range (-50) 50) (int_range 1 5) (int_range 1 10) );
      ]
  in
  let flow = oneofl Job.all_flows in
  let pl = opt (int_range 1 40) in
  map
    (fun (design, flow, rate, pipe_length) ->
      Job.make ?pipe_length ~design ~flow ~rate ())
    (tup4 design flow (int_range 1 12) pl)

let prop_job_roundtrip =
  QCheck.Test.make ~name:"Job.to_string/of_string round-trip" ~count:500
    (QCheck.make ~print:Job.to_string job_gen)
    (fun j ->
      match Job.of_string (Job.to_string j) with
      | Ok j' -> Job.equal j j'
      | Error _ -> false)

(* --- Outcome codec --- *)

let test_outcome_roundtrip () =
  List.iter
    (fun o ->
      match Outcome.of_string (Outcome.to_string o) with
      | Ok o' -> checkb "round-trips" true (Outcome.equal o o')
      | Error m -> Alcotest.fail m)
    [
      outcome (job ());
      outcome ~status:(Outcome.Infeasible "no schedule at rate 3") ~pins:[]
        ~pipe_length:0 ~fu_count:0
        (job ~flow:Job.Ch5 ~rate:3 ~pipe_length:6 ());
      outcome ~status:(Outcome.Crashed "worker killed by signal 9") ~pins:[]
        (job ~rate:7 ());
      outcome ~status:Outcome.Timed_out ~pins:[] (job ~flow:Job.Ch6 ());
      outcome ~check:Outcome.Clean (job ());
      outcome ~check:(Outcome.Violations 2) (job ~flow:Job.Ch3 ());
    ]

(* --- Pool --- *)

(* Workers that never touch the real flows let the pool mechanics be
   tested deterministically and fast. *)
let synthetic_worker (j : Job.t) =
  outcome ~pins:[ (1, j.Job.rate) ] ~pipe_length:j.Job.rate ~fu_count:1 j

let test_pool_order_independent_of_completion () =
  let jobs = List.init 5 (fun i -> job ~rate:(i + 1) ()) in
  (* Earlier-submitted jobs sleep longer, so completion order is the
     reverse of submission order. *)
  let worker (j : Job.t) =
    Unix.sleepf (0.02 *. float_of_int (6 - j.Job.rate));
    synthetic_worker j
  in
  let results = Pool.run ~jobs:5 ~worker jobs in
  checki "five results" 5 (List.length results);
  List.iteri
    (fun i (o : Outcome.t) ->
      checki "submission order kept" (i + 1) o.Outcome.job.Job.rate;
      checkb "feasible" true (Outcome.is_feasible o))
    results

let test_pool_crash_isolation () =
  let jobs = List.init 3 (fun i -> job ~rate:(i + 1) ()) in
  let worker (j : Job.t) =
    if j.Job.rate = 2 then failwith "worker blew up" else synthetic_worker j
  in
  let before = counter "engine.pool.crashes" in
  let results = Pool.run ~jobs:2 ~worker jobs in
  checki "crash counted" (before + 1) (counter "engine.pool.crashes");
  match results with
  | [ a; b; c ] ->
      checkb "first survives" true (Outcome.is_feasible a);
      (match b.Outcome.status with
      | Outcome.Crashed m ->
          checks "exception reported" "Failure(\"worker blew up\")" m
      | _ -> Alcotest.fail "expected a crashed outcome");
      checkb "third survives" true (Outcome.is_feasible c)
  | _ -> Alcotest.fail "expected three results"

(* The sleeper's domain is abandoned, not joined: the run returns at the
   stall limit while it sleeps on. *)
let test_pool_timeout () =
  let jobs = [ job ~rate:1 (); job ~rate:2 () ] in
  let worker (j : Job.t) =
    if j.Job.rate = 1 then Unix.sleep 30;
    synthetic_worker j
  in
  let before = counter "engine.pool.timeouts" in
  let t0 = Unix.gettimeofday () in
  let results = Pool.run ~jobs:2 ~timeout:0.2 ~worker jobs in
  checkb "did not wait for the sleeper" true (Unix.gettimeofday () -. t0 < 10.0);
  checki "timeout counted" (before + 1) (counter "engine.pool.timeouts");
  match results with
  | [ a; b ] ->
      checkb "sleeper timed out" true (a.Outcome.status = Outcome.Timed_out);
      checkb "other survives" true (Outcome.is_feasible b)
  | _ -> Alcotest.fail "expected two results"

(* A stall is a strike like a crash: with [retry] the stalled job runs
   once more, and a second stall is final. *)
let test_pool_retry_after_stall () =
  let attempts = Atomic.make 0 in
  let worker (j : Job.t) =
    if Atomic.fetch_and_add attempts 1 = 0 then Unix.sleep 30;
    synthetic_worker j
  in
  let retries = counter "engine.pool.retries" in
  (match Pool.run ~timeout:0.2 ~retry:true ~worker [ job () ] with
  | [ o ] -> checkb "second attempt answers" true (Outcome.is_feasible o)
  | _ -> Alcotest.fail "expected one result");
  checki "retry counted" (retries + 1) (counter "engine.pool.retries");
  let worker j =
    Unix.sleep 30;
    synthetic_worker j
  in
  match Pool.run ~timeout:0.1 ~retry:true ~worker [ job () ] with
  | [ o ] ->
      checkb "two stalls time out" true (o.Outcome.status = Outcome.Timed_out)
  | _ -> Alcotest.fail "expected one result"

(* Real flows on random designs: one worker and four workers must agree
   exactly (whole outcomes, [solver] stats included, in order) — even
   for the Ch. 3 jobs of one design at neighboring rates, which run
   concurrently under four workers. *)
let prop_pool_worker_count_invariant =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        List.map
          (fun rate ->
            Job.make
              ~design:(Job.Random_simple
                         { seed; n_partitions = 2; ops_per_chip = 3 })
              ~flow:Job.Ch3 ~rate ())
          [ 2; 3; 4 ]
        @ [
          Job.make
            ~design:(Job.Random { seed; n_partitions = 2; n_ops = 10 })
            ~flow:Job.Ch4_unidir ~rate:3 ();
          Job.make
            ~design:(Job.Random { seed; n_partitions = 3; n_ops = 12 })
            ~flow:Job.Ch4_bidir ~rate:4 ();
          Job.make
            ~design:(Job.Random { seed; n_partitions = 2; n_ops = 10 })
            ~flow:Job.Ch6 ~rate:4 ();
        ])
      (QCheck.Gen.int_range 0 1000)
  in
  QCheck.Test.make ~name:"Pool.run ~jobs:1 == Pool.run ~jobs:4" ~count:40
    (QCheck.make
       ~print:(fun js -> String.concat "; " (List.map Job.to_string js))
       gen)
    (fun jobs ->
      let seq = Pool.run ~jobs:1 jobs in
      let par = Pool.run ~jobs:4 jobs in
      List.length seq = List.length par
      && List.for_all2
           (fun a b -> Outcome.to_string a = Outcome.to_string b)
           seq par)

(* A Ch. 3 job's effort is its own: run alone, and again after its rate
   neighbors on the same design in the same process, it gives the same
   whole outcome, [solver] stats included. *)
let test_ch3_outcome_independent_of_neighbors () =
  let design =
    Job.Random_simple { seed = 5; n_partitions = 3; ops_per_chip = 4 }
  in
  let ch3 rate = Job.make ~design ~flow:Job.Ch3 ~rate () in
  let alone = Outcome.to_string (Pool.exec (ch3 3)) in
  List.iter (fun r -> ignore (Pool.exec (ch3 r))) [ 2; 4 ];
  checks "same outcome after its neighbors" alone
    (Outcome.to_string (Pool.exec (ch3 3)))

(* --- Cache --- *)

let test_cache_hit_on_identical_job () =
  let c = Cache.open_dir ~version:"test-v1" (tmp_dir ()) in
  let j = job ~rate:4 () in
  let o = outcome j in
  checkb "cold lookup misses" true (Cache.lookup c j = None);
  Cache.store c j o;
  let hits = counter "engine.cache.hits" in
  (match Cache.lookup c j with
  | Some o' -> checkb "stored outcome returned" true (Outcome.equal o o')
  | None -> Alcotest.fail "expected a hit");
  checki "hit counted" (hits + 1) (counter "engine.cache.hits");
  (* a different job misses even with the cache warm *)
  checkb "different job misses" true (Cache.lookup c (job ~rate:5 ()) = None)

let test_cache_miss_after_version_bump () =
  let dir = tmp_dir () in
  let j = job () in
  let c1 = Cache.open_dir ~version:"test-v1" dir in
  Cache.store c1 j (outcome j);
  checkb "v1 hits" true (Cache.lookup c1 j <> None);
  let c2 = Cache.open_dir ~version:"test-v2" dir in
  let misses = counter "engine.cache.misses" in
  checkb "v2 misses" true (Cache.lookup c2 j = None);
  checki "counted as a miss, not stale" (misses + 1)
    (counter "engine.cache.misses");
  (* The same holds for the code's own version: an entry written before
     the last bump (mcs-engine/3) misses under the default handle. *)
  let old = Cache.open_dir ~version:"mcs-engine/3" dir in
  Cache.store old j (outcome j);
  checkb "old code version hits itself" true (Cache.lookup old j <> None);
  checkb "current code version misses it" true
    (Cache.lookup (Cache.open_dir dir) j = None)

let test_cache_corrupt_entry_is_miss () =
  let c = Cache.open_dir ~version:"test-v1" (tmp_dir ()) in
  let j = job () in
  Cache.store c j (outcome j);
  let oc = open_out_bin (Cache.entry_path c j) in
  output_string oc "{ not an entry";
  close_out oc;
  let stale = counter "engine.cache.stale" in
  checkb "corrupt entry treated as miss" true (Cache.lookup c j = None);
  checki "counted stale" (stale + 1) (counter "engine.cache.stale")

let test_cache_skips_unsettled_outcomes () =
  let c = Cache.open_dir ~version:"test-v1" (tmp_dir ()) in
  let j = job () in
  Cache.store c j (outcome ~status:(Outcome.Crashed "boom") ~pins:[] j);
  checkb "crash not stored" true (Cache.lookup c j = None);
  Cache.store c j (outcome ~status:Outcome.Timed_out ~pins:[] j);
  checkb "timeout not stored" true (Cache.lookup c j = None);
  Cache.store c j (outcome ~status:(Outcome.Infeasible "no schedule") ~pins:[] j);
  checkb "infeasible is settled and stored" true (Cache.lookup c j <> None)

let test_pool_uses_cache () =
  let c = Cache.open_dir ~version:"test-v1" (tmp_dir ()) in
  let jobs =
    List.init 3 (fun i ->
        job
          ~design:
            (Job.Random_simple { seed = 5; n_partitions = 2; ops_per_chip = 3 })
          ~flow:Job.Ch3 ~rate:(i + 2) ())
  in
  let executed = counter "engine.jobs.executed" in
  let cold = Pool.run ~jobs:2 ~cache:c jobs in
  checki "cold run executes every job" (executed + 3)
    (counter "engine.jobs.executed");
  let hits = counter "engine.cache.hits" in
  let warm = Pool.run ~jobs:2 ~cache:c jobs in
  checki "warm run hits every job" (hits + 3) (counter "engine.cache.hits");
  checki "warm run executes nothing" (executed + 3)
    (counter "engine.jobs.executed");
  checkb "warm equals cold" true (List.for_all2 Outcome.equal cold warm)

(* --- Per-domain counters --- *)

(* Two domains overlap behind a barrier: one runs a job, the other bumps
   a certification counter the whole time.  The job's solver stats must
   be its own (ch4 on ar-general certifies nothing), and the merged
   counter must hold every increment of both.  A job takes a couple of
   milliseconds, so on a loaded host the bumping domain may not get a
   processor while one runs: the job is repeated (up to 50 times) until
   a run overlaps bumps, and every run's stats are checked. *)
let test_solver_stats_per_domain () =
  let c_ok = M.counter "ilp.certify.ok" in
  let arrived = Atomic.make 0 and job_done = Atomic.make false in
  let bumped = Atomic.make 0 in
  let barrier () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do Domain.cpu_relax () done
  in
  let before = M.count c_ok in
  let noise =
    Domain.spawn (fun () ->
        barrier ();
        let n = ref 0 in
        while not (Atomic.get job_done) do
          M.incr c_ok;
          incr n;
          Atomic.set bumped !n
        done;
        !n)
  in
  let runner =
    Domain.spawn (fun () ->
        barrier ();
        let rec go tries outcomes =
          let b0 = Atomic.get bumped in
          let o = Pool.exec (job ~rate:3 ()) in
          let overlapped = Atomic.get bumped > b0 in
          if overlapped || tries = 1 then (overlapped, o :: outcomes)
          else go (tries - 1) (o :: outcomes)
        in
        let r = go 50 [] in
        Atomic.set job_done true;
        r)
  in
  let bumps = Domain.join noise in
  let overlapped, outcomes = Domain.join runner in
  checkb "the counter really moved during a job" true overlapped;
  List.iter
    (fun (o : Outcome.t) ->
      match o.Outcome.solver with
      | Some s -> checki "job's own certifications only" 0 s.Outcome.certify_ok
      | None -> Alcotest.fail "expected solver stats")
    outcomes;
  checki "merged count is exact" (before + bumps) (M.count c_ok)

(* Histograms are sharded per domain like counters: the list scheduler's
   [ls.ready_size] observations, made from both domains of a two-job
   pool, add up to exactly what one domain observes for the same jobs. *)
let test_histogram_exact_across_domains () =
  let jobs =
    List.concat_map
      (fun rate ->
        [
          job ~rate ();
          job ~design:(Job.Named "elliptic") ~flow:Job.Ch6 ~rate:(rate + 3) ();
        ])
      [ 3; 4; 5 ]
  in
  let ready () =
    match List.assoc_opt "ls.ready_size" (M.snapshot ()) with
    | Some (M.Histogram { counts; total; sum; _ }) -> (Array.to_list counts, total, sum)
    | _ -> Alcotest.fail "ls.ready_size is not a registered histogram"
  in
  let observed ~jobs:n =
    let counts0, total0, sum0 = ready () in
    let (_ : Outcome.t list) = Pool.run ~jobs:n jobs in
    let counts1, total1, sum1 = ready () in
    (List.map2 ( - ) counts1 counts0, total1 - total0, sum1 - sum0)
  in
  let one_counts, one_total, one_sum = observed ~jobs:1 in
  let two_counts, two_total, two_sum = observed ~jobs:2 in
  checkb "the jobs list-schedule" true (one_total > 0);
  checki "observations" one_total two_total;
  checki "sum" one_sum two_sum;
  checkb "bucket counts" true (one_counts = two_counts)

(* --- Pareto --- *)

let test_pareto_frontier () =
  let o rate pins pipe fus =
    outcome ~pins:[ (1, pins) ] ~pipe_length:pipe ~fu_count:fus
      (job ~rate ())
  in
  let dominated = o 1 100 10 5 in
  let a = o 2 80 10 5 in
  let b = o 3 100 8 5 in
  let infeasible =
    outcome ~status:(Outcome.Infeasible "x") ~pins:[] ~pipe_length:0
      ~fu_count:0 (job ~rate:4 ())
  in
  let front = Pareto.frontier [ dominated; a; b; infeasible ] in
  checki "two undominated points" 2 (List.length front);
  checkb "dominated excluded" true (not (List.memq dominated front));
  checkb "infeasible excluded" true (not (List.memq infeasible front));
  checkb "equal points both survive" true
    (List.length (Pareto.frontier [ a; a ]) = 2);
  match Pareto.best [ dominated; a; b ] `Pipe with
  | Some best -> checki "best pipe" 8 best.Outcome.pipe_length
  | None -> Alcotest.fail "expected a best point"

let test_dse_report_shape () =
  let results =
    [
      outcome (job ~flow:Job.Ch5 ~rate:3 ~pipe_length:7 ());
      outcome ~status:(Outcome.Infeasible "no schedule") ~pins:[]
        ~pipe_length:0 ~fu_count:0 (job ~rate:9 ());
    ]
  in
  let r = Pareto.report results in
  let module J = Mcs_obs.Report_json in
  (match Option.bind (J.member "schema" r) J.to_str with
  | Some s -> checks "schema" "mcs-dse/1" s
  | None -> Alcotest.fail "missing schema");
  (match J.of_string (J.to_string r) with
  | Ok r' -> checkb "report JSON round-trips" true (r = r')
  | Error m -> Alcotest.fail m);
  match Option.bind (J.member "summary" r) (J.member "feasible") with
  | Some (J.Int 1) -> ()
  | _ -> Alcotest.fail "summary.feasible should be 1"

let suite =
  ( "engine",
    [
      Alcotest.test_case "job canonical encoding" `Quick test_job_encoding;
      Alcotest.test_case "job decoder rejects junk" `Quick
        test_job_decoding_rejects;
      Alcotest.test_case "outcome JSON round-trip" `Quick
        test_outcome_roundtrip;
      Alcotest.test_case "pool keeps submission order" `Quick
        test_pool_order_independent_of_completion;
      Alcotest.test_case "pool crash isolation" `Quick
        test_pool_crash_isolation;
      Alcotest.test_case "pool per-job timeout" `Quick test_pool_timeout;
      Alcotest.test_case "pool retries a stalled job once" `Quick
        test_pool_retry_after_stall;
      Alcotest.test_case "Ch. 3 outcome independent of rate neighbors" `Quick
        test_ch3_outcome_independent_of_neighbors;
      Alcotest.test_case "solver stats stay per domain" `Quick
        test_solver_stats_per_domain;
      Alcotest.test_case "histograms exact across domains" `Quick
        test_histogram_exact_across_domains;
      Alcotest.test_case "cache hit on identical job" `Quick
        test_cache_hit_on_identical_job;
      Alcotest.test_case "cache miss after version bump" `Quick
        test_cache_miss_after_version_bump;
      Alcotest.test_case "cache corrupt entry is a miss" `Quick
        test_cache_corrupt_entry_is_miss;
      Alcotest.test_case "cache skips crashes and timeouts" `Quick
        test_cache_skips_unsettled_outcomes;
      Alcotest.test_case "pool serves warm jobs from cache" `Quick
        test_pool_uses_cache;
      Alcotest.test_case "pareto frontier" `Quick test_pareto_frontier;
      Alcotest.test_case "mcs-dse/1 report shape" `Quick test_dse_report_shape;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_job_roundtrip; prop_pool_worker_count_invariant ] )
