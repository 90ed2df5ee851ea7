(* Tests for Mcs_server: wire-protocol codec round-trips (qcheck over
   mcs-job/1 submissions), an in-process daemon exercised over its real
   Unix socket (typed deadline exhaustion, coalescing bit-identity,
   graceful shutdown draining, injected worker crashes), and the
   domain-safety regression the daemon relies on: two domains hammering
   one cache key. *)

module Job = Mcs_engine.Job
module Outcome = Mcs_engine.Outcome
module Pool = Mcs_engine.Pool
module Cache = Mcs_engine.Cache
module M = Mcs_obs.Metrics
module J = Mcs_obs.Report_json
module P = Mcs_server.Protocol
module Server = Mcs_server.Server
module Client = Mcs_server.Client

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let counter name = M.count (M.counter name)

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcs-server-test-%d-%d.%s" (Unix.getpid ()) !n suffix)

let tmp_dir () =
  let dir = tmp_name "d" in
  Unix.mkdir dir 0o755;
  dir

(* Cheap deterministic jobs so daemon tests run in milliseconds. *)
let rjob ?(rate = 2) seed =
  Job.make
    ~design:(Job.Random_simple { seed; n_partitions = 2; ops_per_chip = 3 })
    ~flow:Job.Ch3 ~rate ()

let sub ?deadline_ms ?(fallback = true) id job =
  { P.id; job; deadline_ms; fallback }

let job ?pipe_length ?(design = Job.Named "ar-general")
    ?(flow = Job.Ch4_unidir) ?(rate = 3) () =
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

(* Run a daemon on its own socket in a spawned domain; always drain it
   (if the test has not already) and join before returning. *)
let with_server ?(domains = 2) ?(window_ms = 5.0) ?cache_dir ?wal_path f =
  let sock = tmp_name "sock" in
  let config =
    {
      Server.default_config with
      Server.socket_path = sock;
      domains;
      window_ms;
      cache_dir;
      wal_path;
    }
  in
  let t = Server.create ~config () in
  let d = Domain.spawn (fun () -> Server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect_unix sock in
         ignore (Client.shutdown c);
         Client.close c
       with _ -> () (* test already shut it down; socket is gone *));
      Domain.join d)
    (fun () -> f sock)

(* --- protocol codec --- *)

let test_protocol_corners () =
  (* Bare canonical job lines are accepted without JSON wrapping. *)
  (match P.request_of_string "mcs-job/1|ar-general|ch4-unidir|r3|pl-" with
  | Ok (P.Submit s) ->
      checks "bare line id" "" s.P.id;
      checkb "bare line fallback" true s.P.fallback;
      checkb "bare line deadline" true (s.P.deadline_ms = None);
      checks "bare line job" "mcs-job/1|ar-general|ch4-unidir|r3|pl-"
        (Job.to_string s.P.job)
  | Ok _ -> Alcotest.fail "bare job line should be a submission"
  | Error m -> Alcotest.fail m);
  let bad s =
    match P.request_of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "empty line rejected" true (bad "");
  checkb "versionless JSON rejected" true (bad "{}");
  checkb "wrong version rejected" true
    (bad "{\"v\": \"mcs-req/9\", \"stats\": true}");
  checkb "bad bare job rejected" true (bad "mcs-job/1|ar-general|ch9|r3|pl-");
  (* Control requests round-trip. *)
  List.iter
    (fun req ->
      match P.request_of_string (P.request_to_string req) with
      | Ok req' -> checkb "control round-trips" true (req = req')
      | Error m -> Alcotest.fail m)
    [ P.Stats_req; P.Shutdown_req ];
  (* Farewell round-trips; junk responses are typed errors. *)
  (match P.response_of_string (P.response_to_string (P.Bye { drained = 3 })) with
  | Ok (P.Bye { drained }) -> checki "bye drained" 3 drained
  | Ok _ -> Alcotest.fail "expected a Bye"
  | Error m -> Alcotest.fail m);
  checkb "versionless response rejected" true
    (match P.response_of_string "{\"id\": \"x\"}" with
    | Error _ -> true
    | Ok _ -> false)

let submit_gen =
  let open QCheck.Gen in
  let design =
    frequency
      [
        ( 3,
          oneofl [ "ar-simple"; "ar-general"; "elliptic"; "cond-demo" ]
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
  let jg =
    map
      (fun (design, flow, rate, pipe_length) ->
        Job.make ?pipe_length ~design ~flow ~rate ())
      (tup4 design (oneofl Job.all_flows) (int_range 1 12)
         (opt (int_range 1 40)))
  in
  map
    (fun (job, id, deadline, fallback) ->
      {
        P.id = (match id with None -> "" | Some n -> Printf.sprintf "id%d" n);
        job;
        (* Integer-valued deadlines keep the float codec exact. *)
        deadline_ms = Option.map float_of_int deadline;
        fallback;
      })
    (tup4 jg (opt (int_range 0 999)) (opt (int_range 1 100_000)) bool)

let submit_print (s : P.submit) = P.request_to_string (P.Submit s)

let prop_submit_roundtrip =
  QCheck.Test.make ~name:"Protocol submit round-trip" ~count:300
    (QCheck.make ~print:submit_print submit_gen)
    (fun s ->
      match P.request_of_string (P.request_to_string (P.Submit s)) with
      | Ok (P.Submit s') ->
          s.P.id = s'.P.id
          && Job.equal s.P.job s'.P.job
          && s.P.deadline_ms = s'.P.deadline_ms
          && s.P.fallback = s'.P.fallback
      | Ok _ | Error _ -> false)

let test_response_roundtrip () =
  let reply_eq (a : P.reply) (b : P.reply) =
    a.P.id = b.P.id
    && Option.equal Outcome.equal a.P.outcome b.P.outcome
    && a.P.diag = b.P.diag
    && a.P.cached = b.P.cached
    && a.P.coalesced = b.P.coalesced
    && a.P.wall_ms = b.P.wall_ms
  in
  List.iter
    (fun r ->
      match P.response_of_string (P.response_to_string (P.Reply r)) with
      | Ok (P.Reply r') -> checkb "reply round-trips" true (reply_eq r r')
      | Ok _ -> Alcotest.fail "expected a Reply"
      | Error m -> Alcotest.fail m)
    [
      {
        P.id = "a";
        outcome = Some (outcome (job ()));
        diag = None;
        cached = true;
        coalesced = false;
        wall_ms = 12.5;
      };
      {
        P.id = "b";
        outcome = None;
        diag = Some (P.exhausted_diag ~phase:"serve.deadline" "too late");
        cached = false;
        coalesced = true;
        wall_ms = 0.0;
      };
      {
        P.id = "";
        outcome =
          Some
            (outcome ~status:(Outcome.Infeasible "no schedule") ~pins:[]
               ~pipe_length:0 ~fu_count:0 (job ~rate:9 ()));
        diag =
          Some { P.code = "unschedulable"; phase = "sched"; message = "r9" };
        cached = false;
        coalesced = false;
        wall_ms = 250.0;
      };
    ]

(* --- domain-safety regressions --- *)

(* Two domains hammering one cache key: with per-entry bucket locks a
   lookup after the first store can never see a torn or quarantined
   entry (pre-lock, colliding temp files corrupted entries and the
   stale counter climbed). *)
let test_cache_domain_safety () =
  let c = Cache.open_dir (tmp_dir ()) in
  let j = job () in
  let o = outcome j in
  let stale0 = counter "engine.cache.stale" in
  let bad = Atomic.make 0 in
  let hammer () =
    for _ = 1 to 200 do
      Cache.store c j o;
      match Cache.lookup c j with
      | Some o' -> if not (Outcome.equal o o') then Atomic.incr bad
      | None -> Atomic.incr bad
    done
  in
  let d1 = Domain.spawn hammer in
  let d2 = Domain.spawn hammer in
  Domain.join d1;
  Domain.join d2;
  checki "no torn or missing reads" 0 (Atomic.get bad);
  checki "no entries went stale" stale0 (counter "engine.cache.stale")

(* --- the daemon over its socket --- *)

let test_deadline_exhausted () =
  with_server @@ fun sock ->
  let c = Client.connect_unix sock in
  (* A 0 ms deadline is dead by the time any domain picks the job up
     (an idle one dispatches at once), so the typed answer is
     deterministic. *)
  match
    Client.submit_all c
      [ sub ~deadline_ms:0.0 ~fallback:false "dl" (rjob 3) ]
  with
  | Error m -> Alcotest.fail m
  | Ok [ r ] ->
      checks "reply id" "dl" r.P.id;
      checkb "no outcome" true (r.P.outcome = None);
      (match r.P.diag with
      | Some d ->
          checks "typed exhausted" "exhausted" d.P.code;
          checks "deadline phase" "serve.deadline" d.P.phase
      | None -> Alcotest.fail "expected a typed diagnostic");
      Client.close c
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)

let test_coalesce_bit_identical () =
  with_server ~window_ms:250.0 @@ fun sock ->
  let c = Client.connect_unix sock in
  let j = rjob ~rate:3 31 in
  (* [submit_all] sends both lines in one write, so the second is
     admitted while the first is still in flight. *)
  match Client.submit_all c [ sub "a" j; sub "b" j ] with
  | Error m -> Alcotest.fail m
  | Ok ([ ra; rb ] as rs) ->
      checki "exactly one reply is coalesced" 1
        (List.length (List.filter (fun r -> r.P.coalesced) rs));
      (match (ra.P.outcome, rb.P.outcome) with
      | Some oa, Some ob ->
          checks "coalesced replies bit-identical" (Outcome.to_string oa)
            (Outcome.to_string ob);
          (* Solver effort stats included: no solver state passes
             between the daemon's batch and this solo run. *)
          checks "and identical to a solo run"
            (Outcome.to_string (Pool.exec j))
            (Outcome.to_string oa)
      | _ -> Alcotest.fail "expected outcomes on both replies");
      Client.close c
  | Ok rs -> Alcotest.failf "expected two replies, got %d" (List.length rs)

(* Arm a fault schedule for the duration of [f]; [Fault.reset] re-arms
   shot counters an earlier test may have consumed. *)
let with_fault schedule f =
  Unix.putenv "MCS_FAULT" schedule;
  Mcs_resilience.Fault.reset ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MCS_FAULT" "";
      Mcs_resilience.Fault.reset ())
    f

let test_shutdown_drains_inflight () =
  (* The hold-dispatch fault keeps the admitted job undispatched until
     the shutdown's forced flush. *)
  with_fault "hold-dispatch" @@ fun () ->
  with_server ~domains:1 @@ fun sock ->
  let a = Client.connect_unix sock in
  let b = Client.connect_unix sock in
  Client.send a (P.submit ~id:"drain1" (rjob 11));
  (* The stats round-trip on the same connection proves the submission
     was admitted (and still sits in its batching window) before the
     other client asks for shutdown. *)
  (match Client.stats a with
  | Ok j ->
      checki "job is queued in its window" 1
        (Option.value ~default:(-1)
           (Option.bind (J.member "queue_depth" j) J.to_int))
  | Error m -> Alcotest.fail m);
  (match Client.shutdown b with
  | Ok drained -> checkb "shutdown drained the in-flight job" true (drained >= 1)
  | Error m -> Alcotest.fail m);
  (match Client.recv a with
  | Ok (P.Reply r) ->
      checks "drained job still replied" "drain1" r.P.id;
      checkb "with a real outcome" true (r.P.outcome <> None)
  | Ok _ -> Alcotest.fail "expected the drained job's reply"
  | Error m -> Alcotest.fail m);
  Client.close a;
  Client.close b

let test_crash_fault_keeps_serving () =
  Unix.putenv "MCS_FAULT" "crash-worker:1";
  Fun.protect ~finally:(fun () -> Unix.putenv "MCS_FAULT" "") @@ fun () ->
  with_server ~domains:2 ~window_ms:5.0 @@ fun sock ->
  let c = Client.connect_unix sock in
  let crashed (r : P.reply) =
    match r.P.outcome with
    | Some o -> (
        match o.Outcome.status with Outcome.Crashed _ -> true | _ -> false)
    | None -> false
  in
  (match
     Client.submit_all c [ sub "f1" (rjob 21); sub "f2" (rjob 22); sub "f3" (rjob 23) ]
   with
  | Error m -> Alcotest.fail m
  | Ok rs ->
      checki "exactly one injected crash" 1
        (List.length (List.filter crashed rs)));
  (* The domain survived the injected crash: the daemon keeps serving. *)
  (match Client.submit_all c [ sub "f4" (rjob 24) ] with
  | Error m -> Alcotest.fail m
  | Ok [ r ] ->
      checkb "subsequent job is clean" false (crashed r);
      checkb "and has an outcome" true (r.P.outcome <> None)
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs));
  Client.close c

let one_reply c s =
  match Client.submit_all c [ s ] with
  | Ok [ r ] -> r
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  | Error m -> Alcotest.fail m

let admits wal =
  List.length
    (List.filter
       (function Mcs_server.Wal.Admit _ -> true | Mcs_server.Wal.Done _ -> false)
       (fst (Mcs_server.Wal.replay wal)))

(* An idle domain takes a lone miss at once: a 10 s window must not
   delay it. *)
let test_idle_dispatch () =
  with_server ~window_ms:10_000.0 @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let r = one_reply c (sub "lone" (rjob 41)) in
  checkb "lone miss has an outcome" true (r.P.outcome <> None);
  checkb "not a cache hit" false r.P.cached;
  checkb
    (Printf.sprintf "dispatched without waiting out the window (%.1f ms)"
       r.P.wall_ms)
    true (r.P.wall_ms < 1000.0)

(* A settled job is answered at admission: no batch, one cache miss for
   its key in all (the first run's), no journal admit for the repeat. *)
let test_settled_hit_at_admission () =
  let wal = tmp_name "wal" in
  with_server ~cache_dir:(tmp_dir ()) ~wal_path:wal @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let j = rjob ~rate:3 43 in
  let misses0 = counter "engine.cache.misses" in
  let first = one_reply c (sub "first" j) in
  checkb "first run executes" false first.P.cached;
  let batches1 = counter "server.batches" in
  let admits1 = admits wal in
  let again = one_reply c (sub "again" j) in
  checkb "repeat is a cache hit" true again.P.cached;
  checkb "not coalesced" false again.P.coalesced;
  (match (first.P.outcome, again.P.outcome) with
  | Some a, Some b ->
      checks "same outcome" (Outcome.to_string a) (Outcome.to_string b)
  | _ -> Alcotest.fail "expected outcomes on both replies");
  checki "no batch for the hit" batches1 (counter "server.batches");
  checki "the key missed once" (misses0 + 1) (counter "engine.cache.misses");
  checki "no journal admit for the hit" admits1 (admits wal)

(* The deadline rule holds at admission: a settled job whose deadline is
   already spent gets the typed serve.deadline diagnostic.  The cache is
   filled before the daemon starts, so no earlier latency feeds the
   admission predictor (which would refuse the request up front). *)
let test_settled_hit_expired_deadline () =
  let dir = tmp_dir () in
  let j = rjob ~rate:3 47 in
  Cache.store (Cache.open_dir dir) j (Pool.exec j);
  with_server ~cache_dir:dir @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let batches0 = counter "server.batches" in
  let r = one_reply c (sub ~deadline_ms:0.0 ~fallback:false "late" j) in
  checkb "no outcome" true (r.P.outcome = None);
  checkb "not reported cached" false r.P.cached;
  (match r.P.diag with
  | Some d ->
      checks "typed exhausted" "exhausted" d.P.code;
      checks "deadline phase" "serve.deadline" d.P.phase
  | None -> Alcotest.fail "expected a typed diagnostic");
  checki "answered at admission" batches0 (counter "server.batches");
  (* Without a deadline the same job is a plain hit. *)
  checkb "then served from cache" true (one_reply c (sub "on-time" j)).P.cached

(* With the only domain busy, the window opens: same-design submissions
   that arrive meanwhile still merge into one batch, dispatched as soon
   as the domain frees (well before the 10 s window). *)
let test_busy_domain_batches () =
  with_server ~domains:1 ~window_ms:10_000.0 @@ fun sock ->
  let a = Client.connect_unix sock in
  let b = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close a; Client.close b) @@ fun () ->
  let stat name =
    match Client.stats b with
    | Ok j -> Option.value ~default:(-1) (Option.bind (J.member name j) J.to_int)
    | Error m -> Alcotest.fail m
  in
  let batches0 = counter "server.batches" in
  (* A 200-operation generated design through Ch. 5 takes ~0.4 s on a
     2-vCPU VM (the paper points now finish in milliseconds), so the
     domain is still busy when the burst lands. *)
  let busy =
    job
      ~design:(Job.Random { seed = 3; n_partitions = 4; n_ops = 200 })
      ~flow:Job.Ch5 ~rate:4 ()
  in
  Client.send a (P.submit ~id:"busy" busy);
  let rec until_running n =
    if stat "inflight" = 1 then ()
    else if n = 0 then Alcotest.fail "busy job never dispatched"
    else (Unix.sleepf 0.001; until_running (n - 1))
  in
  until_running 5000;
  let burst = List.map (fun rate -> sub (Printf.sprintf "r%d" rate) (rjob ~rate 53)) [ 2; 3; 4 ] in
  List.iter (fun s -> Client.send a (P.Submit s)) burst;
  (* The stats round-trip on the burst's own connection proves all three
     were admitted; they wait in the window behind the busy domain. *)
  (match Client.stats a with
  | Ok j ->
      checki "burst waits in the window" 3
        (Option.value ~default:(-1) (Option.bind (J.member "queue_depth" j) J.to_int))
  | Error m -> Alcotest.fail m);
  let rec collect acc =
    if List.length acc = 4 then acc
    else
      match Client.recv a with
      | Ok (P.Reply r) -> collect (r :: acc)
      | Ok _ -> collect acc
      | Error m -> Alcotest.fail m
  in
  let replies = collect [] in
  List.iter
    (fun (r : P.reply) ->
      checkb (r.P.id ^ " has an outcome") true (r.P.outcome <> None);
      checkb (r.P.id ^ " did not wait out the window") true (r.P.wall_ms < 5000.0))
    replies;
  checki "busy job, then one merged batch" (batches0 + 2) (counter "server.batches")

let test_hits_skip_predictor () =
  let a = Mcs_server.Admission.make () in
  Mcs_server.Admission.observe a ~latency_ms:8.0;
  Mcs_server.Admission.observe ~predict:false a ~latency_ms:0.1;
  Mcs_server.Admission.observe ~predict:false a ~latency_ms:0.1;
  checkb "hits leave the predicted median alone" true
    (Mcs_server.Admission.median a = Some 8.0)

let suite =
  ( "server",
    [
      Alcotest.test_case "protocol request corners" `Quick
        test_protocol_corners;
      Alcotest.test_case "reply JSON round-trip" `Quick
        test_response_roundtrip;
      Alcotest.test_case "cache survives two domains on one key" `Quick
        test_cache_domain_safety;
      Alcotest.test_case "expired deadline gets typed exhausted" `Quick
        test_deadline_exhausted;
      Alcotest.test_case "coalesced jobs are bit-identical" `Quick
        test_coalesce_bit_identical;
      Alcotest.test_case "graceful shutdown drains in-flight" `Quick
        test_shutdown_drains_inflight;
      Alcotest.test_case "crash-worker fault leaves daemon serving" `Quick
        test_crash_fault_keeps_serving;
      Alcotest.test_case "idle domain dispatches a lone miss at once" `Quick
        test_idle_dispatch;
      Alcotest.test_case "settled repeat answered at admission" `Quick
        test_settled_hit_at_admission;
      Alcotest.test_case "settled hit past its deadline is typed" `Quick
        test_settled_hit_expired_deadline;
      Alcotest.test_case "busy domain still batches same-design jobs" `Quick
        test_busy_domain_batches;
      Alcotest.test_case "admission hits skip the predictor" `Quick
        test_hits_skip_predictor;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_submit_roundtrip ] )
