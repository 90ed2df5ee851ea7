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
let with_server ?(domains = 2) ?(window_ms = 5.0) ?cache_dir f =
  let sock = tmp_name "sock" in
  let config =
    {
      Server.default_config with
      Server.socket_path = sock;
      domains;
      window_ms;
      cache_dir;
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
  with_server ~window_ms:30.0 @@ fun sock ->
  let c = Client.connect_unix sock in
  (* A 0.01 ms deadline is guaranteed dead by the time the 30 ms
     batching window flushes, so the typed answer is deterministic. *)
  match
    Client.submit_all c
      [ sub ~deadline_ms:0.01 ~fallback:false "dl" (rjob 3) ]
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
  match Client.submit_all c [ sub "a" j; sub "b" j ] with
  | Error m -> Alcotest.fail m
  | Ok ([ ra; rb ] as rs) ->
      checki "exactly one reply is coalesced" 1
        (List.length (List.filter (fun r -> r.P.coalesced) rs));
      (match (ra.P.outcome, rb.P.outcome) with
      | Some oa, Some ob ->
          checks "coalesced replies bit-identical" (Outcome.to_string oa)
            (Outcome.to_string ob);
          (* The solver-effort stats depend on the warm-start registry
             contents at solve time (a steered search certifies fewer
             bases), and the solo run here sits in a different warm
             context than the daemon's batch — so compare the result,
             not the effort. *)
          let result o = Outcome.to_string { o with Outcome.solver = None } in
          checks "and identical to a solo run" (result (Pool.exec j))
            (result oa)
      | _ -> Alcotest.fail "expected outcomes on both replies");
      Client.close c
  | Ok rs -> Alcotest.failf "expected two replies, got %d" (List.length rs)

let test_shutdown_drains_inflight () =
  with_server ~domains:1 ~window_ms:400.0 @@ fun sock ->
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
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_submit_roundtrip ] )
