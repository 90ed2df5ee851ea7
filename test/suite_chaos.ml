(* The chaos harness: crash-safety tests for the daemon's supervisor,
   durable request journal and hostile-socket hardening.

   WAL codec units and a qcheck prefix-truncation property (any torn
   journal recovers exactly the complete records), supervisor units for
   stuck-domain supersession and poison quarantine, and live-daemon
   tests driven by the MCS_FAULT chaos modes: kill-domain poisoning a
   repeat offender, a randomized fault schedule under which every
   accepted request is answered exactly once and the daemon outlives the
   schedule, a kill-and---recover round trip that loses zero admitted
   requests, oversized frames, slowloris reaping, stale-socket probing
   and a signal storm over the main loop's EINTR handling. *)

module Job = Mcs_engine.Job
module Pool = Mcs_engine.Pool
module M = Mcs_obs.Metrics
module Fault = Mcs_resilience.Fault
module P = Mcs_server.Protocol
module Server = Mcs_server.Server
module Client = Mcs_server.Client
module Supervisor = Mcs_engine.Supervisor
module Wal = Mcs_server.Wal

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
      (Printf.sprintf "mcs-chaos-test-%d-%d.%s" (Unix.getpid ()) !n suffix)

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

(* Poll [cond] (calling it is allowed to do work, e.g. a supervision
   tick) until it holds or the deadline passes. *)
let eventually ?(timeout_s = 30.0) cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* Arm a fault schedule for the duration of [f] and disarm afterwards;
   [Fault.reset] re-arms shot counters even when the same schedule was
   used by an earlier test. *)
let with_fault schedule f =
  Unix.putenv "MCS_FAULT" schedule;
  Fault.reset ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MCS_FAULT" "";
      Fault.reset ())
    f

(* Like Suite_server's harness but exposing the crash-safety knobs. *)
let with_server ?(domains = 2) ?(window_ms = 5.0) ?cache_dir ?wal_path
    ?(recover = false) ?socket_path
    ?(read_deadline_s = Server.default_config.Server.read_deadline_s)
    ?(idle_timeout_s = Server.default_config.Server.idle_timeout_s)
    ?(max_frame = Server.default_config.Server.max_frame)
    ?(stall_s = Server.default_config.Server.stall_s) ?(before_serve = ignore) f
    =
  let sock = match socket_path with Some s -> s | None -> tmp_name "sock" in
  let config =
    {
      Server.default_config with
      Server.socket_path = sock;
      domains;
      window_ms;
      cache_dir;
      wal_path;
      recover;
      read_deadline_s;
      idle_timeout_s;
      max_frame;
      stall_s;
    }
  in
  let t = Server.create ~config () in
  before_serve ();
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

(* Raw-socket helpers for hostile-client tests (the typed Client is too
   polite to send garbage). *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let raw_read_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | n -> (
        let s = Bytes.sub_string chunk 0 n in
        match String.index_opt s '\n' with
        | Some i ->
            Buffer.add_string buf (String.sub s 0 i);
            Some (Buffer.contents buf)
        | None ->
            Buffer.add_string buf s;
            go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let raw_at_eof fd =
  let chunk = Bytes.create 64 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> true
    | _ -> go () (* drain any residue before the close *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --- WAL codec and recovery --- *)

(* Structural comparison via a rendering: Job.t is abstract-ish and the
   polymorphic equality would depend on representation details. *)
let record_str = function
  | Wal.Admit { id; job; deadline_ms; fallback } ->
      Printf.sprintf "A[%s][%s][%s][%b]" id (Job.to_string job)
        (match deadline_ms with None -> "-" | Some d -> string_of_float d)
        fallback
  | Wal.Done { id } -> Printf.sprintf "D[%s]" id

let check_records label expected got =
  Alcotest.(check (list string))
    label
    (List.map record_str expected)
    (List.map record_str got)

let test_wal_roundtrip () =
  let path = tmp_name "wal" in
  let records =
    [
      (* ids may contain the field separator and spaces; the codec
         length-prefixes them. *)
      Wal.Admit
        {
          id = "a|b c";
          job = rjob 1;
          deadline_ms = Some 1500.0;
          fallback = false;
        };
      Wal.Done { id = "a|b c" };
      Wal.Admit { id = ""; job = rjob 2; deadline_ms = None; fallback = true };
      Wal.Admit
        { id = "x"; job = rjob 2 ~rate:3; deadline_ms = None; fallback = true };
      Wal.Done { id = "never-admitted" };
    ]
  in
  let w = Wal.open_ path in
  checks "path" path (Wal.path w);
  List.iter (Wal.append ~sync:false w) records;
  Wal.close w;
  let got, torn = Wal.replay path in
  checki "no torn records" 0 torn;
  check_records "replay round-trips" records got;
  (* Incomplete = admits not retired by a done, in admit order; a done
     without an admit is ignored. *)
  check_records "incomplete"
    [ List.nth records 2; List.nth records 3 ]
    (Wal.incomplete got);
  (* A missing file replays as empty. *)
  let none, torn' = Wal.replay (tmp_name "wal") in
  checki "missing file" 0 (List.length none);
  checki "missing file torn" 0 torn'

let test_wal_incomplete_multiset () =
  (* Request ids may repeat across a journal's lifetime: each done
     retires exactly one admit. *)
  let adm id seed =
    Wal.Admit { id; job = rjob seed; deadline_ms = None; fallback = true }
  in
  let records =
    [ adm "x" 1; adm "x" 2; Wal.Done { id = "x" }; adm "y" 3 ]
  in
  let inc = Wal.incomplete records in
  checki "one x admit retired" 2 (List.length inc);
  checkb "y survives" true
    (List.exists (function Wal.Admit { id = "y"; _ } -> true | _ -> false) inc)

let test_wal_compact () =
  let path = tmp_name "wal" in
  let w = Wal.open_ path in
  List.iter
    (fun i ->
      Wal.append ~sync:false w
        (Wal.Admit
           {
             id = Printf.sprintf "k%d" i;
             job = rjob i;
             deadline_ms = None;
             fallback = true;
           }))
    [ 1; 2; 3; 4 ];
  Wal.close w;
  let got, _ = Wal.replay path in
  let keep = List.filteri (fun i _ -> i < 2) got in
  Wal.compact path keep;
  let got', torn = Wal.replay path in
  checki "compact drops torn count" 0 torn;
  check_records "compacted to exactly the kept records" keep got';
  (* The compacted journal accepts further appends. *)
  let w = Wal.open_ path in
  Wal.append ~sync:false w (Wal.Done { id = "k1" });
  Wal.close w;
  let got'', _ = Wal.replay path in
  checki "append after compact" 3 (List.length got'');
  checki "k2 still owed" 1 (List.length (Wal.incomplete got''))

let test_wal_torn_fault () =
  let path = tmp_name "wal" in
  let adm i =
    Wal.Admit
      {
        id = Printf.sprintf "t%d" i;
        job = rjob i;
        deadline_ms = None;
        fallback = true;
      }
  in
  let injected0 = counter "server.wal.torn_injected" in
  let w = Wal.open_ path in
  Wal.append ~sync:false w (adm 1);
  with_fault "wal-torn" (fun () -> Wal.append ~sync:false w (adm 2));
  Wal.append ~sync:false w (adm 3);
  Wal.append ~sync:false w (adm 4);
  Wal.close w;
  checki "torn injection counted" (injected0 + 1)
    (counter "server.wal.torn_injected");
  let got, torn = Wal.replay path in
  checki "exactly one torn record" 1 torn;
  (* The torn middle record is dropped; every intact neighbour parses. *)
  check_records "neighbours intact" [ adm 1; adm 3; adm 4 ] got

(* Any prefix truncation of a journal recovers exactly the records
   whose terminating newline survived; an unterminated tail counts as
   one torn record. *)
let prop_wal_prefix_truncation =
  let gen =
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 10) (pair bool (int_bound 4)))
        (int_bound 100_000))
  in
  let print (specs, cut) =
    Printf.sprintf "cut=%d specs=[%s]" cut
      (String.concat ";"
         (List.map (fun (a, k) -> Printf.sprintf "%b:%d" a k) specs))
  in
  QCheck.Test.make ~name:"wal prefix truncation recovers complete records"
    ~count:60
    (QCheck.set_print print gen)
    (fun (specs, cutraw) ->
      let records =
        List.mapi
          (fun i (is_admit, k) ->
            if is_admit then
              Wal.Admit
                {
                  id = Printf.sprintf "id|%d %c" i (Char.chr (97 + k));
                  job = rjob k ~rate:(2 + (k mod 2));
                  deadline_ms = (if k mod 2 = 0 then Some (50.0 +. float_of_int k) else None);
                  fallback = k mod 3 = 0;
                }
            else Wal.Done { id = Printf.sprintf "id|%d" k })
          specs
      in
      let path = tmp_name "wal" in
      let w = Wal.open_ path in
      List.iter (Wal.append ~sync:false w) records;
      Wal.close w;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let cut = cutraw mod (String.length full + 1) in
      let prefix = String.sub full 0 cut in
      let torn_path = tmp_name "wal" in
      Out_channel.with_open_bin torn_path (fun oc ->
          Out_channel.output_string oc prefix);
      let complete_lines =
        String.fold_left (fun n ch -> if ch = '\n' then n + 1 else n) 0 prefix
      in
      let expected = List.filteri (fun i _ -> i < complete_lines) records in
      let got, torn = Wal.replay torn_path in
      let expect_torn =
        if cut > 0 && prefix.[cut - 1] <> '\n' then 1 else 0
      in
      List.map record_str got = List.map record_str expected
      && torn = expect_torn)

(* --- the strikes ledger --- *)

let test_strikes_ledger () =
  let s = Supervisor.Strikes.create () in
  checki "limit" 2 (Supervisor.Strikes.max_strikes s);
  checki "unseen" 0 (Supervisor.Strikes.count s "j");
  checkb "first strike retries" true (Supervisor.Strikes.record s "j" = `Retry 1);
  checkb "not yet poisoned" false (Supervisor.Strikes.poisoned s "j");
  checkb "second strike poisons" true (Supervisor.Strikes.record s "j" = `Poisoned 2);
  checkb "poisoned" true (Supervisor.Strikes.poisoned s "j");
  checkb "other keys unaffected" false (Supervisor.Strikes.poisoned s "k");
  Supervisor.Strikes.forgive s "j";
  checki "forgiven" 0 (Supervisor.Strikes.count s "j")

(* --- supervisor units (generic over plain strings) --- *)

let collector () =
  let mx = Mutex.create () in
  let items = ref [] in
  let push x =
    Mutex.lock mx;
    items := x :: !items;
    Mutex.unlock mx
  in
  let get () =
    Mutex.lock mx;
    let xs = List.rev !items in
    Mutex.unlock mx;
    xs
  in
  (push, get)

let test_supervisor_stuck_domain () =
  let deliver, delivered = collector () in
  let first = Atomic.make true in
  let sup =
    Supervisor.create ~domains:2 ~stall_s:0.08 ~backoff_ms:5.0
      ~key:(fun s -> s)
      ~exec:(fun entries i ->
        let e = entries.(i) in
        (* Only the first attempt wedges: the requeued attempt (on the
           replacement claim) completes immediately. *)
        if e = "sleepy" && Atomic.compare_and_set first true false then
          Unix.sleepf 0.5;
        e ^ "!")
      ~deliver
      ~on_poisoned:(fun _ ~strikes:_ -> ())
      ~on_wake:(fun () -> ())
      ()
  in
  checki "size" 2 (Supervisor.size sup);
  checkb "submit accepted" true (Supervisor.submit sup [| "sleepy" |]);
  let ok =
    eventually (fun () ->
        Supervisor.check sup ~now:(Unix.gettimeofday ());
        List.length (delivered ()) >= 1)
  in
  checkb "requeued entry delivered after supersession" true ok;
  checki "stuck domain parked as zombie" 1 (Supervisor.zombie_count sup);
  checkb "delivered the completion" true (delivered () = [ "sleepy!" ]);
  (* The superseded zombie wakes eventually; its stale claim must be
     discarded, never delivered a second time. *)
  Unix.sleepf 0.6;
  Supervisor.check sup ~now:(Unix.gettimeofday ());
  checki "exactly one delivery" 1 (List.length (delivered ()));
  checkb "a clean completion forgives the strike" false
    (Supervisor.Strikes.poisoned (Supervisor.strikes sup) "sleepy");
  Supervisor.shutdown sup

let test_supervisor_poison () =
  let deliver, delivered = collector () in
  let on_poisoned, poisoned = collector () in
  let poisoned0 = counter "server.poisoned" in
  let requeued0 = counter "server.requeued" in
  let sup =
    Supervisor.create ~domains:2 ~stall_s:30.0 ~backoff_ms:5.0
      ~key:(fun s -> s)
      ~exec:(fun entries i ->
        let e = entries.(i) in
        if e = "lethal" then raise Supervisor.Domain_killed;
        e)
      ~deliver
      ~on_poisoned:(fun e ~strikes -> on_poisoned (e, strikes))
      ~on_wake:(fun () -> ())
      ()
  in
  checkb "submit accepted" true
    (Supervisor.submit sup [| "a"; "lethal"; "b" |]);
  let ok =
    eventually (fun () ->
        Supervisor.check sup ~now:(Unix.gettimeofday ());
        List.length (delivered ()) >= 2 && List.length (poisoned ()) >= 1)
  in
  checkb "survivors delivered, offender quarantined" true ok;
  checkb "healthy entries completed" true
    (List.sort compare (delivered ()) = [ "a"; "b" ]);
  checkb "offender reported with its strike count" true
    (poisoned () = [ ("lethal", 2) ]);
  checkb "circuit open for the offender" true
    (Supervisor.poisoned_key sup "lethal");
  checkb "circuit closed for the innocent" false
    (Supervisor.poisoned_key sup "a");
  checki "poison counted once" (poisoned0 + 1) (counter "server.poisoned");
  checkb "requeues counted" true (counter "server.requeued" > requeued0);
  Supervisor.shutdown sup;
  (* Empty and post-shutdown submissions. *)
  checkb "post-shutdown submit refused" false (Supervisor.submit sup [| "z" |])

(* --- live daemon under the chaos faults --- *)

let test_kill_domain_poisons () =
  let poisoned0 = counter "server.poisoned" in
  let respawns0 = counter "server.respawns" in
  with_fault "kill-domain:2" @@ fun () ->
  with_server ~domains:2 @@ fun sock ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let victim = rjob 41 in
  (match Client.submit_all c [ sub "v" victim ] with
  | Error m -> Alcotest.fail m
  | Ok [ r ] ->
      checkb "no outcome" true (r.P.outcome = None);
      (match r.P.diag with
      | Some d -> checks "typed poisoned diag" "poisoned" d.P.code
      | None -> Alcotest.fail "poisoned reply must carry a diag")
  | Ok _ -> Alcotest.fail "one reply expected");
  checki "poison counted" (poisoned0 + 1) (counter "server.poisoned");
  (* Resubmitting the quarantined job fast-fails at admission. *)
  (match Client.submit_all c [ sub "v2" victim ] with
  | Ok [ r ] -> (
      match r.P.diag with
      | Some d ->
          checks "breaker diag" "poisoned" d.P.code;
          checks "breaker phase" "serve.admission" d.P.phase
      | None -> Alcotest.fail "breaker reply must carry a diag")
  | Ok _ | Error _ -> Alcotest.fail "breaker reply expected");
  (* The pool survived: both killed domains respawn and a fresh job is
     served normally. *)
  checkb "both domains respawned" true
    (eventually (fun () -> counter "server.respawns" >= respawns0 + 2));
  match Client.submit_all c [ sub "w" (rjob 42) ] with
  | Ok [ r ] -> checkb "daemon still serves" true (r.P.outcome <> None)
  | Ok _ | Error _ -> Alcotest.fail "fresh job should be served"

let test_chaos_schedule_exactly_once () =
  let requeued0 = counter "server.requeued" in
  with_fault "kill-domain:2,stall-conn:1" @@ fun () ->
  with_server ~domains:2 ~window_ms:2.0 @@ fun sock ->
  (* The first accepted connection takes the stall-conn shot: it goes
     silent server-side and must not absorb the workload's replies. *)
  let silent = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close silent) @@ fun () ->
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* Randomized (seeded) schedule: jobs in random order, the two
     domain kills landing on whichever entries the dispatcher picked. *)
  Random.init 0xC4A05;
  let n = 12 in
  let ids = List.init n (fun i -> Printf.sprintf "x%d" i) in
  let jobs =
    List.init n (fun i ->
        rjob (Random.int 1000) ~rate:(2 + (i mod 2)))
  in
  List.iter2 (fun id j -> Client.send c (P.Submit (sub id j))) ids jobs;
  let replies = Hashtbl.create n in
  let rec collect () =
    if Hashtbl.length replies < n then
      match Client.recv c with
      | Error m -> Alcotest.fail m
      | Ok (P.Reply r) ->
          checkb "reply id belongs to the schedule" true (List.mem r.P.id ids);
          checkb
            (Printf.sprintf "first reply for %s" r.P.id)
            false (Hashtbl.mem replies r.P.id);
          Hashtbl.replace replies r.P.id r;
          collect ()
      | Ok (P.Stats _ | P.Bye _) -> collect ()
  in
  collect ();
  (* Every accepted request answered: an outcome or a typed diag. *)
  List.iter
    (fun id ->
      let r = Hashtbl.find replies id in
      checkb
        (Printf.sprintf "%s answered" id)
        true
        (r.P.outcome <> None || r.P.diag <> None))
    ids;
  (* Exactly once: any duplicate would arrive before the stats reply
     on this ordered stream. *)
  Client.send c P.Stats_req;
  let rec drain () =
    match Client.recv c with
    | Ok (P.Stats _) -> ()
    | Ok (P.Reply r) ->
        Alcotest.failf "duplicate reply for %s after settlement" r.P.id
    | Ok (P.Bye _) -> drain ()
    | Error m -> Alcotest.fail m
  in
  drain ();
  checkb "the kills forced requeues" true (counter "server.requeued" > requeued0);
  (* The daemon outlives the schedule. *)
  match Client.submit_all c [ sub "after" (rjob 77) ] with
  | Ok [ r ] -> checkb "daemon outlives the schedule" true (r.P.outcome <> None)
  | Ok _ | Error _ -> Alcotest.fail "post-schedule job should be served"

let test_kill_and_recover () =
  let wal = tmp_name "wal" in
  let cache = tmp_dir () in
  let jobs = [ rjob 101; rjob 102; rjob 103 ] in
  (* Daemon #1: the hold-dispatch fault (consumed when it is created)
     keeps the admitted requests journaled but never dispatched — then
     we abandon it mid-flight (its domains leak until process exit), the
     in-process stand-in for kill -9. *)
  let sock1 = tmp_name "sock" in
  let cfg1 =
    {
      Server.default_config with
      Server.socket_path = sock1;
      domains = 1;
      cache_dir = Some cache;
      wal_path = Some wal;
    }
  in
  let t1 = with_fault "hold-dispatch" (fun () -> Server.create ~config:cfg1 ()) in
  let (_ : unit Domain.t) = Domain.spawn (fun () -> Server.serve t1) in
  let c = Client.connect_unix sock1 in
  List.iteri
    (fun i j -> Client.send c (P.Submit (sub (Printf.sprintf "r%d" i) j)))
    jobs;
  (* A stats round-trip on the same ordered stream proves the admits
     were processed — and therefore fsync'd to the journal. *)
  (match Client.stats c with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Client.close c;
  (* The journal alone must already owe all three requests. *)
  let records, torn = Wal.replay wal in
  checki "journal intact" 0 torn;
  checki "journal owes every admitted request" (List.length jobs)
    (List.length (Wal.incomplete records));
  (* Daemon #2 recovers the journal through the normal queue.  Its
     recovery is checked before its loop runs: an idle domain would
     otherwise settle the replayed requests (and mark them done) at
     once. *)
  let recovered0 = counter "server.wal.recovered" in
  let recovery_checks () =
    checki "every owed request recovered"
      (recovered0 + List.length jobs)
      (counter "server.wal.recovered");
    (* Recovery compacted the journal: the owed admits are journaled
       afresh, not duplicated. *)
    let records', _ = Wal.replay wal in
    checki "compacted journal owes the same requests" (List.length jobs)
      (List.length (Wal.incomplete records'))
  in
  with_server ~domains:2 ~window_ms:2.0 ~cache_dir:cache ~wal_path:wal
    ~recover:true ~before_serve:recovery_checks
  @@ fun sock ->
  (* Zero lost: resubmitting the same jobs either coalesces with the
     in-flight recovered computation or hits the cache it filled. *)
  let c2 = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  match
    Client.submit_all c2
      (List.mapi (fun i j -> sub (Printf.sprintf "q%d" i) j) jobs)
  with
  | Error m -> Alcotest.fail m
  | Ok rs ->
      List.iter
        (fun (r : P.reply) ->
          checkb
            (Printf.sprintf "%s has an outcome" r.P.id)
            true (r.P.outcome <> None);
          checkb
            (Printf.sprintf "%s was not recomputed from scratch" r.P.id)
            true
            (r.P.cached || r.P.coalesced))
        rs

(* Replay goes through the admission path: an owed admit whose outcome
   is already cached is marked done without executing; only the other
   one runs. *)
let test_recover_settled () =
  let wal = tmp_name "wal" in
  let cache = tmp_dir () in
  let settled = rjob 111 and owed = rjob 112 in
  Mcs_engine.Cache.store (Mcs_engine.Cache.open_dir cache) settled
    (Pool.exec settled);
  let w = Wal.open_ wal in
  List.iter
    (fun (id, job) ->
      Wal.append w (Wal.Admit { id; job; deadline_ms = None; fallback = true }))
    [ ("settled", settled); ("owed", owed) ];
  Wal.close w;
  let recovered0 = counter "server.wal.recovered"
  and served0 = counter "server.served"
  and batches0 = counter "server.batches" in
  with_server ~cache_dir:cache ~wal_path:wal ~recover:true @@ fun _sock ->
  checki "both admits replayed" (recovered0 + 2)
    (counter "server.wal.recovered");
  checkb "both settle" true
    (eventually (fun () -> counter "server.served" >= served0 + 2));
  checki "only the uncached admit executed" (batches0 + 1)
    (counter "server.batches");
  checkb "journal owes nothing" true
    (eventually (fun () -> Wal.incomplete (fst (Wal.replay wal)) = []))

let test_oversized_frame () =
  let oversized0 = counter "server.oversized" in
  with_server ~max_frame:2048 @@ fun sock ->
  (* A complete line over the bound. *)
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  raw_send fd (String.make 4000 'x' ^ "\n");
  (match raw_read_line fd with
  | None -> Alcotest.fail "oversized frame must be answered before close"
  | Some line -> (
      match P.response_of_string line with
      | Ok (P.Reply r) -> (
          checks "connection-level reply has no id" "" r.P.id;
          match r.P.diag with
          | Some d -> checks "typed oversized diag" "oversized" d.P.code
          | None -> Alcotest.fail "oversized reply must carry a diag")
      | Ok _ | Error _ -> Alcotest.fail "expected a typed reply"));
  checkb "connection retired after the reply" true (raw_at_eof fd);
  (* A never-terminated line over the bound (no newline ever sent). *)
  let fd2 = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
  raw_send fd2 (String.make 3000 'y');
  (match raw_read_line fd2 with
  | None -> Alcotest.fail "unterminated oversize must be answered"
  | Some line -> (
      match P.response_of_string line with
      | Ok (P.Reply { P.diag = Some d; _ }) ->
          checks "typed oversized diag (no newline)" "oversized" d.P.code
      | Ok _ | Error _ -> Alcotest.fail "expected a typed reply"));
  checkb "second connection retired" true (raw_at_eof fd2);
  checki "both frames counted" (oversized0 + 2) (counter "server.oversized");
  (* A polite client on the same daemon is unaffected. *)
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.submit_all c [ sub "ok" (rjob 55) ] with
  | Ok [ r ] -> checkb "polite client served" true (r.P.outcome <> None)
  | Ok _ | Error _ -> Alcotest.fail "polite client should be served"

let test_slowloris_reaped () =
  let reaped0 = counter "server.reaped" in
  with_server ~read_deadline_s:0.2 @@ fun sock ->
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* Start a request line, never finish it — and keep dribbling, which
     must NOT reset the read deadline. *)
  raw_send fd "mcs";
  Unix.sleepf 0.1;
  raw_send fd "-req";
  checkb "partial line reaped" true
    (eventually (fun () -> counter "server.reaped" > reaped0));
  checkb "reaped connection closed" true (raw_at_eof fd)

let test_stall_conn_fault_reaped () =
  let reaped0 = counter "server.reaped" in
  with_fault "stall-conn:1" @@ fun () ->
  with_server ~idle_timeout_s:0.2 @@ fun sock ->
  (* First accepted connection takes the shot and goes silent. *)
  let silent = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close silent) @@ fun () ->
  (* A working client keeps the daemon busy meanwhile. *)
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.submit_all c [ sub "live" (rjob 66) ] with
  | Ok [ r ] -> checkb "live client served" true (r.P.outcome <> None)
  | Ok _ | Error _ -> Alcotest.fail "live client should be served");
  checkb "silent connection idle-reaped" true
    (eventually (fun () -> counter "server.reaped" > reaped0))

let test_stale_and_live_sockets () =
  (* A socket file left by a crashed daemon: bound once, never
     unlinked, nobody listening.  create must probe and unlink it. *)
  let stale = tmp_name "sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  checkb "stale file exists" true (Sys.file_exists stale);
  with_server ~socket_path:stale (fun sock ->
      let c = Client.connect_unix sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match Client.submit_all c [ sub "s" (rjob 88) ] with
      | Ok [ r ] ->
          checkb "daemon serves on the reclaimed socket" true
            (r.P.outcome <> None)
      | Ok _ | Error _ -> Alcotest.fail "reclaimed socket should serve");
  (* A live daemon's socket must be refused, not stolen. *)
  with_server @@ fun sock ->
  (match
     Server.create
       ~config:{ Server.default_config with Server.socket_path = sock }
       ()
   with
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
  | exception e ->
      Alcotest.failf "expected EADDRINUSE, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "second daemon must not steal a live socket");
  (* The refused probe must not have unlinked the live socket. *)
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.stats c with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(* A non-socket path is never unlinked, whatever its content. *)
let test_non_socket_path_refused () =
  let path = tmp_name "sock" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "precious data");
  (match
     Server.create
       ~config:{ Server.default_config with Server.socket_path = path }
       ()
   with
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
  | exception e ->
      Alcotest.failf "expected EADDRINUSE, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a regular file must not be claimed as a socket");
  checkb "file untouched" true (Sys.file_exists path);
  checks "content untouched" "precious data"
    (In_channel.with_open_bin path In_channel.input_all)

let test_signal_storm () =
  with_server ~domains:2 @@ fun sock ->
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let stop () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigalrm old
  in
  (* The storm stops before with_server's graceful-shutdown finally
     runs, so only the workload itself is under fire. *)
  Fun.protect ~finally:stop @@ fun () ->
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.01; it_value = 0.01 });
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match
    Client.submit_all c
      (List.init 4 (fun i -> sub (Printf.sprintf "s%d" i) (rjob (200 + i))))
  with
  | Error m -> Alcotest.fail m
  | Ok rs ->
      checki "all replies arrive through the storm" 4 (List.length rs);
      List.iter
        (fun (r : P.reply) ->
          checkb
            (Printf.sprintf "%s served despite EINTR storm" r.P.id)
            true (r.P.outcome <> None))
        rs

let suite =
  ( "chaos",
    [
      Alcotest.test_case "wal round-trips and owes incomplete admits" `Quick
        test_wal_roundtrip;
      Alcotest.test_case "wal dones retire admits one-for-one" `Quick
        test_wal_incomplete_multiset;
      Alcotest.test_case "wal compacts atomically and reopens" `Quick
        test_wal_compact;
      Alcotest.test_case "wal-torn fault drops exactly one record" `Quick
        test_wal_torn_fault;
      Alcotest.test_case "strikes ledger poisons at two" `Quick
        test_strikes_ledger;
      Alcotest.test_case "supervisor supersedes a stuck domain" `Quick
        test_supervisor_stuck_domain;
      Alcotest.test_case "supervisor poisons a lethal entry" `Quick
        test_supervisor_poison;
      Alcotest.test_case "kill-domain twice quarantines the job" `Quick
        test_kill_domain_poisons;
      Alcotest.test_case "chaos schedule answered exactly once" `Quick
        test_chaos_schedule_exactly_once;
      Alcotest.test_case "crash loses zero journaled requests" `Quick
        test_kill_and_recover;
      Alcotest.test_case "replayed settled admit is not re-executed" `Quick
        test_recover_settled;
      Alcotest.test_case "oversized frames get typed replies" `Quick
        test_oversized_frame;
      Alcotest.test_case "slowloris partial line reaped" `Quick
        test_slowloris_reaped;
      Alcotest.test_case "stall-conn fault idle-reaped" `Quick
        test_stall_conn_fault_reaped;
      Alcotest.test_case "stale socket reclaimed, live refused" `Quick
        test_stale_and_live_sockets;
      Alcotest.test_case "non-socket path never unlinked" `Quick
        test_non_socket_path_refused;
      Alcotest.test_case "served through an EINTR signal storm" `Quick
        test_signal_storm;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_wal_prefix_truncation ] )
