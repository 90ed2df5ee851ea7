(* Tests for the scheduling layer: allocation wheels, schedule invariants,
   pipelined list scheduling and force-directed scheduling. *)

open Mcs_cdfg
open Mcs_sched

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Alloc_wheel --- *)

let test_wheel_basic () =
  let w = Alloc_wheel.create ~fus:2 ~rate:4 in
  checki "fus" 2 (Alloc_wheel.fus w);
  checki "rate" 4 (Alloc_wheel.rate w);
  let f1 = Alloc_wheel.assign w ~group:0 ~cycles:1 in
  let f2 = Alloc_wheel.assign w ~group:0 ~cycles:1 in
  checkb "different units" true (f1 <> f2);
  checkb "group full" true (Alloc_wheel.fit w ~group:0 ~cycles:1 = None);
  checkb "other group free" true (Alloc_wheel.fit w ~group:1 ~cycles:1 <> None)

let test_wheel_wraparound () =
  let w = Alloc_wheel.create ~fus:1 ~rate:4 in
  ignore (Alloc_wheel.assign w ~group:3 ~cycles:2);
  (* Cells 3 and 0 are taken. *)
  checkb "cell 0 busy" true (Alloc_wheel.fit w ~group:0 ~cycles:1 = None);
  checkb "cell 1 free" true (Alloc_wheel.fit w ~group:1 ~cycles:1 <> None);
  checki "busy cells" 2 (Alloc_wheel.busy_cells w ~fu:0)

let test_wheel_release () =
  let w = Alloc_wheel.create ~fus:1 ~rate:3 in
  let fu = Alloc_wheel.assign w ~group:1 ~cycles:2 in
  Alloc_wheel.release w ~fu ~group:1 ~cycles:2;
  checki "all free" 0 (Alloc_wheel.busy_cells w ~fu:0);
  Alcotest.check_raises "double release"
    (Invalid_argument "Alloc_wheel.release: cell was free") (fun () ->
      Alloc_wheel.release w ~fu ~group:1 ~cycles:2)

let test_wheel_fragmentation () =
  (* The Fig. 7.10 phenomenon. *)
  let w = Alloc_wheel.create ~fus:1 ~rate:6 in
  ignore (Alloc_wheel.assign w ~group:0 ~cycles:2);
  ignore (Alloc_wheel.assign w ~group:3 ~cycles:2);
  checkb "fragmented: no 2-cycle slot left" true
    (List.for_all
       (fun g -> Alloc_wheel.fit w ~group:g ~cycles:2 = None)
       [ 2; 5 ])

let prop_wheel_capacity =
  QCheck.Test.make ~name:"wheel never exceeds rate cells per fu" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 10)
       (QCheck.pair (QCheck.int_bound 5) (QCheck.int_range 1 3)))
    (fun reqs ->
      let w = Alloc_wheel.create ~fus:2 ~rate:6 in
      List.iter
        (fun (g, c) ->
          match Alloc_wheel.fit w ~group:g ~cycles:c with
          | Some _ -> ignore (Alloc_wheel.assign w ~group:g ~cycles:c)
          | None -> ())
        reqs;
      Alloc_wheel.busy_cells w ~fu:0 <= 6 && Alloc_wheel.busy_cells w ~fu:1 <= 6)

(* --- Schedule --- *)

let ar = Benchmarks.ar_simple ()

let test_schedule_accessors () =
  let s = Schedule.create ar.Benchmarks.cdfg ar.Benchmarks.mlib ~rate:2 in
  checkb "nothing scheduled" false (Schedule.all_scheduled s);
  checki "empty pipe" 0 (Schedule.pipe_length s);
  Schedule.set s 0 ~cstep:3 ~finish_ns:10;
  checkb "scheduled" true (Schedule.is_scheduled s 0);
  checki "cstep" 3 (Schedule.cstep s 0);
  checki "group" 1 (Schedule.group s 0);
  Schedule.unset s 0;
  checkb "unset" false (Schedule.is_scheduled s 0)

let test_schedule_verify_catches_violation () =
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  match List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:2 () with
  | Error _ -> Alcotest.fail "baseline scheduling failed"
  | Ok s ->
      checkb "valid" true (Schedule.verify s = Ok ());
      (* Break one precedence: move a consumer before its producer. *)
      let { Types.e_src; e_dst; _ } =
        List.find (fun e -> e.Types.degree = 0) (Cdfg.edges d.Benchmarks.cdfg)
      in
      Schedule.set s e_dst ~cstep:(Schedule.cstep s e_src - 1) ~finish_ns:40;
      checkb "violation caught" true (Schedule.verify s <> Ok ())

let test_schedule_verify_catches_recursion () =
  let d = Benchmarks.elliptic () in
  let cons = Benchmarks.constraints_for d ~rate:7 in
  match List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:7 () with
  | Error _ -> Alcotest.fail "baseline scheduling failed"
  | Ok s ->
      checkb "valid" true (Schedule.verify s = Ok ());
      (* Violate the degree-4 max-time constraint by pushing X33 far out. *)
      let x33 =
        List.find
          (fun w -> Cdfg.name d.Benchmarks.cdfg w = "X33")
          (Cdfg.io_ops d.Benchmarks.cdfg)
      in
      Schedule.set s x33 ~cstep:(Schedule.cstep s x33 + 100) ~finish_ns:95;
      checkb "recursion violation caught" true (Schedule.verify s <> Ok ())

(* --- List scheduling --- *)

let test_list_sched_respects_fus () =
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  match List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:2 () with
  | Error _ -> Alcotest.fail "scheduling failed"
  | Ok s ->
      (* Check per-group FU usage against the constraints via wheels. *)
      let cdfg = d.Benchmarks.cdfg and mlib = d.Benchmarks.mlib in
      let groups = Mcs_util.Listx.group_by
          (fun op -> (Cdfg.func_partition cdfg op, Cdfg.func_optype cdfg op))
          (Cdfg.func_ops cdfg)
      in
      List.iter
        (fun ((p, ty), ops) ->
          let w =
            Alloc_wheel.create
              ~fus:(Constraints.fu_count cons ~partition:p ~optype:ty)
              ~rate:2
          in
          List.iter
            (fun op ->
              match
                Alloc_wheel.fit w ~group:(Schedule.group s op)
                  ~cycles:(Timing.op_cycles cdfg mlib op)
              with
              | Some _ ->
                  ignore
                    (Alloc_wheel.assign w ~group:(Schedule.group s op)
                       ~cycles:(Timing.op_cycles cdfg mlib op))
              | None -> Alcotest.fail "functional units oversubscribed")
            ops)
        groups

let test_list_sched_missing_fu () =
  let d = Benchmarks.ar_simple () in
  let cons =
    Constraints.create ~n_partitions:4
      ~pins:[ (0, 200); (1, 200); (2, 200); (3, 200); (4, 200) ]
      ~fus:[ (1, "add", 1) ] (* no multipliers anywhere *)
  in
  checkb "raises on missing FU type" true
    (match List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:2 () with
    | Error { List_sched.kind = List_sched.Missing_fu (_, "mul"); _ } -> true
    | Error _ | Ok _ -> false)

let test_list_sched_io_hook_postpones () =
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  (* A hook that forbids all I/O before control step 2. *)
  let hook =
    {
      List_sched.io_can = (fun _ _ ~cstep -> cstep >= 2);
      io_commit = (fun _ _ ~cstep:_ -> ());
    }
  in
  match
    List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:2
      ~io_hook:hook ()
  with
  | Error _ -> Alcotest.fail "scheduling failed"
  | Ok s ->
      List.iter
        (fun w -> checkb "io postponed" true (Schedule.cstep s w >= 2))
        (Cdfg.io_ops d.Benchmarks.cdfg)

let test_list_sched_ewf_rates () =
  let d = Benchmarks.elliptic () in
  (* Rate 5: greedy list scheduling fails (paper, §4.4.2.1); rates 6-7
     succeed. *)
  let attempt rate =
    let cons = Benchmarks.constraints_for d ~rate in
    match List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate () with
    | Ok s -> Schedule.verify s = Ok ()
    | Error _ -> false
  in
  checkb "rate 5 fails (greedy)" false (attempt 5);
  checkb "rate 6 succeeds" true (attempt 6);
  checkb "rate 7 succeeds" true (attempt 7)

let test_priorities () =
  let d = Benchmarks.ar_simple () in
  let prio = List_sched.priorities d.Benchmarks.cdfg d.Benchmarks.mlib in
  (* Sinks have the smallest priority; sources on long paths the largest. *)
  let o1 =
    List.find (fun w -> Cdfg.name d.Benchmarks.cdfg w = "O1") (Cdfg.io_ops d.Benchmarks.cdfg)
  in
  let i7 =
    List.find (fun w -> Cdfg.name d.Benchmarks.cdfg w = "I7") (Cdfg.io_ops d.Benchmarks.cdfg)
  in
  checkb "deep input before sink" true (prio.(i7) > prio.(o1))

(* --- FDS --- *)

let test_fds_respects_pipe_length () =
  let d = Benchmarks.elliptic () in
  List.iter
    (fun (rate, pl) ->
      match Fds.run d.Benchmarks.cdfg d.Benchmarks.mlib ~rate ~pipe_length:pl () with
      | Error m -> Alcotest.fail (Fds.error_message d.Benchmarks.cdfg m)
      | Ok s ->
          checkb "verifies" true (Schedule.verify s = Ok ());
          checkb "within pipe length" true (Schedule.pipe_length s <= pl))
    [ (5, 25); (6, 26); (7, 27) ]

let test_fds_infeasible_pipe () =
  let d = Benchmarks.elliptic () in
  checkb "pipe too short" true
    (match Fds.run d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:6 ~pipe_length:20 () with
     | Error _ -> true
     | Ok _ -> false)

let test_fds_rate5_schedules_ewf () =
  (* The paper's point: FDS finds the rate-5 schedule greedy list
     scheduling misses. *)
  let d = Benchmarks.elliptic () in
  match Fds.run d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:5 ~pipe_length:25 () with
  | Error m -> Alcotest.fail (Fds.error_message d.Benchmarks.cdfg m)
  | Ok s -> checkb "valid at rate 5" true (Schedule.verify s = Ok ())

let test_fds_fu_requirements () =
  let d = Benchmarks.ar_general () in
  match Fds.run d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:4 ~pipe_length:9 () with
  | Error m -> Alcotest.fail (Fds.error_message d.Benchmarks.cdfg m)
  | Ok s ->
      let fus = Fds.fu_requirements s in
      (* Lower bound: P1 has 9 muls at rate 4 -> at least 3 multipliers. *)
      checkb "P1 muls >= 3" true (List.assoc (1, "mul") fus >= 3);
      (* Sanity: all partitions report both op types they contain. *)
      checkb "entries present" true (List.length fus >= 4)

let test_fds_frames_fixed_propagation () =
  let d = Benchmarks.ar_general () in
  let n = Cdfg.n_ops d.Benchmarks.cdfg in
  let fixed = Array.make n None in
  match Fds.frames d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:3 ~pipe_length:10 ~fixed with
  | None -> Alcotest.fail "frames infeasible"
  | Some (lb, ub) ->
      (* Fixing an op inside its window keeps frames feasible and pins it. *)
      let op = List.hd (Cdfg.func_ops d.Benchmarks.cdfg) in
      fixed.(op) <- Some lb.(op);
      (match Fds.frames d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:3 ~pipe_length:10 ~fixed with
      | None -> Alcotest.fail "fixing inside the window broke frames"
      | Some (lb', ub') ->
          checki "pinned lb" lb.(op) lb'.(op);
          checki "pinned ub" lb.(op) ub'.(op));
      (* Fixing outside the window is infeasible. *)
      fixed.(op) <- Some (ub.(op) + 50);
      checkb "outside window infeasible" true
        (Fds.frames d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:3 ~pipe_length:10 ~fixed
        = None)

(* [Fds.frames] settles the same windows as the pass-based reference
   ([Fds_oracle]), on the bundled and generated designs at several rates
   and pipe lengths, under random fixings: sequences of steps inside the
   current windows, as the scheduler makes them, steps just outside,
   which must come back infeasible from both, and on the bundled designs
   each operation alone at either end of its window. *)
let test_fds_frames_oracle () =
  let rng = Random.State.make [| 1992 |] in
  let bundled =
    [ "ar-simple"; "ar-general"; "elliptic"; "cond-demo"; "subbus-demo" ]
  in
  let names =
    bundled
    @ List.init 30 (fun i ->
          Printf.sprintf "random:%d:%d:%d" (31 + (6007 * i)) (2 + (i mod 3))
            (12 + (4 * (i mod 4))))
    @ List.init 10 (fun i ->
          Printf.sprintf "rsimple:%d:%d:%d" (17 + (3001 * i)) (2 + (i mod 2))
            (4 + (i mod 3)))
  in
  let checked = ref 0 in
  List.iter
    (fun name ->
      let d = Golden_connect.resolve name in
      let cdfg = d.Benchmarks.cdfg and mlib = d.Benchmarks.mlib in
      let n = Cdfg.n_ops cdfg in
      let cp = Timing.critical_path_csteps cdfg mlib in
      List.iter
        (fun (rate, pipe_length) ->
          let fixed = Array.make n None in
          let same () =
            let want = Fds_oracle.frames cdfg mlib ~rate ~pipe_length ~fixed in
            let got = Fds.frames cdfg mlib ~rate ~pipe_length ~fixed in
            incr checked;
            if want <> got then
              Alcotest.failf "%s r%d pl%d: frames differ from the reference"
                name rate pipe_length;
            want
          in
          let rec walk steps =
            match same () with
            | Some (lb, ub) when steps > 0 ->
                let free =
                  List.filter (fun v -> fixed.(v) = None) (Cdfg.ops cdfg)
                in
                if free <> [] then begin
                  let v = List.nth free (Random.State.int rng (List.length free)) in
                  let s = lb.(v) - 1 + Random.State.int rng (ub.(v) - lb.(v) + 3) in
                  fixed.(v) <- Some s;
                  ignore (same ());
                  if s < lb.(v) || s > ub.(v) then fixed.(v) <- Some lb.(v);
                  walk (steps - 1)
                end
            | _ -> ()
          in
          (* Every operation fixed alone at each end of its window, on
             the bundled designs (elliptic's recursive edges bind only
             there). *)
          (if List.mem name bundled then
             match same () with
             | Some (lb, ub) ->
                 List.iter
                   (fun v ->
                     List.iter
                       (fun s ->
                         fixed.(v) <- Some s;
                         ignore (same ());
                         fixed.(v) <- None)
                       [ lb.(v); ub.(v) ])
                   (Cdfg.ops cdfg)
             | None -> ());
          walk n)
        [ (1, cp); (2, cp); (3, cp + 2); (4, cp + 5); (5, cp + 3); (7, cp + 8) ])
    names;
  checkb "cases checked" true (!checked > 1000)

(* --- the event-driven ready list against the filter-based sweep --- *)

(* [List_sched.run] against [Ls_oracle], the per-sweep rescan it
   replaced, on the inputs of [Refine]'s resched-tail move: a frozen
   prefix of an earlier schedule ([~fixed]), control-step floors
   ([~min_cstep]) and priority jitter ([~priority_bias]), under stateful
   communication hooks.  Placements, outcome, the I/O tests asked, the
   control steps finished and the ready-list sizes (sum and count of the
   [ls.ready_size] histogram) must all agree. *)

module M = Mcs_obs.Metrics

let ready_hist () =
  match List.assoc_opt "ls.ready_size" (M.snapshot ()) with
  | Some (M.Histogram { sum; total; _ }) -> (sum, total)
  | _ -> (0, 0)

let c_csteps = M.counter "ls.csteps"

(* At most [k] I/O operations per (sending partition, group): a cheap
   stateful hook that postpones I/O the way the pin and bus hooks do. *)
let slot_hook cdfg ~rate ~k () =
  let used = Hashtbl.create 16 in
  let key op cstep = (Cdfg.io_src cdfg op, cstep mod rate) in
  let get kk = Option.value (Hashtbl.find_opt used kk) ~default:0 in
  {
    List_sched.io_can = (fun _ op ~cstep -> get (key op cstep) < k);
    io_commit =
      (fun _ op ~cstep ->
        let kk = key op cstep in
        Hashtbl.replace used kk (get kk + 1));
  }

(* Ch. 4's dynamic bus reassignment over a searched connection. *)
let reassign_hook cdfg cons ~rate =
  match
    Mcs_connect.Heuristic.search cdfg cons ~rate ~mode:Mcs_connect.Connection.Unidir
      ~branching:2 ~max_nodes:2000 ()
  with
  | Ok r ->
      Some
        (fun () ->
          Mcs_connect.Reassign.hook
            (Mcs_connect.Reassign.create cdfg r.Mcs_connect.Heuristic.conn
               ~rate ~initial:r.Mcs_connect.Heuristic.assign ~dynamic:true))
  | Error _ -> None

let render_sched sched =
  String.concat ";"
    (List.map
       (fun op ->
         if Schedule.is_scheduled sched op then
           Printf.sprintf "%d/%d" (Schedule.cstep sched op)
             (Schedule.finish_ns sched op)
         else "-")
       (Cdfg.ops (Schedule.cdfg sched)))

let render_outcome = function
  | Ok sched -> "ok " ^ render_sched sched
  | Error (f : List_sched.failure) ->
      Printf.sprintf "fail %d %s: %s" f.List_sched.at_cstep f.List_sched.reason
        (render_sched f.List_sched.partial)

let counting hook =
  let n = ref 0 in
  ( n,
    {
      hook with
      List_sched.io_can =
        (fun sch op ~cstep ->
          incr n;
          hook.List_sched.io_can sch op ~cstep);
    } )

(* One comparison; [None] when both agree, else what differs. *)
let ls_vs_oracle cdfg mlib cons ~rate ~hook ?priority_bias ?min_cstep ?fixed
    () =
  let tests_got, h1 = counting (hook ()) in
  let c0 = M.count c_csteps and s0, t0 = ready_hist () in
  let got =
    match
      List_sched.run cdfg mlib cons ~rate ~io_hook:h1 ?priority_bias
        ?min_cstep ?fixed ()
    with
    | r -> render_outcome r
    | exception Invalid_argument m -> "invalid " ^ m
  in
  let csteps_got = M.count c_csteps - c0 in
  let s1, t1 = ready_hist () in
  let tests_want, h2 = counting (hook ()) in
  let want, stats =
    match
      Ls_oracle.run cdfg mlib cons ~rate ~io_hook:h2 ?priority_bias ?min_cstep
        ?fixed ()
    with
    | r, st -> (render_outcome r, Some st)
    | exception Invalid_argument m -> ("invalid " ^ m, None)
  in
  let diff what a b = if a = b then [] else [ what ] in
  let stat_diffs =
    match stats with
    | None -> []
    | Some st ->
        diff "ls.csteps" csteps_got st.Ls_oracle.csteps
        @ diff "ready_size sum" (s1 - s0)
            (List.fold_left ( + ) 0 st.Ls_oracle.ready_sizes)
        @ diff "ready_size count" (t1 - t0)
            (List.length st.Ls_oracle.ready_sizes)
  in
  match
    diff "outcome" got want @ diff "io tests" !tests_got !tests_want
    @ stat_diffs
  with
  | [] -> None
  | ds -> Some (String.concat ", " ds ^ "\n got  " ^ got ^ "\n want " ^ want)

(* The designs: the bundled ones, generated general and simple
   partitionings under both their chaining-free library and the AR
   filter's (which chains, so successors become ready within a step),
   and generated designs with recursive edges. *)
let oracle_designs =
  lazy
    (let ar_mlib = (Benchmarks.ar_simple ()).Benchmarks.mlib in
     let named =
       List.map Golden_connect.resolve
         [ "ar-simple"; "ar-general"; "elliptic"; "cond-demo"; "subbus-demo" ]
     in
     let generated =
       List.map Golden_connect.resolve
         (List.init 6 (fun i ->
              Printf.sprintf "random:%d:%d:%d" (71 + (977 * i)) (2 + (i mod 3))
                (12 + (4 * (i mod 4))))
         @ List.init 3 (fun i ->
               Printf.sprintf "rsimple:%d:%d:%d" (13 + (401 * i)) (2 + (i mod 2))
                 (4 + (i mod 3))))
     in
     let recursive =
       List.init 3 (fun i ->
           let d = Golden_connect.resolve (Printf.sprintf "random:%d:3:16" (5 + i)) in
           {
             d with
             Benchmarks.cdfg =
               Random_design.generate ~seed:(5 + i) ~n_partitions:3 ~n_ops:16
                 ~recursive:3 ();
           })
     in
     named @ generated
     @ List.map (fun d -> { d with Benchmarks.mlib = ar_mlib }) (generated @ recursive)
     @ recursive)

(* One case: design, rate, hook, and the Refine-style perturbations drawn
   from [seed]. *)
let oracle_case (d : Benchmarks.design) ~rate ~hook_kind ~seed =
  let cdfg = d.Benchmarks.cdfg and mlib = d.Benchmarks.mlib in
  let cons = Benchmarks.constraints_for d ~rate in
  let hook =
    match hook_kind with
    | 0 -> Some (fun () -> List_sched.unconstrained_io)
    | 1 -> Some (slot_hook cdfg ~rate ~k:1)
    | 2 -> Some (slot_hook cdfg ~rate ~k:2)
    | _ -> reassign_hook cdfg cons ~rate
  in
  match hook with
  | None -> None
  | Some hook ->
      let rng = Random.State.make [| seed |] in
      let n = Cdfg.n_ops cdfg in
      let priority_bias =
        if Random.State.bool rng then None
        else Some (Array.init n (fun _ -> Random.State.int rng 7 - 3))
      in
      (* A frozen prefix of a first schedule, as resched-tail cuts it. *)
      let fixed, cut =
        match
          List_sched.run cdfg mlib cons ~rate ~io_hook:(hook ()) ?priority_bias
            ()
        with
        | Ok sch when Random.State.int rng 4 > 0 ->
            let cut = Random.State.int rng (Schedule.pipe_length sch + 1) in
            ( List.filter_map
                (fun op ->
                  if Schedule.cstep sch op < cut then
                    Some (op, Schedule.cstep sch op)
                  else None)
                (Cdfg.ops cdfg),
              cut )
        | _ | (exception Invalid_argument _) -> ([], 0)
      in
      let min_cstep =
        match Random.State.int rng 3 with
        | 0 -> None
        | 1 -> Some (Array.make n cut)
        | _ ->
            Some
              (Array.init n (fun _ ->
                   if Random.State.bool rng then cut
                   else cut + Random.State.int rng (rate + 2)))
      in
      ls_vs_oracle cdfg mlib cons ~rate ~hook ?priority_bias ?min_cstep
        ~fixed ()
      |> Option.map (fun m ->
             Printf.sprintf "%s r%d hook %d seed %d: %s" d.Benchmarks.tag rate
               hook_kind seed m)

let prop_ready_list_oracle =
  QCheck.Test.make ~name:"event-driven ready list = filter-based sweep"
    ~count:300
    (QCheck.make
       ~print:(fun (i, r, h, s) -> Printf.sprintf "design %d r%d hook %d seed %d" i r h s)
       QCheck.Gen.(
         quad (int_bound 1000) (int_range 2 5) (int_bound 3) (int_bound 1_000_000)))
    (fun (i, rate, hook_kind, seed) ->
      let ds = Lazy.force oracle_designs in
      let d = List.nth ds (i mod List.length ds) in
      match oracle_case d ~rate ~hook_kind ~seed with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* Elliptic at rates 5-7, where its recursive max-time deadlines bind
   (rate 5 misses one), under every hook and a spread of perturbations. *)
let test_ready_list_elliptic () =
  let d = Benchmarks.elliptic () in
  List.iter
    (fun rate ->
      List.iter
        (fun hook_kind ->
          for seed = 0 to 11 do
            match oracle_case d ~rate ~hook_kind ~seed with
            | None -> ()
            | Some m -> Alcotest.fail m
          done)
        [ 0; 1; 2; 3 ])
    [ 5; 6; 7 ]

let suite =
  ( "sched",
    [
      Alcotest.test_case "alloc wheel basics" `Quick test_wheel_basic;
      Alcotest.test_case "alloc wheel wraparound" `Quick test_wheel_wraparound;
      Alcotest.test_case "alloc wheel release" `Quick test_wheel_release;
      Alcotest.test_case "alloc wheel fragmentation (Fig. 7.10)" `Quick test_wheel_fragmentation;
      Alcotest.test_case "schedule accessors" `Quick test_schedule_accessors;
      Alcotest.test_case "verify catches precedence violations" `Quick test_schedule_verify_catches_violation;
      Alcotest.test_case "verify catches recursion violations" `Quick test_schedule_verify_catches_recursion;
      Alcotest.test_case "list sched respects FU constraints" `Quick test_list_sched_respects_fus;
      Alcotest.test_case "list sched rejects missing FU types" `Quick test_list_sched_missing_fu;
      Alcotest.test_case "list sched postpones rejected I/O" `Quick test_list_sched_io_hook_postpones;
      Alcotest.test_case "EWF: rate 5 fails, 6-7 succeed (paper)" `Quick test_list_sched_ewf_rates;
      Alcotest.test_case "priority function" `Quick test_priorities;
      Alcotest.test_case "FDS respects pipe length" `Quick test_fds_respects_pipe_length;
      Alcotest.test_case "FDS rejects short pipes" `Quick test_fds_infeasible_pipe;
      Alcotest.test_case "FDS schedules EWF at rate 5" `Quick test_fds_rate5_schedules_ewf;
      Alcotest.test_case "FDS functional-unit requirements" `Quick test_fds_fu_requirements;
      Alcotest.test_case "FDS frames with fixed ops" `Quick test_fds_frames_fixed_propagation;
      Alcotest.test_case "golden FDS placement records" `Quick Golden_fds.check;
      Alcotest.test_case "FDS frames match the pass-based reference" `Quick
        test_fds_frames_oracle;
      Alcotest.test_case "ready list matches the filter-based sweep (EWF)"
        `Quick test_ready_list_elliptic;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_wheel_capacity; prop_ready_list_oracle ] )
