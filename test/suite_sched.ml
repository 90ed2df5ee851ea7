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
    ]
    @ [ QCheck_alcotest.to_alcotest prop_wheel_capacity ] )
