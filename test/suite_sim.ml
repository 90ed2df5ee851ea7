(* Functional simulation: the synthesized multi-chip machine must compute
   exactly what the CDFG denotes, under the hardware invariants (bus
   exclusivity, port widths, register availability). *)

open Mcs_cdfg
open Mcs_core
module Sim = Mcs_sim.Simulate
module C = Mcs_connect.Connection
module F = Mcs_flow.Flow

(* The arithmetic the default flow policy runs ([MCS_ARITH] decides). *)
let arith = Mcs_flow.Flow.default_policy.Mcs_flow.Flow.arith

let checkb = Alcotest.(check bool)

let ok_or_fail = function
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Chapter 3's Theorem 3.1 bundles are per-end and conflict-freedom was
   checked structurally, so for simulation we give every transfer its own
   abstract slot keyed by (src, dst, group availability): the paper
   guarantees physical wiring exists; here we check the *dataflow*. *)
let test_ch3_functional () =
  let d = Benchmarks.ar_simple () in
  let r = Flows.run_ok F.Ch3 d ~rate:2 in
  ok_or_fail
    (Sim.check_equivalent r.F.schedule
       ~bus_of:(fun op -> [ op ])
       ~bus_capable:(fun _ _ -> true)
       ~seed:7 ~instances:6)

(* Replays a shared-bus result (Ch. 4/5): each transfer on its final bus. *)
let check_buses (r : F.result) cdfg ~seed =
  let conn, assignment = Flows.buses r in
  ok_or_fail
    (Sim.check_equivalent r.F.schedule
       ~bus_of:(fun op -> [ List.assoc op assignment ])
       ~bus_capable:(fun bus op -> C.capable conn cdfg ~bus op)
       ~seed ~instances:8)

let check_ch4 (d : Benchmarks.design) ~rate ~mode =
  check_buses (Flows.run_ok F.Ch4 ~mode d ~rate) d.Benchmarks.cdfg ~seed:42

let test_ch4_ar_functional () =
  let d = Benchmarks.ar_general () in
  List.iter
    (fun rate ->
      check_ch4 d ~rate ~mode:C.Unidir;
      check_ch4 d ~rate ~mode:C.Bidir)
    [ 3; 4; 5 ]

let test_ch4_ewf_functional () =
  let d = Benchmarks.elliptic () in
  List.iter (fun rate -> check_ch4 d ~rate ~mode:C.Unidir) [ 6; 7 ]

let test_ch5_functional () =
  let d = Benchmarks.ar_general () in
  check_buses
    (Flows.run_ok F.Ch5 ~pipe_length:9 ~mode:C.Bidir d ~rate:4)
    d.Benchmarks.cdfg ~seed:3

let subbus_slots assignment op =
  let bus, slice = List.assoc op assignment in
  match slice with
  | Subbus.Lo -> [ 2 * bus ]
  | Subbus.Hi -> [ (2 * bus) + 1 ]
  | Subbus.Whole -> [ 2 * bus; (2 * bus) + 1 ]

let subbus_capable (d : Benchmarks.design) (real_buses, assignment) slot op =
  let cdfg = d.Benchmarks.cdfg in
  let rb = List.nth real_buses (slot / 2) in
  let _, slice = List.assoc op assignment in
  let width = Cdfg.io_width cdfg op in
  let port p = Option.value ~default:0 (List.assoc_opt p rb.Subbus.ports) in
  let need =
    (* A high-slice transfer needs its ports to span the low slice first; a
       whole-bus transfer occupies the line prefix of its own width. *)
    match (rb.Subbus.split_at, slice) with
    | Some l, Subbus.Hi -> l + width
    | _ -> width
  in
  width <= rb.Subbus.width
  && port (Cdfg.io_src cdfg op) >= need
  && port (Cdfg.io_dst cdfg op) >= need

(* Elliptic r7 is a paper point where the slot caps tie on pins and pipe
   length; the flow keeps the lowest tied cap. *)
let test_ch6_functional () =
  List.iter
    (fun (d, rate) ->
      let t = Flows.run_ok F.Ch6 d ~rate in
      let real_buses, assignment, _ = Flows.subbuses t in
      ok_or_fail
        (Sim.check_equivalent t.F.schedule ~bus_of:(subbus_slots assignment)
           ~bus_capable:(subbus_capable d (real_buses, assignment))
           ~seed:11 ~instances:8))
    [
      (Benchmarks.ar_general (), 4);
      (Benchmarks.subbus_demo (), 3);
      (Benchmarks.elliptic (), 7);
    ]

let test_machine_detects_bus_conflict () =
  (* Collapse every bus to one slot: the AR filter's 34 transfers cannot
     all share one bus, so the simulator must report a conflict. *)
  let d = Benchmarks.ar_general () in
  let r = Flows.run_ok F.Ch4 ~mode:C.Unidir d ~rate:4 in
  let res =
    Sim.machine r.F.schedule
      ~bus_of:(fun _ -> [ 0 ])
      ~bus_capable:(fun _ _ -> true)
      ~inputs:(Sim.random_inputs ~seed:0) ~instances:6
  in
  checkb "conflict detected" true (Result.is_error res)

let test_machine_detects_narrow_port () =
  let d = Benchmarks.ar_general () in
  let r = Flows.run_ok F.Ch4 ~mode:C.Unidir d ~rate:4 in
  let _, assignment = Flows.buses r in
  let res =
    Sim.machine r.F.schedule
      ~bus_of:(fun op -> [ List.assoc op assignment ])
      ~bus_capable:(fun _ _ -> false)
      ~inputs:(Sim.random_inputs ~seed:0) ~instances:2
  in
  checkb "width violation detected" true (Result.is_error res)

let test_machine_detects_early_read () =
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  match
    Mcs_sched.List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:2 ()
  with
  | Error _ -> Alcotest.fail "scheduling failed"
  | Ok s ->
      (* Pull one consumer before its producer and simulate. *)
      let { Types.e_src; e_dst; _ } =
        List.find
          (fun e ->
            e.Types.degree = 0
            && Mcs_sched.Schedule.cstep s e.Types.e_src >= 1
            && Mcs_sched.Schedule.cstep s e.Types.e_dst
               > Mcs_sched.Schedule.cstep s e.Types.e_src)
          (Cdfg.edges d.Benchmarks.cdfg)
      in
      Mcs_sched.Schedule.set s e_dst
        ~cstep:(Mcs_sched.Schedule.cstep s e_src - 1)
        ~finish_ns:0;
      let res =
        Sim.machine s
          ~bus_of:(fun op -> [ op ])
          ~bus_capable:(fun _ _ -> true)
          ~inputs:(Sim.random_inputs ~seed:0) ~instances:3
      in
      checkb "early read detected" true (Result.is_error res)

let test_reference_deterministic () =
  let d = Benchmarks.elliptic () in
  let t1 =
    Sim.reference d.Benchmarks.cdfg ~inputs:(Sim.random_inputs ~seed:5)
      ~instances:5
  in
  let t2 =
    Sim.reference d.Benchmarks.cdfg ~inputs:(Sim.random_inputs ~seed:5)
      ~instances:5
  in
  checkb "deterministic" true (t1 = t2);
  let t3 =
    Sim.reference d.Benchmarks.cdfg ~inputs:(Sim.random_inputs ~seed:6)
      ~instances:5
  in
  checkb "inputs matter" true (t1 <> t3)

(* Fuzzing: random partitioned designs through the whole Chapter 4 flow,
   then functional equivalence.  Soundness property: whenever the flow
   produces a result, the machine computes the reference trace. *)
let fuzz_once seed =
  let n_partitions = 2 + (seed mod 3) in
  let n_ops = 8 + (seed * 7 mod 17) in
  let cdfg =
    Random_design.generate ~seed ~n_partitions ~n_ops
      ~recursive:(seed mod 2) ()
  in
  let mlib = Random_design.mlib () in
  let rate = 2 + (seed mod 3) in
  match Constraints.min_fus cdfg mlib ~rate with
  | exception Invalid_argument _ -> true (* rate below a module's cycles *)
  | fus ->
      let pins =
        List.map
          (fun p ->
            ( p,
              Mcs_connect.Bounds.min_input_pins cdfg ~rate ~partition:p
              + Mcs_connect.Bounds.min_output_pins cdfg ~rate ~partition:p
              + 32 ))
          (Mcs_util.Listx.range 0 (n_partitions + 1))
      in
      let cons = Constraints.create ~n_partitions ~pins ~fus in
      (match F.run F.Ch4 (Flows.spec cdfg mlib cons ~rate ~mode:C.Unidir) with
      | Error _ -> true (* flows may fail; soundness only *)
      | Ok r -> (
          let conn, assignment = Flows.buses r in
          match
            Sim.check_equivalent r.F.schedule
              ~bus_of:(fun op -> [ List.assoc op assignment ])
              ~bus_capable:(fun bus op -> C.capable conn cdfg ~bus op)
              ~seed ~instances:6
          with
          | Ok () -> true
          | Error m ->
              Printf.eprintf "fuzz seed %d: %s\n%!" seed m;
              false))

let prop_fuzz_ch4 =
  QCheck.Test.make ~name:"random designs: synthesize + simulate = reference"
    ~count:25
    QCheck.(int_range 1 10_000)
    fuzz_once

let suite =
  ( "sim",
    [
      Alcotest.test_case "chapter 3 result computes the CDFG" `Quick test_ch3_functional;
      Alcotest.test_case "chapter 4 results compute the CDFG (AR)" `Slow test_ch4_ar_functional;
      Alcotest.test_case "chapter 4 results compute the CDFG (EWF)" `Quick test_ch4_ewf_functional;
      Alcotest.test_case "chapter 5 result computes the CDFG" `Quick test_ch5_functional;
      Alcotest.test_case "chapter 6 results compute the CDFG" `Slow test_ch6_functional;
      Alcotest.test_case "simulator detects bus conflicts" `Quick test_machine_detects_bus_conflict;
      Alcotest.test_case "simulator detects narrow ports" `Quick test_machine_detects_narrow_port;
      Alcotest.test_case "simulator detects early reads" `Quick test_machine_detects_early_read;
      Alcotest.test_case "reference is deterministic" `Quick test_reference_deterministic;
    ]
    @ [ QCheck_alcotest.to_alcotest prop_fuzz_ch4 ] )

(* Chapter 3 fuzzing: random simple partitionings through the pin-checked
   flow, then Theorem 3.1 and functional equivalence. *)
let fuzz_simple seed =
  let n_partitions = 2 + (seed mod 3) in
  let ops_per_chip = 3 + (seed mod 4) in
  let cdfg =
    Random_design.generate_simple ~seed ~n_partitions ~ops_per_chip ()
  in
  if not (Mcs_core.Simple_part.is_simple cdfg) then false
  else if Cdfg.check_locality cdfg <> Ok () then false
  else begin
    let mlib = Random_design.mlib () in
    let rate = 2 in
    match Constraints.min_fus cdfg mlib ~rate with
    | exception Invalid_argument _ -> true
    | fus ->
        let pins =
          List.map
            (fun p ->
              ( p,
                Mcs_connect.Bounds.min_input_pins cdfg ~rate ~partition:p
                + Mcs_connect.Bounds.min_output_pins cdfg ~rate ~partition:p
                + 16 ))
            (Mcs_util.Listx.range 0 (n_partitions + 1))
        in
        let cons = Constraints.create ~n_partitions ~pins ~fus in
        let io_hook = Mcs_core.Simple_part.hook ~arith cdfg cons ~rate in
        (match Mcs_sched.List_sched.run cdfg mlib cons ~rate ~io_hook () with
        | Error _ -> true (* pin checker may make tight instances fail *)
        | Ok sched -> (
            let links = Mcs_core.Simple_part.Theorem31.connect sched in
            Mcs_core.Simple_part.Theorem31.check sched links = Ok ()
            &&
            match
              Sim.check_equivalent sched
                ~bus_of:(fun op -> [ op ])
                ~bus_capable:(fun _ _ -> true)
                ~seed ~instances:5
            with
            | Ok () -> true
            | Error m ->
                Printf.eprintf "simple fuzz seed %d: %s\n%!" seed m;
                false))
  end

let prop_fuzz_ch3 =
  QCheck.Test.make
    ~name:"random simple partitionings: pin-checked flow + Theorem 3.1"
    ~count:20
    QCheck.(int_range 1 10_000)
    fuzz_simple

let suite =
  let name, tests = suite in
  (name, tests @ [ QCheck_alcotest.to_alcotest prop_fuzz_ch3 ])
