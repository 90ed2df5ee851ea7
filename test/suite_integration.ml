(* End-to-end assertions on the paper's evaluation shapes (DESIGN.md's
   "expected shapes" list): these pin down the qualitative results every
   reproduction run must show. *)

open Mcs_cdfg
module C = Mcs_connect.Connection
module F = Mcs_flow.Flow

let checkb = Alcotest.(check bool)

let total = F.pins_total

let test_shape_bidir_saves_pins_everywhere () =
  List.iter
    (fun (d : Benchmarks.design) ->
      List.iter
        (fun rate ->
          match
            ( Flows.run F.Ch4 ~mode:C.Unidir d ~rate,
              Flows.run F.Ch4 ~mode:C.Bidir d ~rate )
          with
          | Ok uni, Ok bi ->
              checkb
                (Printf.sprintf "%s rate %d" d.Benchmarks.tag rate)
                true
                (total bi <= total uni)
          | _ -> () (* rates a mode cannot schedule are covered elsewhere *))
        d.Benchmarks.rates)
    [ Benchmarks.ar_general (); Benchmarks.elliptic () ]

let test_shape_ewf_rate5_list_fails_fds_succeeds () =
  let d = Benchmarks.elliptic () in
  let cons = Benchmarks.constraints_for d ~rate:5 in
  let list_ok =
    match
      Mcs_sched.List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:5 ()
    with
    | Ok _ -> true
    | Error _ -> false
  in
  let fds_ok =
    match
      Mcs_sched.Fds.run d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:5
        ~pipe_length:25 ()
    with
    | Ok s -> Mcs_sched.Schedule.verify s = Ok ()
    | Error _ -> false
  in
  checkb "greedy list scheduling fails at the minimum rate" false list_ok;
  checkb "FDS succeeds at the minimum rate" true fds_ok

let test_shape_rate_vs_pins_monotone () =
  (* A larger initiation rate gives every pin more slots, so the
     connection-first flow never needs more pins. *)
  let d = Benchmarks.ar_general () in
  let pins rate = total (Flows.run_ok F.Ch4 ~mode:C.Unidir d ~rate) in
  let p3 = pins 3 and p4 = pins 4 and p5 = pins 5 in
  checkb "rate 4 <= rate 3" true (p4 <= p3);
  checkb "rate 5 <= rate 4" true (p5 <= p4)

let test_shape_sharing_never_needs_more_pins () =
  let d = Benchmarks.ar_general () in
  List.iter
    (fun rate ->
      match
        (Flows.run F.Ch4 ~mode:C.Bidir d ~rate, Flows.run F.Ch6 d ~rate)
      with
      | Ok plain, Ok shared ->
          checkb
            (Printf.sprintf "rate %d" rate)
            true
            (total shared <= total plain)
      | _ -> Alcotest.fail "flows failed")
    [ 4; 5 ]

let test_shape_min_rate_binding () =
  (* No flow may produce a valid schedule below the recursive-loop bound. *)
  let d = Benchmarks.elliptic () in
  checkb "rate 4 below the loop bound" true
    (Timing.min_initiation_rate d.Benchmarks.cdfg d.Benchmarks.mlib = 5);
  checkb "FDS refuses rate 4" true
    (match
       Mcs_sched.Fds.run d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:4
         ~pipe_length:30 ()
     with
    | Error _ -> true
    | Ok _ -> false)

let test_shape_ch3_pins_match_paper () =
  (* The Chapter 3 run must land exactly on the paper's pin bundles:
     48/48/32/32 (6 resp. 4 bundles of 8 bits). *)
  let d = Benchmarks.ar_simple () in
  let r = Flows.run_ok F.Ch3 d ~rate:2 in
  Alcotest.(check (list (pair int int)))
    "pins per chip"
    [ (0, 112); (1, 48); (2, 48); (3, 32); (4, 32) ]
    r.F.pins

let test_shape_every_flow_schedules_every_io_once () =
  let d = Benchmarks.ar_general () in
  let r = Flows.run_ok F.Ch4 ~mode:C.Unidir d ~rate:4 in
  let cdfg = d.Benchmarks.cdfg in
  List.iter
    (fun w ->
      checkb "scheduled" true (Mcs_sched.Schedule.is_scheduled r.F.schedule w))
    (Cdfg.ops cdfg)

let test_shape_dynamic_vs_static_documented () =
  (* Dynamic reassignment must at least match static whenever static
     fails; when both succeed the comparison is reported, not asserted
     (the paper's own caveat: "may not be valid for some cases"). *)
  let d = Benchmarks.elliptic () in
  let r = Flows.run_ok F.Ch4 ~mode:C.Unidir d ~rate:6 in
  checkb "dynamic run schedules" true
    (Mcs_sched.Schedule.verify r.F.schedule = Ok ())

let suite =
  ( "integration",
    [
      Alcotest.test_case "bidirectional <= unidirectional pins" `Slow
        test_shape_bidir_saves_pins_everywhere;
      Alcotest.test_case "EWF rate 5: list fails, FDS succeeds" `Quick
        test_shape_ewf_rate5_list_fails_fds_succeeds;
      Alcotest.test_case "higher rate never needs more pins" `Quick
        test_shape_rate_vs_pins_monotone;
      Alcotest.test_case "sub-bus sharing never needs more pins" `Slow
        test_shape_sharing_never_needs_more_pins;
      Alcotest.test_case "recursive loop bounds the rate" `Quick
        test_shape_min_rate_binding;
      Alcotest.test_case "chapter 3 pins match the paper" `Quick
        test_shape_ch3_pins_match_paper;
      Alcotest.test_case "all operations scheduled exactly once" `Quick
        test_shape_every_flow_schedules_every_io_once;
      Alcotest.test_case "dynamic reassignment documented" `Quick
        test_shape_dynamic_vs_static_documented;
    ] )

let test_scaled_designs () =
  (* Larger instances stay schedulable, verified and functionally correct. *)
  let d = Benchmarks.ar_scaled ~sections:8 ~chips:4 in
  let rate = List.hd d.Benchmarks.rates in
  let r = Flows.run_ok F.Ch4 ~mode:C.Unidir d ~rate in
  let conn, assignment = Flows.buses r in
  checkb "valid" true (Mcs_sched.Schedule.verify r.F.schedule = Ok ());
  match
    Mcs_sim.Simulate.check_equivalent r.F.schedule
      ~bus_of:(fun op -> [ List.assoc op assignment ])
      ~bus_capable:(fun bus op ->
        Mcs_connect.Connection.capable conn d.Benchmarks.cdfg ~bus op)
      ~seed:77 ~instances:5
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let suite =
  let name, tests = suite in
  ( name,
    tests
    @ [ Alcotest.test_case "scaled lattice end to end" `Quick test_scaled_designs ] )
