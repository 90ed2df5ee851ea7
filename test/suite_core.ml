(* Tests for the chapter flows: simple partitioning (Ch. 3), connection-first
   (Ch. 4), schedule-first (Ch. 5), sub-bus sharing (Ch. 6), and the
   Chapter 7 extensions. *)

open Mcs_cdfg
open Mcs_core
module F = Mcs_flow.Flow

(* The arithmetic the default flow policy runs ([MCS_ARITH] decides). *)
let arith = Mcs_flow.Flow.default_policy.Mcs_flow.Flow.arith

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Simple partitioning recognition --- *)

let test_is_simple () =
  checkb "ar_simple is simple" true
    (Simple_part.is_simple (Benchmarks.ar_simple ()).Benchmarks.cdfg);
  checkb "ar_general is not" false
    (Simple_part.is_simple (Benchmarks.ar_general ()).Benchmarks.cdfg);
  checkb "general has violations" true
    (Simple_part.violations (Benchmarks.ar_general ()).Benchmarks.cdfg <> [])

let test_simple_three_drivees () =
  (* A partition driving three others violates condition 1. *)
  let b = Cdfg.Builder.create ~n_partitions:4 in
  let s = Cdfg.Builder.func b ~partition:1 "add" in
  List.iter
    (fun p ->
      let x = Cdfg.Builder.io b ~src:1 ~dst:p ~width:8 (Printf.sprintf "v%d" p) in
      Cdfg.Builder.dep b s x)
    [ 2; 3; 4 ];
  let cdfg = Cdfg.Builder.finish b in
  checkb "three drivees not simple" false (Simple_part.is_simple cdfg)

let test_simple_shared_driver_violation () =
  (* f drives {a, b} but a has a second driver: violates condition 4. *)
  let b = Cdfg.Builder.create ~n_partitions:4 in
  let f = Cdfg.Builder.func b ~partition:1 "add" in
  let g = Cdfg.Builder.func b ~partition:4 "add" in
  List.iter
    (fun (src, op, dst, v) ->
      let x = Cdfg.Builder.io b ~src ~dst ~width:8 v in
      Cdfg.Builder.dep b op x)
    [ (1, f, 2, "fa"); (1, f, 3, "fb"); (4, g, 2, "ga") ];
  let cdfg = Cdfg.Builder.finish b in
  checkb "not simple" false (Simple_part.is_simple cdfg)

(* --- Pin allocation ILP (Ch. 3) --- *)

let test_pin_ilp_feasible_baseline () =
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  checkb "paper budgets feasible" true
    (Simple_part.Pin_ilp.feasible ~arith d.Benchmarks.cdfg cons ~rate:2
       ~fixed:[])

let test_pin_ilp_infeasible_when_tight () =
  let d = Benchmarks.ar_simple () in
  (* P1 needs >= 48 pins at rate 2 (5 input bundles + 1 output). *)
  let cons =
    Constraints.with_pins (Benchmarks.constraints_for d ~rate:2) [ (1, 40) ]
  in
  checkb "40 pins on P1 infeasible" false
    (Simple_part.Pin_ilp.feasible ~arith d.Benchmarks.cdfg cons ~rate:2
       ~fixed:[])

let test_pin_ilp_detects_bad_fixing () =
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  let cdfg = d.Benchmarks.cdfg in
  (* Cramming 6 of P1's 8-bit inputs into one group blows its 40 input
     pins (5 ports). *)
  let p1_inputs =
    Mcs_util.Listx.take 6 (Cdfg.io_inputs_of_partition cdfg 1)
  in
  let fixed = List.map (fun w -> (w, 0)) p1_inputs in
  checkb "overfull group rejected" false
    (Simple_part.Pin_ilp.feasible ~arith cdfg cons ~rate:2 ~fixed)

let test_pin_ilp_gomory_agrees () =
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  let cdfg = d.Benchmarks.cdfg in
  let some_fix = [ (List.hd (Cdfg.io_inputs_of_partition cdfg 3), 1) ] in
  List.iter
    (fun fixed ->
      checkb "methods agree" true
        (Simple_part.Pin_ilp.feasible ~arith ~method_:`Gomory cdfg cons
           ~rate:2 ~fixed
        = Simple_part.Pin_ilp.feasible ~arith ~method_:`Branch_bound cdfg cons
            ~rate:2 ~fixed))
    [ []; some_fix ]

(* --- Chapter 3 flow --- *)

let test_ch3_flow () =
  let d = Benchmarks.ar_simple () in
  let r = Flows.run_ok F.Ch3 d ~rate:2 in
  checkb "schedule valid" true (Mcs_sched.Schedule.verify r.F.schedule = Ok ());
  (* Paper values: P1/P2 use 48 pins, P3/P4 use 32. *)
  checki "P1 pins" 48 (List.assoc 1 r.F.pins);
  checki "P2 pins" 48 (List.assoc 2 r.F.pins);
  checki "P3 pins" 32 (List.assoc 3 r.F.pins);
  checki "P4 pins" 32 (List.assoc 4 r.F.pins);
  (* Theorem 3.1's own check already ran inside the flow; run it again. *)
  checkb "connection conflict-free" true
    (Simple_part.Theorem31.check r.F.schedule (Flows.bundles r) = Ok ())

let test_ch3_rejects_general () =
  let d = Benchmarks.ar_general () in
  checkb "general partitioning rejected" true
    (match Flows.run F.Ch3 d ~rate:3 with
    | Error dg -> dg.Mcs_flow.Diag.code = Mcs_flow.Diag.Invalid_input
    | Ok _ -> false)

let test_theorem31_check_catches_conflicts () =
  let d = Benchmarks.ar_simple () in
  let r = Flows.run_ok F.Ch3 d ~rate:2 in
  (* Halving a bundle must break the check. *)
  let broken =
    List.map
      (fun (b : Simple_part.Theorem31.bundle) ->
        { b with Simple_part.Theorem31.wires = b.wires / 2 })
      (Flows.bundles r)
  in
  checkb "conflict detected" true
    (Simple_part.Theorem31.check r.F.schedule broken <> Ok ())

(* --- Chapter 4 flow --- *)

let test_ch4_flow_all_rates () =
  let d = Benchmarks.ar_general () in
  List.iter
    (fun rate ->
      List.iter
        (fun mode ->
          let r = Flows.run_ok F.Ch4 ~mode d ~rate in
          checkb "valid schedule" true
            (Mcs_sched.Schedule.verify r.F.schedule = Ok ());
          (* Final assignment covers every I/O operation. *)
          checki "all ops placed"
            (List.length (Cdfg.io_ops d.Benchmarks.cdfg))
            (List.length (snd (Flows.buses r))))
        [ Mcs_connect.Connection.Unidir; Mcs_connect.Connection.Bidir ])
    [ 3; 4; 5 ]

let test_ch4_bidir_fewer_pins () =
  (* The paper's headline: bidirectional ports need fewer pins. *)
  let d = Benchmarks.ar_general () in
  List.iter
    (fun rate ->
      match
        ( Flows.run F.Ch4 ~mode:Mcs_connect.Connection.Unidir d ~rate,
          Flows.run F.Ch4 ~mode:Mcs_connect.Connection.Bidir d ~rate )
      with
      | Ok uni, Ok bi ->
          checkb
            (Printf.sprintf "rate %d: bidir <= unidir pins" rate)
            true
            (F.pins_total bi <= F.pins_total uni)
      | _ -> Alcotest.fail "flows failed")
    [ 3; 4; 5 ]

let test_ch4_ewf () =
  let d = Benchmarks.elliptic () in
  List.iter
    (fun rate ->
      let r = Flows.run_ok F.Ch4 ~mode:Mcs_connect.Connection.Unidir d ~rate in
      checkb "valid" true (Mcs_sched.Schedule.verify r.F.schedule = Ok ()))
    [ 6; 7 ]

(* --- Chapter 5 flow --- *)

let test_ch5_cliques_valid () =
  let d = Benchmarks.ar_general () in
  let r =
    Flows.run_ok F.Ch5 ~pipe_length:9 ~mode:Mcs_connect.Connection.Bidir d
      ~rate:4
  in
  let conn, assignment = Flows.buses r in
  let cdfg = d.Benchmarks.cdfg in
  let s = r.F.schedule in
  checkb "valid schedule" true (Mcs_sched.Schedule.verify s = Ok ());
  (* Within a clique (bus), two ops in the same control-step group must
     transfer the same value in the same control step. *)
  let by_bus = Mcs_util.Listx.group_by snd assignment in
  List.iter
    (fun (_, members) ->
      let ops = List.map fst members in
      List.iter
        (fun w1 ->
          List.iter
            (fun w2 ->
              if
                w1 < w2
                && Mcs_sched.Schedule.group s w1 = Mcs_sched.Schedule.group s w2
              then begin
                checkb "same value" true
                  (String.equal (Cdfg.io_value cdfg w1) (Cdfg.io_value cdfg w2));
                checki "same cstep" (Mcs_sched.Schedule.cstep s w1)
                  (Mcs_sched.Schedule.cstep s w2)
              end)
            ops)
        ops)
    by_bus;
  (* Buses are wired wide enough for their traffic. *)
  List.iter
    (fun (w, h) ->
      checkb "capable" true (Mcs_connect.Connection.capable conn cdfg ~bus:h w))
    assignment

let test_ch5_weight_function () =
  let d = Benchmarks.ar_general () in
  let cdfg = d.Benchmarks.cdfg in
  let ios = Cdfg.io_ops cdfg in
  let same_src =
    List.filter (fun w -> Cdfg.io_src cdfg w = 0 && Cdfg.io_width cdfg w = 8) ios
  in
  match same_src with
  | w1 :: w2 :: _ ->
      (* Two 8-bit primary inputs to different chips share only the source
         endpoint: weight 8 unidirectional. *)
      let w =
        Post_connect.weight cdfg ~mode:Mcs_connect.Connection.Unidir w1 w2
      in
      checkb "weight multiple of min width" true (w = 8 || w = 16)
  | _ -> Alcotest.fail "expected inputs"

let test_ch5_ewf_rate5 () =
  (* Chapter 5's approach handles the rate the greedy Chapter 4 flow
     cannot. *)
  let d = Benchmarks.elliptic () in
  let r =
    Flows.run_ok F.Ch5 ~pipe_length:25 ~mode:Mcs_connect.Connection.Unidir d
      ~rate:5
  in
  checkb "rate-5 schedule valid" true
    (Mcs_sched.Schedule.verify r.F.schedule = Ok ())

(* --- Chapter 6 flow --- *)

let test_ch6_ar () =
  let d = Benchmarks.ar_general () in
  let t = Flows.run_ok F.Ch6 d ~rate:4 in
  let real_buses, _, _ = Flows.subbuses t in
  checkb "valid schedule" true (Mcs_sched.Schedule.verify t.F.schedule = Ok ());
  let cdfg = d.Benchmarks.cdfg in
  (* Slices hold their assigned operations widthwise. *)
  List.iter
    (fun (rb : Subbus.real_bus) ->
      List.iter
        (fun (w, s) ->
          let width = Cdfg.io_width cdfg w in
          match (rb.split_at, s) with
          | None, Subbus.Whole -> checkb "fits" true (width <= rb.width)
          | Some lo, Subbus.Lo -> checkb "fits lo" true (width <= lo)
          | Some lo, Subbus.Hi -> checkb "fits hi" true (width <= rb.width - lo)
          | Some _, Subbus.Whole -> checkb "fits whole" true (width <= rb.width)
          | None, (Subbus.Lo | Subbus.Hi) -> Alcotest.fail "slice on unsplit bus")
        rb.carried)
    real_buses;
  (* Pin totals match the port lists. *)
  List.iter
    (fun (p, n) ->
      checki "pins consistent" n
        (Mcs_util.Listx.sum
           (fun (rb : Subbus.real_bus) ->
             Mcs_util.Listx.sum (fun (q, r) -> if q = p then r else 0) rb.ports)
           real_buses))
    t.F.pins

let test_ch6_demo_needs_sharing () =
  let demo = Benchmarks.subbus_demo () in
  checkb "chapter-4 flow infeasible at 40 pins" true
    (Flows.run F.Ch4 ~mode:Mcs_connect.Connection.Bidir demo ~rate:3
    |> Result.is_error);
  let t = Flows.run_ok F.Ch6 demo ~rate:3 in
  let real_buses, _, _ = Flows.subbuses t in
  checkb "sharing flow feasible" true
    (Mcs_sched.Schedule.verify t.F.schedule = Ok ());
  checkb "a bus actually split" true
    (List.exists (fun (b : Subbus.real_bus) -> b.split_at <> None) real_buses);
  checkb "P1 within 40 pins" true (List.assoc 1 t.F.pins <= 40)

let test_ch6_allocation_no_half_conflicts () =
  let demo = Benchmarks.subbus_demo () in
  let _, _, allocation = Flows.subbuses (Flows.run_ok F.Ch6 demo ~rate:3) in
  (* At most one value per (bus, half, group): whole-bus entries count on
     both halves. *)
  let occupancy = Hashtbl.create 16 in
  List.iter
    (fun ((bus, slice, g), (value, cstep, _)) ->
      let halves =
        match slice with
        | Subbus.Lo -> [ `L ]
        | Subbus.Hi -> [ `H ]
        | Subbus.Whole -> [ `L; `H ]
      in
      List.iter
        (fun h ->
          match Hashtbl.find_opt occupancy (bus, h, g) with
          | Some (v', c') ->
              checkb "only same value+step may share" true
                (String.equal v' value && c' = cstep)
          | None -> Hashtbl.add occupancy (bus, h, g) (value, cstep))
        halves)
    allocation

(* --- Extensions --- *)

let test_thm71_equivalence () =
  let yes =
    Extensions.Recursion.theorem71_instance ~tasks:3
      ~precedence:[ (1, 2); (2, 3) ]
      ~machines:1 ~deadline:3
  in
  let no =
    Extensions.Recursion.theorem71_instance ~tasks:4
      ~precedence:[ (1, 2); (2, 3); (3, 4) ]
      ~machines:1 ~deadline:3
  in
  let go (cdfg, cons, mlib, rate) =
    ( Extensions.Recursion.schedulable_sharing_one_bus cdfg cons mlib ~rate,
      Extensions.Recursion.schedulable_with_two_buses cdfg cons mlib ~rate )
  in
  Alcotest.(check (pair bool bool)) "yes-instance" (true, true) (go yes);
  Alcotest.(check (pair bool bool)) "no-instance" (false, true) (go no)

let test_thm71_parallel_tasks () =
  (* Two independent tasks on two machines fit a deadline of 1. *)
  let i =
    Extensions.Recursion.theorem71_instance ~tasks:2 ~precedence:[] ~machines:2
      ~deadline:1
  in
  let cdfg, cons, mlib, rate = i in
  checkb "parallel yes-instance" true
    (Extensions.Recursion.schedulable_sharing_one_bus cdfg cons mlib ~rate)

let test_cond_share_groups () =
  let d = Benchmarks.cond_demo () in
  let groups =
    Extensions.Cond_share.run d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:2
      ~pipe_length:8 ()
  in
  let cdfg = d.Benchmarks.cdfg in
  (* Groups only merge mutually exclusive operations. *)
  List.iter
    (fun (g : Extensions.Cond_share.group) ->
      List.iter
        (fun w1 ->
          List.iter
            (fun w2 ->
              if w1 <> w2 then
                checkb "mutually exclusive" true
                  (Cdfg.mutually_exclusive cdfg w1 w2))
            g.members)
        g.members)
    groups;
  (* The then/else transfers between the same chips merge, saving pins. *)
  checkb "some sharing found" true
    (List.exists (fun (g : Extensions.Cond_share.group) -> List.length g.members > 1) groups);
  checkb "pins saved" true (Extensions.Cond_share.pins_saved cdfg groups > 0)

let test_tdm_transform () =
  let d = Benchmarks.ar_general () in
  let cdfg = d.Benchmarks.cdfg in
  let cdfg' =
    Extensions.Tdm.apply cdfg ~value:"a24" ~dst:3 ~parts:2 ~split_optype:"split"
      ~merge_optype:"merge"
  in
  (* One io replaced by two + split + merge = +3 nodes. *)
  checki "node delta" (Cdfg.n_ops cdfg + 3) (Cdfg.n_ops cdfg');
  (* Part transfers carry half the width. *)
  let parts =
    List.filter
      (fun w ->
        Cdfg.is_io cdfg' w
        && Cdfg.io_dst cdfg' w = 3
        && Cdfg.io_width cdfg' w = 8)
      (Cdfg.ops cdfg')
  in
  checkb "two 8-bit parts" true (List.length parts >= 2);
  (* Still acyclic and schedulable with split/merge modules. *)
  let mlib =
    Module_lib.create ~stage_ns:250 ~io_delay_ns:10
      [ ("add", 30); ("mul", 210); ("split", 5); ("merge", 5) ]
  in
  let base = Constraints.min_fus cdfg' mlib ~rate:4 in
  let cons =
    Constraints.create ~n_partitions:3
      ~pins:[ (0, 200); (1, 200); (2, 200); (3, 200) ]
      ~fus:base
  in
  match Mcs_sched.List_sched.run cdfg' mlib cons ~rate:4 () with
  | Ok s -> checkb "tdm cdfg schedulable" true (Mcs_sched.Schedule.verify s = Ok ())
  | Error f -> Alcotest.fail f.Mcs_sched.List_sched.reason

let test_tdm_primary_input () =
  let d = Benchmarks.ar_general () in
  (* Primary input: no split node, parts arrive pre-split. *)
  let cdfg' =
    Extensions.Tdm.apply d.Benchmarks.cdfg ~value:"Ic" ~dst:1 ~parts:2
      ~split_optype:"split" ~merge_optype:"merge"
  in
  checki "only merge added" (Cdfg.n_ops d.Benchmarks.cdfg + 2) (Cdfg.n_ops cdfg')

let test_multicycle_bounds () =
  checki "eq 7.5 exact" 1 (Extensions.Multicycle.lower_bound ~ops:3 ~rate:6 ~cycles:2);
  checki "eq 7.5 tight" 2 (Extensions.Multicycle.lower_bound ~ops:4 ~rate:6 ~cycles:2);
  checki "eq 7.5 floor matters" 3
    (Extensions.Multicycle.lower_bound ~ops:3 ~rate:5 ~cycles:4);
  checkb "cycles > rate rejected" true
    (try
       ignore (Extensions.Multicycle.lower_bound ~ops:1 ~rate:1 ~cycles:2);
       false
     with Invalid_argument _ -> true)

let test_fragmentation () =
  Alcotest.(check (pair bool bool))
    "bad fails, good fits" (false, true)
    (Extensions.Multicycle.fragmentation_demo ())

let base_tests =
    [
      Alcotest.test_case "simple partitioning recognized" `Quick test_is_simple;
      Alcotest.test_case "three drivees violate Def 3.2" `Quick test_simple_three_drivees;
      Alcotest.test_case "shared driver violates Def 3.2" `Quick test_simple_shared_driver_violation;
      Alcotest.test_case "pin ILP feasible at paper budgets" `Quick test_pin_ilp_feasible_baseline;
      Alcotest.test_case "pin ILP infeasible when tight" `Quick test_pin_ilp_infeasible_when_tight;
      Alcotest.test_case "pin ILP rejects overfull groups" `Quick test_pin_ilp_detects_bad_fixing;
      Alcotest.test_case "pin ILP: Gomory = branch&bound" `Slow test_pin_ilp_gomory_agrees;
      Alcotest.test_case "chapter 3 flow" `Quick test_ch3_flow;
      Alcotest.test_case "chapter 3 rejects general partitionings" `Quick test_ch3_rejects_general;
      Alcotest.test_case "Theorem 3.1 check catches conflicts" `Quick test_theorem31_check_catches_conflicts;
      Alcotest.test_case "chapter 4 flow (AR, all rates/modes)" `Quick test_ch4_flow_all_rates;
      Alcotest.test_case "bidirectional ports save pins" `Quick test_ch4_bidir_fewer_pins;
      Alcotest.test_case "chapter 4 flow (EWF)" `Quick test_ch4_ewf;
      Alcotest.test_case "chapter 5 cliques valid" `Quick test_ch5_cliques_valid;
      Alcotest.test_case "chapter 5 weight function" `Quick test_ch5_weight_function;
      Alcotest.test_case "chapter 5 handles EWF rate 5" `Quick test_ch5_ewf_rate5;
      Alcotest.test_case "chapter 6 flow (AR)" `Quick test_ch6_ar;
      Alcotest.test_case "chapter 6 demo needs sharing" `Quick test_ch6_demo_needs_sharing;
      Alcotest.test_case "chapter 6 sub-slot allocation" `Quick test_ch6_allocation_no_half_conflicts;
      Alcotest.test_case "Theorem 7.1 reduction" `Quick test_thm71_equivalence;
      Alcotest.test_case "Theorem 7.1 parallel tasks" `Quick test_thm71_parallel_tasks;
      Alcotest.test_case "conditional I/O sharing" `Quick test_cond_share_groups;
      Alcotest.test_case "TDM transform" `Quick test_tdm_transform;
      Alcotest.test_case "TDM on primary inputs" `Quick test_tdm_primary_input;
      Alcotest.test_case "Eq. 7.5 lower bounds" `Quick test_multicycle_bounds;
      Alcotest.test_case "fragmentation demo" `Quick test_fragmentation;
    ]

(* --- Improvement by postponement/restart (Refine's resched-tail move) ---

   The paper's parenthesized pipe lengths: the Ch. 4 flow's result, then
   [Refine.improve] re-running the scheduler with perturbed priorities and
   postponed I/O over the same connection. *)

let improve_ch4 d ~rate =
  let mode = Mcs_connect.Connection.Unidir in
  let base = Flows.run_ok F.Ch4 ~mode d ~rate in
  let spec = F.spec_of_design ~mode ~flow:F.Ch4 d ~rate in
  (base, (Mcs_refine.Refine.improve ~max_iters:8 spec base).result)

let test_improve_never_worse () =
  let d = Benchmarks.ar_general () in
  List.iter
    (fun rate ->
      let base, better = improve_ch4 d ~rate in
      checkb "valid" true (Mcs_sched.Schedule.verify better.F.schedule = Ok ());
      checkb "pins unchanged" true (better.F.pins = base.F.pins);
      checkb
        (Printf.sprintf "rate %d not worse" rate)
        true
        (better.F.pipe_length <= base.F.pipe_length))
    [ 3; 4 ]

let test_improve_finds_shorter_pipe () =
  (* At rate 3 the perturbations reliably beat the plain greedy run. *)
  let base, better = improve_ch4 (Benchmarks.ar_general ()) ~rate:3 in
  checkb "strictly better on this instance" true
    (better.F.pipe_length < base.F.pipe_length)

let test_dot_export () =
  let d = Benchmarks.ar_simple () in
  let s = Format.asprintf "%a" Dot.pp d.Benchmarks.cdfg in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "digraph" true (contains "digraph");
  checkb "clusters" true (contains "cluster_p4");
  checkb "io node" true (contains "X1");
  let e = Benchmarks.elliptic () in
  let s2 = Format.asprintf "%a" Dot.pp e.Benchmarks.cdfg in
  let contains2 needle =
    let nl = String.length needle and hl = String.length s2 in
    let rec go i = i + nl <= hl && (String.sub s2 i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "recursive edges dashed" true (contains2 "style=dashed")

(* The line-slot capacity lemma behind [Subbus.search]'s refutation, on a
   returned bus structure: with L the largest distinct-value load on any
   slice (a Whole occupant loading both halves), the values touching each
   partition p carry at most L x (p's pins) bits, a value counting once at
   its widest operation touching p.  Returns the partitions breaking it. *)
let slot_capacity_violations cdfg (real : Subbus.real_bus list) =
  let load (rb : Subbus.real_bus) half =
    List.length
      (List.sort_uniq String.compare
         (List.filter_map
            (fun (w, s) ->
              if s = half || s = Subbus.Whole then Some (Cdfg.io_value cdfg w)
              else None)
            rb.carried))
  in
  let l =
    List.fold_left
      (fun m rb -> max m (max (load rb Subbus.Lo) (load rb Subbus.Hi)))
      0 real
  in
  let widest = Hashtbl.create 64 in
  List.iter
    (fun w ->
      let v = Cdfg.io_value cdfg w and width = Cdfg.io_width cdfg w in
      List.iter
        (fun p ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt widest (p, v)) in
          Hashtbl.replace widest (p, v) (max prev width))
        (List.sort_uniq compare [ Cdfg.io_src cdfg w; Cdfg.io_dst cdfg w ]))
    (Cdfg.io_ops cdfg);
  let pins p =
    Mcs_util.Listx.sum
      (fun (rb : Subbus.real_bus) ->
        Option.value ~default:0 (List.assoc_opt p rb.ports))
      real
  in
  List.filter
    (fun p ->
      let bits =
        Hashtbl.fold (fun (q, _) w acc -> if q = p then acc + w else acc) widest 0
      in
      bits > l * pins p)
    (Mcs_util.Listx.range 0 (Cdfg.n_partitions cdfg + 1))

let test_slot_capacity_golden () =
  List.iter
    (fun (c : Golden_connect.case) ->
      if c.kind = Golden_connect.Ch6 then
        match
          Subbus.search c.cdfg c.cons ~rate:c.rate ~slot_cap:c.cap ()
        with
        | Ok (real, _) ->
            Alcotest.(check (list int))
              (c.key ^ ": line-slot capacity") []
              (slot_capacity_violations c.cdfg real)
        | Error _ -> ())
    (Golden_connect.cases ())

(* Generated general and simple partitionings at rates 2-4, under budgets
   from [max_pct]% down to 40% of a dedicated bus per value. *)
let arb_budgeted ~max_pct =
  let gen =
    QCheck.Gen.(
      map
        (fun (seed, simple, rate, pct) ->
          let name =
            if simple then
              Printf.sprintf "rsimple:%d:%d:%d" seed (2 + (seed mod 2))
                (4 + (seed mod 3))
            else
              Printf.sprintf "random:%d:%d:%d" seed (2 + (seed mod 3))
                (12 + (4 * (seed mod 4)))
          in
          (name, rate, pct))
        (quad (int_bound 1_000_000) bool (int_range 2 4)
           (int_range 40 max_pct)))
  in
  QCheck.make
    ~print:(fun (name, rate, pct) ->
      Printf.sprintf "%s rate %d budget %d%%" name rate pct)
    gen

let arb_generated = arb_budgeted ~max_pct:100

(* [f d cons cap] at every slot cap of a generated case. *)
let at_every_cap (name, rate, pct) f =
  let d = Golden_connect.resolve name in
  let cons =
    Golden_connect.tight_constraints d.Benchmarks.cdfg
      (Benchmarks.constraints_for_bidir d ~rate)
      ~pct
  in
  List.for_all (f d cons) (Mcs_util.Listx.range 1 (rate + 1))

let prop_slot_capacity =
  QCheck.Test.make ~name:"Ch. 6 searches obey the line-slot capacity bound"
    ~count:40 arb_generated (fun ((_, rate, _) as case) ->
      at_every_cap case (fun d cons cap ->
          let cdfg = d.Benchmarks.cdfg in
          match Subbus.search cdfg cons ~rate ~slot_cap:cap () with
          | Ok (real, _) -> slot_capacity_violations cdfg real = []
          | Error _ -> true))

(* The sub-slot hooks, dynamic and static, schedule, assign and allocate
   exactly as the from-scratch reference does. *)
let prop_subbus_oracle =
  QCheck.Test.make
    ~name:"Ch. 6 sub-slot hooks match the from-scratch reference" ~count:40
    arb_generated (fun ((_, rate, _) as case) ->
      at_every_cap case (fun d cons cap ->
          let cdfg = d.Benchmarks.cdfg and mlib = d.Benchmarks.mlib in
          match Subbus.search cdfg cons ~rate ~slot_cap:cap () with
          | Error _ -> true
          | Ok ra ->
              List.for_all
                (fun dynamic ->
                  let got =
                    match Subbus.schedule_over cdfg mlib cons ~rate ~dynamic ra with
                    | Ok t ->
                        Ok
                          ( List.map
                              (Mcs_sched.Schedule.cstep t.Subbus.schedule)
                              (Cdfg.ops cdfg),
                            t.Subbus.final_assignment,
                            t.Subbus.allocation )
                    | Error m -> Error m
                  in
                  got = Subbus_oracle.schedule cdfg mlib cons ~rate ~dynamic ra)
                [ true; false ]))

(* ar-general at rate 3: caps 2 and 1 break the bound on partitions 0 and
   1 (260 bits of distinct values against 2 x 116 pins, 208 against
   2 x 100), so the search refutes them before its first node; cap 3
   searches as before. *)
let test_ch6_refutes_infeasible_caps () =
  let d = Benchmarks.ar_general () in
  let cdfg = d.Benchmarks.cdfg in
  let cons = Benchmarks.constraints_for_bidir d ~rate:3 in
  let nodes = Mcs_obs.Metrics.counter "subbus.search_nodes"
  and refuted = Mcs_obs.Metrics.counter "subbus.refuted" in
  List.iter
    (fun cap ->
      let n0 = Mcs_obs.Metrics.count nodes
      and r0 = Mcs_obs.Metrics.count refuted in
      checkb "no connection" true
        (Result.is_error (Subbus.search cdfg cons ~rate:3 ~slot_cap:cap ()));
      checki "no search node" 0 (Mcs_obs.Metrics.count nodes - n0);
      checki "refuted once" 1 (Mcs_obs.Metrics.count refuted - r0))
    [ 2; 1 ];
  let key = "ar-general ch6 r3 cap3" in
  let case =
    List.find
      (fun (c : Golden_connect.case) -> String.equal c.key key)
      (Golden_connect.paper_cases ())
  in
  Alcotest.(check string)
    "cap 3 keeps its golden record"
    (List.assoc key (Golden_connect.load "golden_connect.txt"))
    (Golden_connect.record case)

(* Assignment, bus structure, node and backtrack counts of every Ch. 6
   search in the golden fixture (paper points and generated designs). *)
let test_golden_subbus () =
  Golden_connect.check "Ch. 6" (function
    | Golden_connect.Ch6 -> true
    | Golden_connect.Ch4 _ -> false)

(* Control steps, final assignment, allocation table and I/O test count of
   every Ch. 4 and Ch. 6 schedule in the golden schedule fixture. *)
let test_golden_sched () = Golden_sched.check ()

(* The Ch. 3 hook answers from its refutations and witness exactly as
   solving every question would: both hooks see the same questions and
   commits, and the answers must agree.  Each case schedules twice, the
   second time replaying the first schedule's early half as fixed
   placements — commits the hook is never asked about, which must drop a
   witness they do not fit. *)
let test_ch3_hook_history_exact () =
  let module LS = Mcs_sched.List_sched in
  let module Sched = Mcs_sched.Schedule in
  let check name (d : Benchmarks.design) rate =
    let cdfg = d.Benchmarks.cdfg and mlib = d.Benchmarks.mlib in
    let cons = Benchmarks.constraints_for d ~rate in
    let run ?fixed () =
      let hook = Simple_part.hook ~arith cdfg cons ~rate in
      let committed = ref [] in
      let io_can sched op ~cstep =
        let yes = hook.LS.io_can sched op ~cstep in
        let k = cstep mod rate in
        Alcotest.(check bool)
          (Printf.sprintf "%s r%d: op %d at group %d" name rate op k)
          (Simple_part.Pin_ilp.feasible ~arith cdfg cons ~rate
             ~fixed:((op, k) :: !committed))
          yes;
        yes
      in
      let io_commit sched op ~cstep =
        committed := (op, cstep mod rate) :: !committed;
        hook.LS.io_commit sched op ~cstep
      in
      LS.run cdfg mlib cons ~rate ~io_hook:{ LS.io_can; io_commit } ?fixed ()
    in
    match run () with
    | Error _ -> ()
    | Ok sched ->
        let cut = Sched.pipe_length sched / 2 in
        let fixed =
          List.filter_map
            (fun op ->
              if Sched.cstep sched op < cut then Some (op, Sched.cstep sched op)
              else None)
            (Cdfg.ops cdfg)
        in
        ignore (run ~fixed ())
  in
  let ar_simple = Benchmarks.ar_simple () in
  List.iter (fun rate -> check "ar-simple" ar_simple rate) [ 2; 3; 4 ];
  for i = 0 to 29 do
    let name =
      Printf.sprintf "rsimple:%d:%d:%d" (5003 + (4409 * i)) (2 + (i mod 2))
        (4 + (i / 2 mod 3))
    in
    let d = Golden_connect.resolve name in
    List.iter (fun rate -> check name d rate) [ 2; 3; 4 ]
  done

(* A commit the witness does not cover drops it.  At ar-simple r2, I1 in
   group 0 has a completing allocation; committing X1 to group 0 without
   asking (as a fixed replay does) leaves none for X2 in group 0.  The
   float search's point for I1 puts X2 in group 0, so a kept witness
   would answer yes. *)
let test_ch3_uncovered_commit_drops_witness () =
  let module LS = Mcs_sched.List_sched in
  let d = Benchmarks.ar_simple () in
  let cdfg = d.Benchmarks.cdfg and rate = 2 in
  let cons = Benchmarks.constraints_for d ~rate in
  let op name =
    List.find (fun w -> String.equal (Cdfg.name cdfg w) name) (Cdfg.io_ops cdfg)
  in
  let sched = Mcs_sched.Schedule.create cdfg d.Benchmarks.mlib ~rate in
  let hook = Simple_part.hook ~arith cdfg cons ~rate in
  Alcotest.(check bool) "I1 fits group 0" true
    (hook.LS.io_can sched (op "I1") ~cstep:0);
  hook.LS.io_commit sched (op "X1") ~cstep:0;
  Alcotest.(check bool) "X2 no longer fits group 0" false
    (hook.LS.io_can sched (op "X2") ~cstep:0)

(* The Ch. 3 hook's (op, cstep, answer) sequence and schedule, in both
   arithmetics, for the simple bundled designs and 50 generated ones. *)
let test_golden_ch3 () = Golden_sched.check_ch3 ()

(* --- the static-assignment baseline, computed by the reports only --- *)

let ls_runs = Mcs_obs.Metrics.counter "ls.runs"

let spec_of name flow ?mode ~rate () =
  F.spec_of_design ?mode ~flow (Golden_connect.resolve name) ~rate

(* A Ch. 4 run schedules once (dynamic reassignment); the baseline is one
   more scheduling run, only when asked for. *)
let test_baseline_runs_once () =
  let spec = spec_of "ar-general" F.Ch4 ~mode:Mcs_connect.Connection.Unidir ~rate:3 () in
  let r0 = Mcs_obs.Metrics.count ls_runs in
  let r =
    match F.run F.Ch4 spec with
    | Ok r -> r
    | Error d -> Alcotest.fail (Mcs_flow.Diag.message d)
  in
  checki "Flow.run schedules once" 1 (Mcs_obs.Metrics.count ls_runs - r0);
  let r1 = Mcs_obs.Metrics.count ls_runs in
  Alcotest.(check (option int)) "baseline" (Some 11) (F.static_baseline spec r);
  checki "the baseline schedules once more" 1 (Mcs_obs.Metrics.count ls_runs - r1)

(* [static_pipe_length] as the CLI's [--json] reported it when every flow
   computed its baseline: each Ch. 4/Ch. 6 paper point, and ar-general
   ch4 after [--refine=8] (the baseline of the refined result's
   connection). *)
let baseline_points =
  let u = Some Mcs_connect.Connection.Unidir
  and b = Some Mcs_connect.Connection.Bidir in
  [
    ("ar-general", F.Ch4, u, 3, 0, Some 11);
    ("ar-general", F.Ch4, u, 4, 0, Some 12);
    ("ar-general", F.Ch4, u, 5, 0, Some 15);
    ("ar-general", F.Ch4, b, 3, 0, Some 12);
    ("ar-general", F.Ch4, b, 4, 0, Some 12);
    ("ar-general", F.Ch4, b, 5, 0, Some 15);
    ("ar-general", F.Ch6, None, 3, 0, Some 12);
    ("ar-general", F.Ch6, None, 4, 0, Some 12);
    ("ar-general", F.Ch6, None, 5, 0, Some 15);
    ("cond-demo", F.Ch4, u, 2, 0, Some 5);
    ("cond-demo", F.Ch4, u, 3, 0, Some 8);
    ("cond-demo", F.Ch4, b, 3, 0, Some 6);
    ("cond-demo", F.Ch6, None, 2, 0, Some 6);
    ("cond-demo", F.Ch6, None, 3, 0, Some 5);
    ("elliptic", F.Ch4, u, 6, 0, Some 28);
    ("elliptic", F.Ch4, u, 7, 0, Some 31);
    ("elliptic", F.Ch4, b, 6, 0, Some 28);
    ("elliptic", F.Ch4, b, 7, 0, Some 31);
    ("elliptic", F.Ch6, None, 6, 0, None);
    ("elliptic", F.Ch6, None, 7, 0, None);
    ("subbus-demo", F.Ch4, u, 3, 0, Some 6);
    ("subbus-demo", F.Ch6, None, 3, 0, Some 5);
    ("ar-general", F.Ch4, u, 3, 8, Some 11);
    ("ar-general", F.Ch4, b, 3, 8, Some 12);
  ]

let test_baseline_values () =
  List.iter
    (fun (name, flow, mode, rate, refine, want) ->
      let spec = spec_of name flow ?mode ~rate () in
      let label =
        Printf.sprintf "%s %s r%d refine %d" name (F.name_to_string flow) rate
          refine
      in
      match F.run flow spec with
      | Error d -> Alcotest.failf "%s: %s" label (Mcs_flow.Diag.message d)
      | Ok r ->
          let r =
            if refine = 0 then r
            else
              (Mcs_refine.Refine.improve ~max_iters:refine spec r)
                .Mcs_refine.Refine.result
          in
          Alcotest.(check (option int)) label want (F.static_baseline spec r))
    baseline_points

let extra_tests =
  [
    Alcotest.test_case "Improve never worsens the pipe" `Slow test_improve_never_worse;
    Alcotest.test_case "Improve beats greedy at rate 3" `Slow test_improve_finds_shorter_pipe;
    Alcotest.test_case "Graphviz export" `Quick test_dot_export;
    Alcotest.test_case "golden Ch. 6 search records" `Quick test_golden_subbus;
    Alcotest.test_case "Ch. 6 refutes infeasible slot caps" `Quick
      test_ch6_refutes_infeasible_caps;
    Alcotest.test_case "golden Ch. 6 searches obey the line-slot bound" `Quick
      test_slot_capacity_golden;
    QCheck_alcotest.to_alcotest prop_slot_capacity;
    Alcotest.test_case "golden Ch. 4/6 schedule records" `Quick
      test_golden_sched;
    QCheck_alcotest.to_alcotest prop_subbus_oracle;
    Alcotest.test_case "golden Ch. 3 hook records" `Quick test_golden_ch3;
    Alcotest.test_case "Ch. 3 hook history answers exactly" `Quick
      test_ch3_hook_history_exact;
    Alcotest.test_case "Ch. 3 uncovered commit drops the witness" `Quick
      test_ch3_uncovered_commit_drops_witness;
    Alcotest.test_case "static baseline: one run, only when asked" `Quick
      test_baseline_runs_once;
    Alcotest.test_case "static baseline values of the paper points" `Quick
      test_baseline_values;
  ]

let suite = ("core", base_tests @ extra_tests)
