(* Tests for the interchip-connection layer: bus model, bounds, the
   Chapter 4 heuristic, dynamic reassignment, and the ILP generators. *)

open Mcs_cdfg
open Mcs_connect

(* The arithmetic the default flow policy runs ([MCS_ARITH] decides). *)
let arith = Mcs_flow.Flow.default_policy.Mcs_flow.Flow.arith

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Connection --- *)

let test_connection_unidir () =
  let c = Connection.create Connection.Unidir ~n_partitions:3 in
  let h = Connection.new_bus c in
  Connection.widen_for c ~bus:h ~src:1 ~dst:2 ~width:16;
  checki "out width" 16 (Connection.out_width c ~bus:h ~partition:1);
  checki "in width" 16 (Connection.in_width c ~bus:h ~partition:2);
  checki "other partitions 0" 0 (Connection.out_width c ~bus:h ~partition:2);
  checki "pins src" 16 (Connection.pins_used c 1);
  checki "pins dst" 16 (Connection.pins_used c 2);
  Connection.widen_for c ~bus:h ~src:1 ~dst:2 ~width:8;
  checki "widen is monotone" 16 (Connection.out_width c ~bus:h ~partition:1)

let test_connection_bidir_aliasing () =
  let c = Connection.create Connection.Bidir ~n_partitions:2 in
  let h = Connection.new_bus c in
  Connection.widen_for c ~bus:h ~src:1 ~dst:2 ~width:12;
  (* One bidirectional port per partition: in = out. *)
  checki "in aliases out" 12 (Connection.in_width c ~bus:h ~partition:1);
  checki "pins counted once" 12 (Connection.pins_used c 1)

let test_connection_capable () =
  let b = Cdfg.Builder.create ~n_partitions:2 in
  let w8 = Cdfg.Builder.io b ~src:1 ~dst:2 ~width:8 "v8" in
  let w16 = Cdfg.Builder.io b ~src:1 ~dst:2 ~width:16 "v16" in
  let cdfg = Cdfg.Builder.finish b in
  let c = Connection.create Connection.Unidir ~n_partitions:2 in
  let h = Connection.new_bus c in
  Connection.widen_for c ~bus:h ~src:1 ~dst:2 ~width:8;
  checkb "8-bit fits" true (Connection.capable c cdfg ~bus:h w8);
  checkb "16-bit does not" false (Connection.capable c cdfg ~bus:h w16)

let test_connection_topology_and_copy () =
  let c = Connection.create Connection.Unidir ~n_partitions:3 in
  let h = Connection.new_bus c in
  Connection.widen_for c ~bus:h ~src:1 ~dst:2 ~width:8;
  Connection.widen_for c ~bus:h ~src:1 ~dst:3 ~width:8;
  Alcotest.(check (pair (list int) (list int)))
    "topology" ([ 1 ], [ 2; 3 ]) (Connection.topology c ~bus:h);
  Alcotest.(check (list int)) "on bus" [ 1; 2; 3 ] (Connection.partitions_on_bus c ~bus:h);
  checki "bus width" 8 (Connection.bus_width c ~bus:h);
  let c2 = Connection.copy c in
  Connection.widen_for c2 ~bus:h ~src:1 ~dst:2 ~width:32;
  checki "copy isolated" 8 (Connection.out_width c ~bus:h ~partition:1)

let test_drop_last_bus () =
  let c = Connection.create Connection.Unidir ~n_partitions:1 in
  let h = Connection.new_bus c in
  checki "one bus" 1 (Connection.n_buses c);
  Connection.drop_last_bus c;
  checki "dropped" 0 (Connection.n_buses c);
  let h2 = Connection.new_bus c in
  Connection.widen_for c ~bus:h2 ~src:0 ~dst:1 ~width:4;
  checkb "wired bus protected" true
    (try
       Connection.drop_last_bus c;
       false
     with Invalid_argument _ -> true);
  ignore h

(* --- Bounds --- *)

let test_bounds_ar_simple () =
  let d = Benchmarks.ar_simple () in
  let cdfg = d.Benchmarks.cdfg in
  (* P1 receives 10 8-bit values at rate 2: 5 ports, 40 pins. *)
  checki "P1 min input pins" 40 (Bounds.min_input_pins cdfg ~rate:2 ~partition:1);
  (* P1 outputs 2 values at rate 2: 1 port, 8 pins. *)
  checki "P1 min output pins" 8 (Bounds.min_output_pins cdfg ~rate:2 ~partition:1);
  let cons = Benchmarks.constraints_for d ~rate:2 in
  (* With 48 total pins: 40 input pins available -> 5 ports of 8 bits. *)
  checki "P1 max input ports" 5
    (Bounds.max_input_ports cdfg cons ~rate:2 ~partition:1)

let test_bounds_mixed_widths () =
  let d = Benchmarks.ar_general () in
  let cdfg = d.Benchmarks.cdfg in
  (* Wider values occupy ports narrower values can ride along. *)
  let min_in = Bounds.min_input_pins cdfg ~rate:3 ~partition:1 in
  checkb "P1 min input pins sane" true (min_in >= 48 && min_in <= 135);
  let cons = Benchmarks.constraints_for d ~rate:3 in
  let r = Bounds.max_buses cdfg cons ~rate:3 in
  (* 34 values need at least 12 buses at rate 3; the bound must allow it
     but stay far below one-bus-per-operation. *)
  checkb "R in a sensible band" true (r >= 12 && r < 34)

let test_bounds_bidir_halves () =
  let d = Benchmarks.ar_general () in
  let cons = Benchmarks.constraints_for_bidir d ~rate:3 in
  let r = Bounds.max_buses_bidir d.Benchmarks.cdfg cons ~rate:3 in
  checkb "bidir bound positive" true (r >= 1)

(* --- Heuristic --- *)

let heuristic_invariants (d : Benchmarks.design) cons ~rate ~mode =
  match Heuristic.search d.Benchmarks.cdfg cons ~rate ~mode () with
  | Error m -> Alcotest.fail (Heuristic.error_message m)
  | Ok res ->
      let cdfg = d.Benchmarks.cdfg in
      (* Every operation's bus is capable of carrying it. *)
      List.iter
        (fun (w, h) ->
          checkb "bus capable" true (Connection.capable res.Heuristic.conn cdfg ~bus:h w))
        res.Heuristic.assign;
      (* Capacity: distinct values per bus within the initiation rate. *)
      List.iter
        (fun h ->
          let values =
            Mcs_util.Listx.uniq String.equal
              (List.filter_map
                 (fun (w, h') -> if h = h' then Some (Cdfg.io_value cdfg w) else None)
                 res.Heuristic.assign)
          in
          checkb "capacity" true (List.length values <= rate))
        (Mcs_util.Listx.range 0 (Connection.n_buses res.Heuristic.conn));
      (* Pin budgets respected. *)
      List.iteri
        (fun p used -> checkb "budget" true (used <= Constraints.pins cons p))
        (Heuristic.pins_used_by_partition res)

let test_heuristic_ar_rates () =
  let d = Benchmarks.ar_general () in
  List.iter
    (fun rate ->
      heuristic_invariants d (Benchmarks.constraints_for d ~rate) ~rate
        ~mode:Connection.Unidir;
      heuristic_invariants d
        (Benchmarks.constraints_for_bidir d ~rate)
        ~rate ~mode:Connection.Bidir)
    [ 3; 4; 5 ]

let test_heuristic_ewf () =
  let d = Benchmarks.elliptic () in
  List.iter
    (fun rate ->
      heuristic_invariants d (Benchmarks.constraints_for d ~rate) ~rate
        ~mode:Connection.Unidir)
    [ 6; 7 ]

let test_heuristic_infeasible_budget () =
  let d = Benchmarks.ar_general () in
  let cons =
    Constraints.with_pins
      (Benchmarks.constraints_for d ~rate:3)
      [ (0, 8); (1, 8); (2, 8); (3, 8) ]
  in
  checkb "tiny budgets rejected" true
    (Heuristic.search d.Benchmarks.cdfg cons ~rate:3 ~mode:Connection.Unidir ()
     |> Result.is_error)

let test_heuristic_slot_cap () =
  let d = Benchmarks.elliptic () in
  let cons = Benchmarks.constraints_for d ~rate:6 in
  let buses cap =
    match
      Heuristic.search d.Benchmarks.cdfg cons ~rate:6 ~mode:Connection.Unidir
        ~slot_cap:cap ()
    with
    | Ok res -> Connection.n_buses res.Heuristic.conn
    | Error m -> Alcotest.fail (Heuristic.error_message m)
  in
  checkb "lower cap, more buses" true (buses 4 >= buses 6)

(* --- Reassign --- *)

let run_with_reassign (d : Benchmarks.design) ~rate ~mode ~dynamic =
  let cons =
    match mode with
    | Connection.Unidir -> Benchmarks.constraints_for d ~rate
    | Connection.Bidir -> Benchmarks.constraints_for_bidir d ~rate
  in
  match Heuristic.search d.Benchmarks.cdfg cons ~rate ~mode () with
  | Error m -> Alcotest.fail (Heuristic.error_message m)
  | Ok res ->
      let ra =
        Reassign.create d.Benchmarks.cdfg res.Heuristic.conn ~rate
          ~initial:res.Heuristic.assign ~dynamic
      in
      (match
         Mcs_sched.List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons
           ~rate ~io_hook:(Reassign.hook ra) ()
       with
      | Error f -> Error f.Mcs_sched.List_sched.reason
      | Ok s -> Ok (s, ra, res))

let test_reassign_allocation_invariants () =
  let d = Benchmarks.ar_general () in
  match run_with_reassign d ~rate:4 ~mode:Connection.Unidir ~dynamic:true with
  | Error m -> Alcotest.fail m
  | Ok (s, ra, res) ->
      checkb "schedule valid" true (Mcs_sched.Schedule.verify s = Ok ());
      let cdfg = d.Benchmarks.cdfg in
      (* Every committed operation landed on a capable bus in the group it
         was scheduled in, and slot sharing only pairs same value + same
         control step. *)
      List.iter
        (fun ((h, g), (value, cstep, ops)) ->
          checkb "group consistent" true (g = cstep mod 4);
          List.iter
            (fun w ->
              checkb "capable" true (Connection.capable res.Heuristic.conn cdfg ~bus:h w);
              checkb "same value" true (String.equal (Cdfg.io_value cdfg w) value);
              checki "same cstep" cstep (Mcs_sched.Schedule.cstep s w))
            ops)
        (Reassign.allocation_table ra);
      (* One entry per (bus, group). *)
      let keys = List.map fst (Reassign.allocation_table ra) in
      checki "no duplicate slots" (List.length keys)
        (List.length (List.sort_uniq compare keys));
      (* All I/O operations committed. *)
      checki "all committed"
        (List.length (Cdfg.io_ops cdfg))
        (List.length (Reassign.final_assignment ra))

let test_reassign_static_stays_on_initial_bus () =
  let d = Benchmarks.ar_general () in
  match run_with_reassign d ~rate:4 ~mode:Connection.Unidir ~dynamic:false with
  | Error m -> Alcotest.fail m
  | Ok (_, ra, res) ->
      List.iter
        (fun (w, h) ->
          checki "static: final = initial" (List.assoc w res.Heuristic.assign) h)
        (Reassign.final_assignment ra)

let test_reassign_shares_same_value_slot () =
  (* EWF's Ia/Ib transfer one value to two chips; with the connection the
     heuristic finds they can share a slot when scheduled together. *)
  let d = Benchmarks.elliptic () in
  match run_with_reassign d ~rate:7 ~mode:Connection.Unidir ~dynamic:true with
  | Error m -> Alcotest.fail m
  | Ok (_, ra, _) ->
      let shared =
        List.exists
          (fun ((_, _), (_, _, ops)) -> List.length ops > 1)
          (Reassign.allocation_table ra)
      in
      (* Sharing is opportunistic; at minimum the table stays consistent
         (checked above).  Record whether sharing happened for visibility. *)
      ignore shared

(* --- ILP generators --- *)

let test_ch4_ilp_small () =
  let d = Benchmarks.cond_demo () in
  let cons = Benchmarks.constraints_for d ~rate:2 in
  match
    Ilp_gen.Ch4.solve ~arith d.Benchmarks.cdfg cons ~rate:2
      ~mode:Connection.Unidir
      ~max_buses:5
  with
  | `Sat (assign, pins) ->
      checki "all ops assigned"
        (List.length (Cdfg.io_ops d.Benchmarks.cdfg))
        (List.length assign);
      List.iteri
        (fun p (p', used) ->
          checki "partition order" p p';
          checkb "ILP respects budgets" true (used <= Constraints.pins cons p))
        pins
  | `Unsat -> Alcotest.fail "ILP claims infeasible but the heuristic succeeds"
  | `Unknown -> Alcotest.fail "ILP gave up"
  | `Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_ch4_ilp_detects_infeasible () =
  let d = Benchmarks.cond_demo () in
  let cons =
    Constraints.with_pins
      (Benchmarks.constraints_for d ~rate:2)
      [ (0, 4); (1, 4); (2, 4); (3, 4) ]
  in
  checkb "unsat under 4-pin budgets" true
    (Ilp_gen.Ch4.solve ~arith d.Benchmarks.cdfg cons ~rate:2
       ~mode:Connection.Unidir ~max_buses:5
    = `Unsat)

let test_ch6_ilp_micro () =
  (* Two 4-bit transfers between two chips, one 8-bit bus, one slot:
     feasible only because both values share the bus via sub-buses. *)
  let b = Cdfg.Builder.create ~n_partitions:2 in
  let p1 = Cdfg.Builder.func b ~name:"p1" ~partition:1 "add" in
  let p2 = Cdfg.Builder.func b ~name:"p2" ~partition:1 "add" in
  let x1 = Cdfg.Builder.io b ~name:"x1" ~src:1 ~dst:2 ~width:4 "v1" in
  let x2 = Cdfg.Builder.io b ~name:"x2" ~src:1 ~dst:2 ~width:4 "v2" in
  Cdfg.Builder.dep b p1 x1;
  Cdfg.Builder.dep b p2 x2;
  let cdfg = Cdfg.Builder.finish b in
  let cons =
    Constraints.create ~n_partitions:2
      ~pins:[ (0, 0); (1, 8); (2, 8) ]
      ~fus:[ (1, "add", 2) ]
  in
  Alcotest.(check (option bool))
    "split makes one slot enough" (Some true)
    (Ilp_gen.Ch6.feasible ~arith cdfg cons ~rate:1 ~max_buses:1 ~subs:2);
  Alcotest.(check (option bool))
    "without sub-buses one slot is too few" (Some false)
    (Ilp_gen.Ch6.feasible ~arith cdfg cons ~rate:1 ~max_buses:1 ~subs:1)


let test_heuristic_deterministic () =
  let d = Benchmarks.ar_general () in
  let cons = Benchmarks.constraints_for d ~rate:4 in
  let go () =
    match Heuristic.search d.Benchmarks.cdfg cons ~rate:4 ~mode:Connection.Unidir () with
    | Ok res -> (Connection.n_buses res.Heuristic.conn, res.Heuristic.assign)
    | Error m -> Alcotest.fail (Heuristic.error_message m)
  in
  checkb "two runs agree" true (go () = go ())

let test_bounds_elliptic_exact () =
  let d = Benchmarks.elliptic () in
  let cdfg = d.Benchmarks.cdfg in
  (* P0 sends one 16-bit value (via Ia and Ib) and receives Op: 16 + 16. *)
  checki "P0 min out" 16 (Bounds.min_output_pins cdfg ~rate:6 ~partition:0);
  checki "P0 min in" 16 (Bounds.min_input_pins cdfg ~rate:6 ~partition:0);
  (* P5 receives 4 transfers at rate 6: one 16-bit port suffices. *)
  checki "P5 min in" 16 (Bounds.min_input_pins cdfg ~rate:6 ~partition:5);
  (* At rate 2 those 4 transfers need 2 ports. *)
  checki "P5 min in, rate 2" 32 (Bounds.min_input_pins cdfg ~rate:2 ~partition:5)

(* Assignment, bus structure, node and backtrack counts of every Ch. 4
   search in the golden fixture (paper points and generated designs). *)
let test_golden_heuristic () =
  Golden_connect.check "Ch. 4" (function
    | Golden_connect.Ch4 _ -> true
    | Golden_connect.Ch6 -> false)

(* The answer part of a golden record, "ok <assign> <buses>" or
   "infeasible"; [None] when the reference ran out of nodes. *)
let oracle_answer cdfg = function
  | Heuristic_oracle.Found r ->
      let a, b = Golden_connect.render_heuristic cdfg r in
      let d = Golden_connect.digest in
      Some (Printf.sprintf "ok %s %s" (d a) (d b))
  | Heuristic_oracle.Infeasible -> Some "infeasible"
  | Heuristic_oracle.Unfinished -> None

(* Without a pin bound the search visits every node the library search
   visits and more, so it gets a budget; 2 539 of the 2 581 cases finish
   within 2 000 nodes. *)
let oracle_nodes = 2_000

(* Every Ch. 4 golden search the no-prune reference finishes has the
   committed answer: the pin bounds cut no subtree holding a solution. *)
let test_golden_heuristic_oracle () =
  let golden = Golden_connect.load "golden_connect.txt" in
  let finished = ref 0 and total = ref 0 in
  List.iter
    (fun (c : Golden_connect.case) ->
      match c.kind with
      | Golden_connect.Ch6 -> ()
      | Golden_connect.Ch4 mode -> (
          incr total;
          match
            oracle_answer c.cdfg
              (Heuristic_oracle.search c.cdfg c.cons ~mode ~slot_cap:c.cap
                 ~max_nodes:oracle_nodes)
          with
          | None -> ()
          | Some got ->
              incr finished;
              let record = List.assoc c.key golden in
              (* "<nodes> <backtracks> <answer>" *)
              let want =
                String.concat " "
                  (List.filteri
                     (fun i _ -> i >= 2)
                     (String.split_on_char ' ' record))
              in
              Alcotest.(check string) c.key want got))
    (Golden_connect.cases ());
  checkb "the reference finishes 95% of the cases" true
    (!finished * 100 >= 95 * !total)

(* Generated designs under tight budgets (40-70% of a dedicated bus per
   value), both port modes, every slot cap. *)
let prop_heuristic_oracle =
  QCheck.Test.make ~name:"Ch. 4 searches match the no-prune reference"
    ~count:300 (Suite_core.arb_budgeted ~max_pct:70)
    (fun (name, rate, pct) ->
      let d = Golden_connect.resolve name in
      let cdfg = d.Benchmarks.cdfg in
      List.for_all
        (fun mode ->
          let cons =
            Golden_connect.tight_constraints cdfg
              (Golden_connect.constraints d (Golden_connect.Ch4 mode) ~rate)
              ~pct
          in
          List.for_all
            (fun cap ->
              match
                oracle_answer cdfg
                  (Heuristic_oracle.search cdfg cons ~mode ~slot_cap:cap
                     ~max_nodes:oracle_nodes)
              with
              | None -> true
              | Some want ->
                  let got =
                    match
                      Heuristic.search cdfg cons ~rate ~mode ~slot_cap:cap ()
                    with
                    | Ok r ->
                        oracle_answer cdfg (Heuristic_oracle.Found r)
                    | Error Heuristic.Infeasible -> Some "infeasible"
                    | Error (Heuristic.Exhausted _) -> None
                  in
                  got = Some want)
            (Mcs_util.Listx.range 1 (rate + 1)))
        [ Connection.Unidir; Connection.Bidir ])

let suite =
  ( "connect",
    [
      Alcotest.test_case "connection unidirectional" `Quick test_connection_unidir;
      Alcotest.test_case "connection bidirectional aliasing" `Quick test_connection_bidir_aliasing;
      Alcotest.test_case "connection capability" `Quick test_connection_capable;
      Alcotest.test_case "connection topology/copy" `Quick test_connection_topology_and_copy;
      Alcotest.test_case "drop last bus" `Quick test_drop_last_bus;
      Alcotest.test_case "bounds on AR simple" `Quick test_bounds_ar_simple;
      Alcotest.test_case "bounds with mixed widths" `Quick test_bounds_mixed_widths;
      Alcotest.test_case "bidirectional bus bound" `Quick test_bounds_bidir_halves;
      Alcotest.test_case "heuristic invariants (AR, all rates/modes)" `Quick test_heuristic_ar_rates;
      Alcotest.test_case "heuristic invariants (EWF)" `Quick test_heuristic_ewf;
      Alcotest.test_case "heuristic rejects impossible budgets" `Quick test_heuristic_infeasible_budget;
      Alcotest.test_case "slot cap widens the connection" `Quick test_heuristic_slot_cap;
      Alcotest.test_case "reassign allocation invariants" `Quick test_reassign_allocation_invariants;
      Alcotest.test_case "static assignment never reroutes" `Quick test_reassign_static_stays_on_initial_bus;
      Alcotest.test_case "same-value slot sharing" `Quick test_reassign_shares_same_value_slot;
      Alcotest.test_case "heuristic is deterministic" `Quick test_heuristic_deterministic;
      Alcotest.test_case "exact bounds on the elliptic filter" `Quick test_bounds_elliptic_exact;
      Alcotest.test_case "golden Ch. 4 search records" `Quick test_golden_heuristic;
      Alcotest.test_case "Ch4 ILP on a small design" `Slow test_ch4_ilp_small;
      Alcotest.test_case "Ch4 ILP detects infeasibility" `Slow test_ch4_ilp_detects_infeasible;
      Alcotest.test_case "Ch6 ILP sub-bus micro case" `Slow test_ch6_ilp_micro;
      Alcotest.test_case "golden Ch. 4 searches match the no-prune reference"
        `Quick test_golden_heuristic_oracle;
      QCheck_alcotest.to_alcotest prop_heuristic_oracle;
    ] )
