(* Tests for the behavioural partitioning front end (the CHOP stand-in). *)

open Mcs_cdfg
module F = Mcs_flow.Flow
module P = Partitioner

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A 12-op network with two tightly-coupled clusters joined by one value:
   a good partitioner should cut only that value. *)
let clustered () =
  let s = P.create () in
  P.input s ~width:8 "a";
  P.input s ~width:8 "b";
  (* Cluster 1. *)
  P.op s ~name:"c1" ~optype:"add" ~args:[ "a"; "b" ];
  P.op s ~name:"c2" ~optype:"add" ~args:[ "c1"; "a" ];
  P.op s ~name:"c3" ~optype:"mul" ~args:[ "c1"; "c2" ];
  P.op s ~name:"c4" ~optype:"add" ~args:[ "c2"; "c3" ];
  P.op s ~name:"c5" ~optype:"add" ~args:[ "c3"; "c4" ];
  P.op s ~name:"bridge" ~optype:"add" ~args:[ "c4"; "c5" ];
  (* Cluster 2 hangs entirely off the bridge. *)
  P.op s ~name:"d1" ~optype:"add" ~args:[ "bridge"; "bridge" ];
  P.op s ~name:"d2" ~optype:"mul" ~args:[ "d1"; "bridge" ];
  P.op s ~name:"d3" ~optype:"add" ~args:[ "d1"; "d2" ];
  P.op s ~name:"d4" ~optype:"add" ~args:[ "d2"; "d3" ];
  P.op s ~name:"d5" ~optype:"add" ~args:[ "d3"; "d4" ];
  P.op s ~name:"d6" ~optype:"add" ~args:[ "d4"; "d5" ];
  P.output s ~width:8 "d6";
  s

let test_partition_balances () =
  let s = clustered () in
  let assign = P.partition s ~n_partitions:2 () in
  checki "all ops assigned" 12 (List.length assign);
  let count p = List.length (List.filter (fun (_, q) -> q = p) assign) in
  checkb "both chips used" true (count 1 > 0 && count 2 > 0);
  checkb "balanced within cap" true (abs (count 1 - count 2) <= 3)

let test_partition_finds_the_bridge () =
  let s = clustered () in
  let assign = P.partition s ~n_partitions:2 () in
  let lookup n = List.assoc n assign in
  (* The clusters must not be interleaved: c-ops together, d-ops together
     (one of them may host the bridge). *)
  let homes prefix =
    List.sort_uniq compare
      (List.filter_map
         (fun (n, p) ->
           if String.length n >= 1 && n.[0] = prefix then Some p else None)
         assign)
  in
  checki "c-cluster on one chip" 1 (List.length (homes 'c'));
  checki "d-cluster on one chip" 1 (List.length (homes 'd'));
  ignore lookup

let test_predicted_pins () =
  let s = clustered () in
  let assign = P.partition s ~n_partitions:2 () in
  let pins = P.predicted_pins s ~assign:(fun n -> List.assoc n assign) ~rate:2 in
  (* Outside world + two chips. *)
  checkb "chip count" true (List.length pins >= 2);
  List.iter (fun (_, n) -> checkb "nonnegative" true (n >= 0)) pins

let test_elaborate_preserves_ops () =
  let s = clustered () in
  let assign = P.partition s ~n_partitions:2 () in
  let cdfg = P.elaborate s ~assign:(fun n -> List.assoc n assign) in
  checki "func ops preserved" 12 (List.length (Cdfg.func_ops cdfg));
  (* A single bridge value should cross: exactly one interchip transfer. *)
  let xfers =
    List.filter
      (fun w -> Cdfg.io_src cdfg w <> 0 && Cdfg.io_dst cdfg w <> 0)
      (Cdfg.io_ops cdfg)
  in
  checkb "few transfers" true (List.length xfers <= 2)

let test_end_to_end_partition_flow () =
  (* Partition, elaborate, synthesize, and check functional equivalence. *)
  let s = clustered () in
  let assign = P.partition s ~n_partitions:2 () in
  let cdfg = P.elaborate s ~assign:(fun n -> List.assoc n assign) in
  let mlib =
    Module_lib.create ~stage_ns:250 ~io_delay_ns:10 [ ("add", 30); ("mul", 210) ]
  in
  let rate = 2 in
  let cons =
    Constraints.create
      ~n_partitions:(Cdfg.n_partitions cdfg)
      ~pins:(List.map (fun p -> (p, 64)) (Mcs_util.Listx.range 0 (Cdfg.n_partitions cdfg + 1)))
      ~fus:(Constraints.min_fus cdfg mlib ~rate)
  in
  let r =
    Flows.ok
      (F.run F.Ch4
         (Flows.spec cdfg mlib cons ~rate ~mode:Mcs_connect.Connection.Unidir))
  in
  let conn, assignment = Flows.buses r in
  checkb "schedule valid" true (Mcs_sched.Schedule.verify r.F.schedule = Ok ());
  match
    Mcs_sim.Simulate.check_equivalent r.F.schedule
      ~bus_of:(fun op -> [ List.assoc op assignment ])
      ~bus_capable:(fun bus op ->
        Mcs_connect.Connection.capable conn cdfg ~bus op)
      ~seed:9 ~instances:6
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_partition_respects_cap () =
  let s = clustered () in
  let assign = P.partition s ~n_partitions:3 ~max_ops_per_chip:5 () in
  List.iter
    (fun p ->
      checkb "cap respected" true
        (List.length (List.filter (fun (_, q) -> q = p) assign) <= 5))
    [ 1; 2; 3 ]

let suite =
  ( "partition",
    [
      Alcotest.test_case "balances load" `Quick test_partition_balances;
      Alcotest.test_case "keeps clusters together" `Quick test_partition_finds_the_bridge;
      Alcotest.test_case "predicted pins" `Quick test_predicted_pins;
      Alcotest.test_case "elaboration preserves operations" `Quick test_elaborate_preserves_ops;
      Alcotest.test_case "partition -> synthesize -> simulate" `Quick test_end_to_end_partition_flow;
      Alcotest.test_case "operation capacity respected" `Quick test_partition_respects_cap;
    ] )
