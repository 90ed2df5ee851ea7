(* Unit and property tests for Mcs_graph. *)

module D = Mcs_graph.Digraph
module B = Mcs_graph.Bipartite
module H = Mcs_graph.Hungarian

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Digraph --- *)

let diamond () =
  let g = D.create 4 in
  D.add_edge g ~src:0 ~dst:1;
  D.add_edge g ~src:0 ~dst:2;
  D.add_edge g ~src:1 ~dst:3;
  D.add_edge g ~src:2 ~dst:3;
  g

let test_digraph_basic () =
  let g = diamond () in
  checki "nodes" 4 (D.node_count g);
  checki "edges" 4 (D.edge_count g);
  Alcotest.(check (list int)) "succs 0" [ 1; 2 ] (D.succs g 0);
  Alcotest.(check (list int)) "preds 3" [ 1; 2 ] (D.preds g 3);
  checki "out-degree" 2 (D.out_degree g 0);
  checki "in-degree" 2 (D.in_degree g 3)

let test_digraph_multi_edge () =
  let g = D.create 2 in
  D.add_edge g ~src:0 ~dst:1;
  D.add_edge g ~src:0 ~dst:1;
  Alcotest.(check (list int)) "parallel edges" [ 1; 1 ] (D.succs g 0);
  checki "edge count" 2 (D.edge_count g)

let test_topo () =
  let g = diamond () in
  (match D.topo_sort g with
  | None -> Alcotest.fail "acyclic graph reported cyclic"
  | Some order ->
      checki "all nodes" 4 (List.length order);
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      checkb "0 before 1" true (pos.(0) < pos.(1));
      checkb "1 before 3" true (pos.(1) < pos.(3)));
  let c = D.create 2 in
  D.add_edge c ~src:0 ~dst:1;
  D.add_edge c ~src:1 ~dst:0;
  checkb "cycle detected" true (D.topo_sort c = None);
  checkb "is_acyclic" false (D.is_acyclic c)

let test_longest_path () =
  let g = diamond () in
  let dist = D.longest_path_to g ~weight:(fun _ -> 1) in
  checki "source depth" 1 dist.(0);
  checki "sink depth" 3 dist.(3);
  let from = D.longest_path_from g ~weight:(fun _ -> 1) in
  checki "from source" 3 from.(0);
  checki "from sink" 1 from.(3)

let test_reachable () =
  let g = diamond () in
  let r = D.reachable_from g 1 in
  checkb "1 reaches 3" true r.(3);
  checkb "1 not 2" false r.(2);
  checkb "1 itself" true r.(1)

let random_dag_arb =
  (* Edge presence matrix over 6 nodes, upper triangular => DAG. *)
  QCheck.map
    (fun bits ->
      let n = 6 in
      let g = D.create n in
      let k = ref 0 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if (bits lsr !k) land 1 = 1 then D.add_edge g ~src:i ~dst:j;
          incr k
        done
      done;
      g)
    (QCheck.int_bound ((1 lsl 15) - 1))

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topo order respects all edges" ~count:200
    random_dag_arb (fun g ->
      match D.topo_sort g with
      | None -> false
      | Some order ->
          let pos = Array.make (D.node_count g) 0 in
          List.iteri (fun i v -> pos.(v) <- i) order;
          List.for_all
            (fun v -> List.for_all (fun w -> pos.(v) < pos.(w)) (D.succs g v))
            (List.init (D.node_count g) Fun.id))

let prop_longest_path_recurrence =
  QCheck.Test.make ~name:"longest_path_to satisfies its recurrence" ~count:200
    random_dag_arb (fun g ->
      let dist = D.longest_path_to g ~weight:(fun _ -> 1) in
      List.for_all
        (fun v ->
          let best =
            List.fold_left (fun acc p -> max acc dist.(p)) 0 (D.preds g v)
          in
          dist.(v) = best + 1)
        (List.init (D.node_count g) Fun.id))

(* --- Bipartite --- *)

let test_bipartite_simple () =
  let b = B.create ~n_left:3 ~n_right:3 in
  B.add_edge b ~left:0 ~right:0;
  B.add_edge b ~left:0 ~right:1;
  B.add_edge b ~left:1 ~right:0;
  B.add_edge b ~left:2 ~right:2;
  checki "perfect matching" 3 (B.max_matching b)

let test_bipartite_augment () =
  let b = B.create ~n_left:2 ~n_right:2 in
  B.add_edge b ~left:0 ~right:0;
  B.add_edge b ~left:0 ~right:1;
  B.add_edge b ~left:1 ~right:0;
  (* Seed the matching the way [Reassign.repack] does: 0 forced onto
     right 0.  1 can only use right 0, so the augmenting path must reroute
     0 to right 1. *)
  B.force_pair b ~left:0 ~right:0;
  checki "augment reroutes" 2 (B.max_matching b);
  Alcotest.(check (option int)) "0 moved" (Some 1) (B.match_of_left b 0);
  Alcotest.(check (option int)) "1 placed" (Some 0) (B.match_of_left b 1)

let test_bipartite_force_pair () =
  let b = B.create ~n_left:2 ~n_right:1 in
  B.add_edge b ~left:0 ~right:0;
  B.add_edge b ~left:1 ~right:0;
  B.force_pair b ~left:0 ~right:0;
  B.force_pair b ~left:1 ~right:0;
  Alcotest.(check (option int)) "displaced" None (B.match_of_left b 0);
  Alcotest.(check (option int)) "forced" (Some 0) (B.match_of_left b 1)

let test_bipartite_pairs () =
  let b = B.create ~n_left:2 ~n_right:2 in
  B.add_edge b ~left:0 ~right:1;
  B.add_edge b ~left:1 ~right:0;
  ignore (B.max_matching b);
  Alcotest.(check (list (pair int int))) "pairs" [ (0, 1); (1, 0) ] (B.pairs b)

(* Brute-force maximum matching for cross-checking. *)
let brute_matching edges n_left n_right =
  let best = ref 0 in
  let used_r = Array.make n_right false in
  let rec go l count =
    if l = n_left then best := max !best count
    else begin
      go (l + 1) count;
      List.iter
        (fun (l', r) ->
          if l' = l && not used_r.(r) then begin
            used_r.(r) <- true;
            go (l + 1) (count + 1);
            used_r.(r) <- false
          end)
        edges
    end
  in
  go 0 0;
  !best

let bip_arb =
  QCheck.map
    (fun bits ->
      let edges = ref [] in
      let k = ref 0 in
      for l = 0 to 3 do
        for r = 0 to 3 do
          if (bits lsr !k) land 1 = 1 then edges := (l, r) :: !edges;
          incr k
        done
      done;
      !edges)
    (QCheck.int_bound ((1 lsl 16) - 1))

let prop_matching_maximum =
  QCheck.Test.make ~name:"Kuhn matching is maximum (vs brute force)"
    ~count:300 bip_arb (fun edges ->
      let b = B.create ~n_left:4 ~n_right:4 in
      List.iter (fun (l, r) -> B.add_edge b ~left:l ~right:r) edges;
      B.max_matching b = brute_matching edges 4 4)

(* --- Hungarian --- *)

let test_hungarian_identity () =
  let cost = [| [| 0; 9; 9 |]; [| 9; 0; 9 |]; [| 9; 9; 0 |] |] in
  Alcotest.(check (array int)) "diagonal" [| 0; 1; 2 |] (H.assignment cost)

let test_hungarian_small () =
  let cost = [| [| 4; 1; 3 |]; [| 2; 0; 5 |]; [| 3; 2; 2 |] |] in
  let a = H.assignment cost in
  let total = cost.(0).(a.(0)) + cost.(1).(a.(1)) + cost.(2).(a.(2)) in
  checki "optimal cost 5" 5 total

let test_hungarian_rect_matching () =
  let w = [| [| 3; 0 |]; [| 0; 4 |]; [| 5; 1 |] |] in
  let pairs =
    H.max_weight_matching ~n_left:3 ~n_right:2 ~weight:(fun l r ->
        Some w.(l).(r)) ()
  in
  let total =
    Mcs_util.Listx.sum (fun (l, r) -> w.(l).(r)) pairs
  in
  checki "max weight 9" 9 total

let test_hungarian_forbidden () =
  let pairs =
    H.max_weight_matching ~n_left:2 ~n_right:2 ~weight:(fun l r ->
        if l = r then Some 1 else None) ()
  in
  Alcotest.(check (list (pair int int))) "only diagonal" [ (0, 0); (1, 1) ] pairs

(* Brute force max-weight assignment for square matrices. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

let prop_hungarian_optimal =
  QCheck.Test.make ~name:"Hungarian optimal vs brute force (4x4)" ~count:200
    (QCheck.array_of_size (QCheck.Gen.return 16) (QCheck.int_bound 50))
    (fun flat ->
      let cost = Array.init 4 (fun i -> Array.init 4 (fun j -> flat.((4 * i) + j))) in
      let a = H.assignment cost in
      let mine =
        Array.to_list (Array.mapi (fun i j -> cost.(i).(j)) a)
        |> List.fold_left ( + ) 0
      in
      let best =
        List.fold_left
          (fun acc p ->
            min acc
              (List.fold_left ( + ) 0 (List.mapi (fun i j -> cost.(i).(j)) p)))
          max_int
          (permutations [ 0; 1; 2; 3 ])
      in
      mine = best)

let suite =
  ( "graph",
    [
      Alcotest.test_case "digraph basics" `Quick test_digraph_basic;
      Alcotest.test_case "digraph multi-edges" `Quick test_digraph_multi_edge;
      Alcotest.test_case "topological sort" `Quick test_topo;
      Alcotest.test_case "longest paths" `Quick test_longest_path;
      Alcotest.test_case "reachability" `Quick test_reachable;
      Alcotest.test_case "bipartite perfect matching" `Quick test_bipartite_simple;
      Alcotest.test_case "bipartite augmenting path" `Quick test_bipartite_augment;
      Alcotest.test_case "bipartite force pair" `Quick test_bipartite_force_pair;
      Alcotest.test_case "bipartite pairs" `Quick test_bipartite_pairs;
      Alcotest.test_case "hungarian identity" `Quick test_hungarian_identity;
      Alcotest.test_case "hungarian small" `Quick test_hungarian_small;
      Alcotest.test_case "hungarian rectangular" `Quick test_hungarian_rect_matching;
      Alcotest.test_case "hungarian forbidden pairs" `Quick test_hungarian_forbidden;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_topo_respects_edges;
          prop_longest_path_recurrence;
          prop_matching_maximum;
          prop_hungarian_optimal;
        ] )
