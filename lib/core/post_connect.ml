open Mcs_cdfg
module C = Mcs_connect.Connection
module Sched = Mcs_sched.Schedule

let endpoints cdfg ~mode w =
  let s = Cdfg.io_src cdfg w and d = Cdfg.io_dst cdfg w in
  match mode with
  | C.Unidir -> [ (`Out, s); (`In, d) ]
  | C.Bidir -> [ (`Port, min s d); (`Port, max s d) ]

let weight cdfg ~mode w1 w2 =
  let common =
    List.filter
      (fun e -> List.mem e (endpoints cdfg ~mode w2))
      (endpoints cdfg ~mode w1)
  in
  List.length common * min (Cdfg.io_width cdfg w1) (Cdfg.io_width cdfg w2)

(* Supernode: a set of I/O operations destined for one clique (= bus). *)
let super_weight cdfg ~mode s1 s2 =
  List.fold_left
    (fun acc w1 ->
      List.fold_left (fun acc w2 -> acc + weight cdfg ~mode w1 w2) acc s2)
    0 s1

(* The per-group supernodes, before any merging: each is a valid clique on
   its own (same value in the same control step, or a singleton). *)
let supernode_groups sched =
  let cdfg = Sched.cdfg sched in
  let rate = Sched.rate sched in
  List.filter_map
    (fun k ->
      let members =
        List.filter (fun w -> Sched.group sched w = k) (Cdfg.io_ops cdfg)
      in
      if members = [] then None
      else
        Some
          (List.map snd
             (Mcs_util.Listx.group_by
                (fun w -> (Cdfg.io_value cdfg w, Sched.cstep sched w))
                members)))
    (Mcs_util.Listx.range 0 rate)

let cliques_trivial sched = List.concat (supernode_groups sched)

let cliques ?budget sched ~mode =
  Mcs_obs.Trace.with_span "cliques.merge" @@ fun () ->
  let cdfg = Sched.cdfg sched in
  (* Group G_k per control-step group; inside a group, operations
     transferring the same value in the same control step form one
     supernode (they can share a slot), everything else is singleton. *)
  let groups = supernode_groups sched in
  (* Largest group first; repeatedly merge the head group with the next by
     maximum-weight bipartite matching. *)
  let sorted =
    List.sort (fun a b -> compare (List.length b) (List.length a)) groups
  in
  match sorted with
  | [] -> []
  | g0 :: rest ->
      let merge acc g =
        let a = Array.of_list acc and b = Array.of_list g in
        let pairs =
          Mcs_graph.Hungarian.max_weight_matching ?budget
            ~n_left:(Array.length a) ~n_right:(Array.length b)
            ~weight:(fun i j -> Some (super_weight cdfg ~mode a.(i) b.(j)))
            ()
        in
        let matched_right = List.map snd pairs in
        let a' =
          Array.mapi
            (fun i s ->
              match List.assoc_opt i pairs with
              | Some j -> s @ b.(j)
              | None -> s)
            a
        in
        Array.to_list a'
        @ List.filteri (fun j _ -> not (List.mem j matched_right)) g
      in
      List.fold_left merge g0 rest

let connection_of_cliques cdfg ~mode cls =
  let conn = C.create mode ~n_partitions:(Cdfg.n_partitions cdfg) in
  let assignment = ref [] in
  List.iter
    (fun members ->
      let h = C.new_bus conn in
      List.iter
        (fun w ->
          C.widen_for conn ~bus:h ~src:(Cdfg.io_src cdfg w)
            ~dst:(Cdfg.io_dst cdfg w) ~width:(Cdfg.io_width cdfg w);
          assignment := (w, h) :: !assignment)
        members)
    cls;
  (conn, List.sort compare !assignment)
