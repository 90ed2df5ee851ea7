(* Reference for [Heuristic.search]: the branch-limited search of §4.1.2
   written from scratch, the slow and obvious way, with no pin bound.  It
   assigns the I/O operations widest first, ranks the buses that fit by
   the same gain, keeps the best [branching] with distinct topologies,
   tries a fresh bus last, and recomputes every quantity (values on a
   bus, unassigned bits, pins left) from the assignment at each use.

   A sound pin bound only cuts subtrees that hold no complete
   assignment, so wherever this search finishes within its node budget
   the library search must return the same connection and assignment. *)

open Mcs_cdfg
module C = Mcs_connect.Connection
module H = Mcs_connect.Heuristic

type outcome = Found of H.result | Infeasible | Unfinished

exception Out_of_nodes

(* The library search's default branching factor. *)
let branching = 2

let search cdfg cons ~mode ~slot_cap ~max_nodes =
  let width = Cdfg.io_width cdfg and value = Cdfg.io_value cdfg in
  let src = Cdfg.io_src cdfg and dst = Cdfg.io_dst cdfg in
  let ops =
    List.sort
      (fun a b ->
        let c = compare (width b) (width a) in
        if c <> 0 then c else compare a b)
      (Cdfg.io_ops cdfg)
  in
  let conn = C.create mode ~n_partitions:(Cdfg.n_partitions cdfg) in
  let bus_of = Hashtbl.create 64 in
  let values_on h =
    List.sort_uniq compare
      (Hashtbl.fold
         (fun w b acc -> if b = h then value w :: acc else acc)
         bus_of [])
  in
  let unassigned_bits p =
    List.fold_left
      (fun acc w ->
        if (not (Hashtbl.mem bus_of w)) && (src w = p || dst w = p) then
          acc + width w
        else acc)
      0 ops
  in
  let wf p =
    let free = Constraints.pins cons p - C.pins_used conn p in
    if free <= 0 then 1000.0
    else float_of_int (unassigned_bits p) /. float_of_int free
  in
  let fits w h =
    let d_src, d_dst =
      C.extra_pins_for conn ~bus:h ~src:(src w) ~dst:(dst w) ~width:(width w)
    in
    let vs = values_on h in
    C.pins_used conn (src w) + d_src <= Constraints.pins cons (src w)
    && C.pins_used conn (dst w) + d_dst <= Constraints.pins cons (dst w)
    && (List.mem (value w) vs || List.length vs < slot_cap)
  in
  let gain w h =
    let g1 =
      (if C.out_width conn ~bus:h ~partition:(src w) > 0 then wf (src w)
       else 0.0)
      +.
      if C.in_width conn ~bus:h ~partition:(dst w) > 0 then wf (dst w)
      else 0.0
    in
    let vs = values_on h in
    let g2 = if List.mem (value w) vs then 1.0 else 0.0 in
    let g3 = float_of_int (slot_cap - List.length vs) in
    (10000.0 *. g1) +. (100.0 *. g2) +. g3
  in
  let nodes = ref 0 in
  let rec assign = function
    | [] -> true
    | w :: rest ->
        incr nodes;
        if !nodes > max_nodes then raise Out_of_nodes;
        let buses = List.init (C.n_buses conn) Fun.id in
        let ranked =
          List.stable_sort
            (fun (a, _) (b, _) -> Float.compare b a)
            (List.filter_map
               (fun h -> if fits w h then Some (gain w h, h) else None)
               buses)
        in
        let rec distinct k seen = function
          | [] -> []
          | _ when k <= 0 -> []
          | (_, h) :: hs ->
              let topo = C.topology conn ~bus:h in
              if List.mem topo seen then distinct k seen hs
              else h :: distinct (k - 1) (topo :: seen) hs
        in
        let try_bus h =
          let out_w = C.out_width conn ~bus:h ~partition:(src w) in
          let in_w = C.in_width conn ~bus:h ~partition:(dst w) in
          C.widen_for conn ~bus:h ~src:(src w) ~dst:(dst w) ~width:(width w);
          Hashtbl.replace bus_of w h;
          assign rest
          || begin
               Hashtbl.remove bus_of w;
               C.shrink conn ~bus:h ~src:(src w) ~dst:(dst w) ~out_w ~in_w;
               false
             end
        in
        List.exists try_bus (distinct branching [] ranked)
        ||
        let h = C.new_bus conn in
        (fits w h && try_bus h)
        || begin
             C.drop_last_bus conn;
             false
           end
  in
  match assign ops with
  | exception Out_of_nodes -> Unfinished
  | false -> Infeasible
  | true ->
      Found
        {
          H.conn;
          assign =
            List.map (fun w -> (w, Hashtbl.find bus_of w)) (Cdfg.io_ops cdfg);
        }
