(* Reference for [Subbus.schedule_over]: the Chapter 6 sub-slot hook
   written from scratch, the slow and obvious way.  Every I/O feasibility
   test lists all (bus, slice) candidates, and every candidate rebuilds
   its capacity lookahead (demands, units and a [Bipartite] matching) from
   the value strings and bus ports.  The library hook must schedule,
   assign and allocate exactly as this one does. *)

open Mcs_cdfg
module SB = Mcs_core.Subbus
module LS = Mcs_sched.List_sched

type entry = {
  e_value : string;
  e_cstep : int;
  mutable e_ops : Types.op_id list;
}

type state = {
  real : SB.real_bus array;
  rate : int;
  halves : (int * SB.sub * int, entry) Hashtbl.t;
  tentative : (Types.op_id, int * SB.sub) Hashtbl.t;
  committed : (Types.op_id, int * SB.sub) Hashtbl.t;
}

let slices_of (rb : SB.real_bus) =
  match rb.SB.split_at with
  | None -> [ SB.Whole ]
  | Some _ -> [ SB.Lo; SB.Hi; SB.Whole ]

let capable cdfg (rb : SB.real_bus) op slice =
  let width = Cdfg.io_width cdfg op in
  let fits =
    match (rb.SB.split_at, slice) with
    | None, SB.Whole -> width <= rb.SB.width
    | None, (SB.Lo | SB.Hi) -> false
    | Some lo, SB.Lo -> width <= lo
    | Some lo, SB.Hi -> width <= rb.SB.width - lo
    | Some _, SB.Whole -> width <= rb.SB.width
  in
  let lo = Option.value ~default:rb.SB.width rb.SB.split_at in
  let need = match slice with SB.Hi -> lo + width | SB.Lo | SB.Whole -> width in
  let port p = Option.value ~default:0 (List.assoc_opt p rb.SB.ports) in
  fits
  && port (Cdfg.io_src cdfg op) >= need
  && port (Cdfg.io_dst cdfg op) >= need

let halves_of = function
  | SB.Lo -> [ SB.Lo ]
  | SB.Hi -> [ SB.Hi ]
  | SB.Whole -> [ SB.Lo; SB.Hi ]

let group rate cstep = ((cstep mod rate) + rate) mod rate

let admissible st cdfg op ~cstep (i, slice) =
  let g = group st.rate cstep in
  List.for_all
    (fun h ->
      match Hashtbl.find_opt st.halves (i, h, g) with
      | None -> true
      | Some e ->
          String.equal e.e_value (Cdfg.io_value cdfg op) && e.e_cstep = cstep)
    (halves_of slice)

let repack st cdfg ~except ~slot:(si, sslice) ~cstep unscheduled =
  let g_w = group st.rate cstep in
  let occupied i h g =
    Hashtbl.mem st.halves (i, h, g)
    || (i = si && g = g_w && List.mem h (halves_of sslice))
  in
  let nb = Array.length st.real in
  let units = ref [] in
  for i = 0 to nb - 1 do
    for g = 0 to st.rate - 1 do
      match (occupied i SB.Lo g, occupied i SB.Hi g) with
      | false, false -> units := `Full i :: !units
      | false, true -> units := `Half (i, SB.Lo) :: !units
      | true, false -> units := `Half (i, SB.Hi) :: !units
      | true, true -> ()
    done
  done;
  let units = Array.of_list !units in
  let cap_any op i =
    List.exists (capable cdfg st.real.(i) op) (slices_of st.real.(i))
  in
  let cap_unit op = function
    | `Full i -> cap_any op i
    | `Half (i, h) -> capable cdfg st.real.(i) op h
  in
  let value = Cdfg.io_value cdfg in
  let ops =
    List.filter
      (fun w ->
        w <> except
        && not
             (String.equal (value w) (value except)
             && capable cdfg st.real.(si) w sslice))
      unscheduled
  in
  let demands =
    List.concat_map
      (fun (_, members) ->
        let common =
          List.exists
            (fun i -> List.for_all (fun w -> cap_any w i) members)
            (Mcs_util.Listx.range 0 nb)
        in
        if common && List.length members > 1 then [ members ]
        else List.map (fun w -> [ w ]) members)
      (Mcs_util.Listx.group_by value ops)
  in
  let demands = Array.of_list demands in
  let bip =
    Mcs_graph.Bipartite.create ~n_left:(Array.length demands)
      ~n_right:(Array.length units)
  in
  Array.iteri
    (fun l members ->
      Array.iteri
        (fun r u ->
          if List.for_all (fun w -> cap_unit w u) members then
            Mcs_graph.Bipartite.add_edge bip ~left:l ~right:r)
        units)
    demands;
  Mcs_graph.Bipartite.max_matching bip = Array.length demands

let occupy st cdfg op ~cstep ((i, slice) as slot) =
  let g = group st.rate cstep in
  let entry =
    match
      List.find_map
        (fun h -> Hashtbl.find_opt st.halves (i, h, g))
        (halves_of slice)
    with
    | Some e ->
        e.e_ops <- e.e_ops @ [ op ];
        e
    | None -> { e_value = Cdfg.io_value cdfg op; e_cstep = cstep; e_ops = [ op ] }
  in
  List.iter
    (fun h ->
      if not (Hashtbl.mem st.halves (i, h, g)) then
        Hashtbl.add st.halves (i, h, g) entry)
    (halves_of slice);
  Hashtbl.remove st.tentative op;
  Hashtbl.replace st.committed op slot

(* Every feasible slot for [op] at [cstep], the tentative one first. *)
let candidates st cdfg op ~cstep =
  let unscheduled =
    List.filter
      (fun w -> not (Hashtbl.mem st.committed w))
      (Cdfg.io_ops cdfg)
  in
  let all =
    List.concat
      (List.mapi
         (fun i rb ->
           List.filter_map
             (fun slice ->
               if
                 capable cdfg rb op slice
                 && admissible st cdfg op ~cstep (i, slice)
                 && repack st cdfg ~except:op ~slot:(i, slice) ~cstep
                      unscheduled
               then Some (i, slice)
               else None)
             (slices_of rb))
         (Array.to_list st.real))
  in
  match Hashtbl.find_opt st.tentative op with
  | Some slot when List.mem slot all -> slot :: List.filter (( <> ) slot) all
  | _ -> all

let hook st cdfg ~dynamic =
  if dynamic then
    {
      LS.io_can = (fun _ op ~cstep -> candidates st cdfg op ~cstep <> []);
      io_commit =
        (fun _ op ~cstep ->
          match candidates st cdfg op ~cstep with
          | slot :: _ -> occupy st cdfg op ~cstep slot
          | [] -> invalid_arg "Subbus_oracle: commit without a slot");
    }
  else
    {
      LS.io_can =
        (fun _ op ~cstep ->
          match Hashtbl.find_opt st.tentative op with
          | Some ((i, slice) as slot) ->
              capable cdfg st.real.(i) op slice
              && admissible st cdfg op ~cstep slot
          | None -> false);
      io_commit =
        (fun _ op ~cstep ->
          match Hashtbl.find_opt st.tentative op with
          | Some slot -> occupy st cdfg op ~cstep slot
          | None -> invalid_arg "Subbus_oracle: static commit without slot");
    }

let allocation st =
  let rows =
    Hashtbl.fold
      (fun (i, h, g) e acc ->
        (* Each entry once, on its lowest half. *)
        let primary =
          match (h, Hashtbl.find_opt st.halves (i, SB.Lo, g)) with
          | SB.Hi, Some e' -> e' != e
          | _ -> true
        in
        if primary then ((i, h, g), (e.e_value, e.e_cstep, e.e_ops)) :: acc
        else acc)
      st.halves []
  in
  List.sort compare rows

(* [Ok (per-op csteps, final assignment, allocation)], or the error
   [Subbus.schedule_over] reports. *)
let schedule cdfg mlib cons ~rate ~dynamic (real, assignment) =
  let st =
    {
      real = Array.of_list real;
      rate;
      halves = Hashtbl.create 64;
      tentative = Hashtbl.of_seq (List.to_seq assignment);
      committed = Hashtbl.create 64;
    }
  in
  match LS.run cdfg mlib cons ~rate ~io_hook:(hook st cdfg ~dynamic) () with
  | Error f ->
      Error
        (Printf.sprintf "scheduling failed at cstep %d: %s" f.LS.at_cstep
           f.LS.reason)
  | Ok sched ->
      Ok
        ( List.map (Mcs_sched.Schedule.cstep sched) (Cdfg.ops cdfg),
          List.sort compare (List.of_seq (Hashtbl.to_seq st.committed)),
          allocation st )
