open Mcs_cdfg
module M = Mcs_obs.Metrics

let m_plans = M.counter "reassign.plans"
let m_repacks = M.counter "reassign.repacks"
let m_repack_failures = M.counter "reassign.repack_failures"
let m_retargets = M.counter "reassign.retargets"

type entry = {
  value : string;
  vid : int; (* [value]'s id in the [Io_table] *)
  at_cstep : int;
  mutable entry_ops : Types.op_id list;
}

type plan = {
  plan_op : Types.op_id;
  plan_cstep : int;
  plan_bus : int;
  plan_retarget : (Types.op_id * int) list; (* tentative moves of others *)
}

type t = {
  cdfg : Cdfg.t;
  conn : Connection.t;
  rate : int;
  dynamic : bool;
  budget : Mcs_resilience.Budget.t;
  io_ops : Types.op_id list; (* [Cdfg.io_ops], in order *)
  value_ids : int array; (* per op id: value id *)
  capable : bool array array;
      (* per op id and bus; the connection does not change while
         scheduling *)
  used : int array; (* per bus: allocated groups *)
  alloc : (int * int, entry) Hashtbl.t; (* (bus, group) -> committed slot *)
  tentative : (Types.op_id, int) Hashtbl.t; (* unscheduled ops only *)
  committed : (Types.op_id, int) Hashtbl.t;
  mutable pending : plan option;
}

let create ?(budget = Mcs_resilience.Budget.unlimited) cdfg conn ~rate ~initial
    ~dynamic =
  let tentative = Hashtbl.create 64 in
  List.iter (fun (op, h) -> Hashtbl.replace tentative op h) initial;
  let io_ops = Cdfg.io_ops cdfg in
  List.iter
    (fun op ->
      if not (Hashtbl.mem tentative op) then
        invalid_arg "Reassign.create: some I/O operation has no initial bus")
    io_ops;
  let nb = Connection.n_buses conn in
  let capable = Array.make (Cdfg.n_ops cdfg) [||] in
  List.iter
    (fun w ->
      capable.(w) <-
        Array.init nb (fun h -> Connection.capable conn cdfg ~bus:h w))
    io_ops;
  {
    cdfg;
    conn;
    rate;
    dynamic;
    budget;
    io_ops;
    value_ids = (Io_table.make cdfg).Io_table.value;
    capable;
    used = Array.make nb 0;
    alloc = Hashtbl.create 64;
    tentative;
    committed = Hashtbl.create 64;
    pending = None;
  }

let group t cstep = ((cstep mod t.rate) + t.rate) mod t.rate

let free_groups t h = t.rate - t.used.(h)

(* Slot admissibility of bus [h] for [op] at [cstep]: wide-enough ports and
   either a free group or a same-value slot at the very same step. *)
let slot_status t op ~cstep h =
  if not t.capable.(op).(h) then `No
  else
    match Hashtbl.find_opt t.alloc (h, group t cstep) with
    | None -> `Free
    | Some e ->
        if
          e.vid = t.value_ids.(op) && e.at_cstep = cstep
        then `Share
        else `No

(* Can all unscheduled operations except [op] still be packed onto the
   buses if bus [h] loses one more free group?  Returns the packing as a
   retargeting list when possible.

   Operations transferring the same value can share one communication slot
   (scheduled together, §2.2.1), so the left side of the matching holds
   {e slot demands}: one vertex per value when all its operations share a
   capable bus, individual vertices otherwise. *)
let repack t ~except ~consumed_bus =
  M.incr m_repacks;
  let nb = Connection.n_buses t.conn in
  let capable h w = t.capable.(w).(h) in
  let all_buses = Mcs_util.Listx.range 0 nb in
  (* Operations transferring [except]'s value can ride the slot [except] is
     about to claim (same bus, same step), so they demand nothing. *)
  let except_value = t.value_ids.(except) in
  let ops =
    List.filter
      (fun w ->
        (not (Hashtbl.mem t.committed w))
        && w <> except
        && not (t.value_ids.(w) = except_value && capable consumed_bus w))
      t.io_ops
  in
  (* Demand groups: (member ops, buses usable by the whole group). *)
  let demands =
    List.concat_map
      (fun (_, members) ->
        let common = List.filter (fun h -> List.for_all (capable h) members) all_buses in
        if common <> [] && List.length members > 1 then [ (members, common) ]
        else
          List.map (fun w -> ([ w ], List.filter (fun h -> capable h w) all_buses)) members)
      (Mcs_util.Listx.group_by (fun w -> t.value_ids.(w)) ops)
  in
  let demands = Array.of_list demands in
  (* Unit capacities: one right vertex per free group per bus, bus by bus;
     bus h's units are [first.(h)] to [first.(h + 1) - 1]. *)
  let first = Array.make (nb + 1) 0 in
  for h = 0 to nb - 1 do
    let f = free_groups t h - if h = consumed_bus then 1 else 0 in
    first.(h + 1) <- first.(h) + max 0 f
  done;
  let bip =
    Mcs_graph.Bipartite.create ~n_left:(Array.length demands) ~n_right:first.(nb)
  in
  (* Edges in ascending unit order: the order Kuhn's search visits them. *)
  Array.iteri
    (fun i (_, buses) ->
      List.iter
        (fun h ->
          for j = first.(h) to first.(h + 1) - 1 do
            Mcs_graph.Bipartite.add_edge bip ~left:i ~right:j
          done)
        buses)
    demands;
  (* Seed with the current tentative assignment so the repacking moves as
     few operations as possible; augmenting paths fix the rest.  Each
     demand takes the next unseeded unit of its bus. *)
  let cursor = Array.sub first 0 nb in
  Array.iteri
    (fun i (members, buses) ->
      match Hashtbl.find_opt t.tentative (List.hd members) with
      | Some h0 when List.mem h0 buses && cursor.(h0) < first.(h0 + 1) ->
          Mcs_graph.Bipartite.force_pair bip ~left:i ~right:cursor.(h0);
          cursor.(h0) <- cursor.(h0) + 1
      | _ -> ())
    demands;
  (* Exhaustion propagates out of the io_hook; List_sched.run converts it
     into a typed [Exhausted] failure. *)
  let size = Mcs_graph.Bipartite.max_matching ~budget:t.budget bip in
  if size < Array.length demands then begin
    M.incr m_repack_failures;
    None
  end
  else
    Some
      (List.concat
         (List.mapi
            (fun i (members, buses) ->
              match Mcs_graph.Bipartite.match_of_left bip i with
              | Some j ->
                  let h = List.find (fun h -> j < first.(h + 1)) buses in
                  List.map (fun w -> (w, h)) members
              | None -> assert false)
            (Array.to_list demands)))

let make_plan t op ~cstep =
  M.incr m_plans;
  let candidates =
    (* Paper's order: the tentatively assigned bus first; a same-value slot
       costs nothing; among the remaining free buses, prefer the one with
       the most slack so the preemption chain disturbs least. *)
    let all = Mcs_util.Listx.range 0 (Connection.n_buses t.conn) in
    let tentative = Hashtbl.find_opt t.tentative op in
    let rest = List.filter (fun h -> Some h <> tentative) all in
    let shares, frees =
      List.partition (fun h -> slot_status t op ~cstep h = `Share) rest
    in
    let frees =
      List.sort (fun a b -> compare (free_groups t b) (free_groups t a)) frees
    in
    (match tentative with Some h0 -> [ h0 ] | None -> [])
    @ shares @ frees
  in
  let consider h =
    match slot_status t op ~cstep h with
    | `No -> None
    | `Share ->
        Some { plan_op = op; plan_cstep = cstep; plan_bus = h; plan_retarget = [] }
    | `Free ->
        if not t.dynamic then begin
          (* Static assignment: only the initially assigned bus counts. *)
          if Hashtbl.find_opt t.tentative op = Some h then
            Some
              { plan_op = op; plan_cstep = cstep; plan_bus = h; plan_retarget = [] }
          else None
        end
        else begin
          match repack t ~except:op ~consumed_bus:h with
          | None -> None
          | Some moves ->
              Some
                {
                  plan_op = op;
                  plan_cstep = cstep;
                  plan_bus = h;
                  plan_retarget = moves;
                }
        end
  in
  List.find_map consider candidates

let hook t =
  let io_can _sched op ~cstep =
    match make_plan t op ~cstep with
    | None ->
        t.pending <- None;
        false
    | Some p ->
        t.pending <- Some p;
        true
  in
  let io_commit _sched op ~cstep =
    let p =
      match t.pending with
      | Some p when p.plan_op = op && p.plan_cstep = cstep -> p
      | _ -> (
          match make_plan t op ~cstep with
          | Some p -> p
          | None -> invalid_arg "Reassign: commit without a feasible plan")
    in
    t.pending <- None;
    let g = group t cstep in
    (match Hashtbl.find_opt t.alloc (p.plan_bus, g) with
    | Some e -> e.entry_ops <- e.entry_ops @ [ op ]
    | None ->
        t.used.(p.plan_bus) <- t.used.(p.plan_bus) + 1;
        Hashtbl.add t.alloc (p.plan_bus, g)
          {
            value = Cdfg.io_value t.cdfg op;
            vid = t.value_ids.(op);
            at_cstep = cstep;
            entry_ops = [ op ];
          });
    Hashtbl.remove t.tentative op;
    Hashtbl.replace t.committed op p.plan_bus;
    List.iter
      (fun (w, h) ->
        if Hashtbl.find_opt t.tentative w <> Some h then M.incr m_retargets;
        Hashtbl.replace t.tentative w h)
      p.plan_retarget
  in
  { Mcs_sched.List_sched.io_can; io_commit }

let final_assignment t =
  List.filter_map
    (fun op ->
      match Hashtbl.find_opt t.committed op with
      | Some h -> Some (op, h)
      | None -> None)
    t.io_ops

let allocation_table t =
  let rows = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.alloc [] in
  List.sort compare
    (List.map
       (fun ((h, g), e) -> ((h, g), (e.value, e.at_cstep, e.entry_ops)))
       rows)
