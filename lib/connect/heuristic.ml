open Mcs_cdfg
module M = Mcs_obs.Metrics
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault

let m_searches = M.counter "heuristic.searches"
let m_nodes = M.counter "heuristic.nodes"
let m_backtracks = M.counter "heuristic.backtracks"
let m_budget_exhausted = M.counter "heuristic.budget_exhausted"

type result = {
  conn : Connection.t;
  assign : (Types.op_id * int) list;
}

type error = Infeasible | Exhausted of Budget.exhausted

let error_message = function
  | Infeasible ->
      "Heuristic.search: no interchip connection satisfies the pin \
       constraints"
  | Exhausted e -> "Heuristic.search: " ^ Budget.message e

exception Budget_exhausted

(* Candidate buses explored per level: the two best (§4.1.2). *)
let branching = 2

let search ?(budget = Budget.unlimited) cdfg cons ~rate ~mode ?slot_cap
    ?(max_nodes = 200_000) () =
  let slot_cap =
    match slot_cap with
    | None -> rate
    | Some c ->
        if c < 1 || c > rate then invalid_arg "Heuristic.search: bad slot_cap";
        c
  in
  let n_partitions = Cdfg.n_partitions cdfg in
  let conn = Connection.create mode ~n_partitions in
  let io = Io_table.make cdfg in
  let ops = io.Io_table.ops and n_ops = Cdfg.n_ops cdfg in
  let op_width = io.Io_table.width and op_value = io.Io_table.value in
  let op_src = io.Io_table.src and op_dst = io.Io_table.dst in
  let op_wk = io.Io_table.width_index in
  let n_widths = Array.length io.Io_table.widths in
  let bus_of = Array.make n_ops (-1) in
  (* Distinct values tentatively carried by each bus (capacity L): a count
     per value id, and the number of nonzero counts. *)
  let on_bus = ref [||] and slots_used = ref [||] in
  let ensure_bus h =
    if h >= Array.length !slots_used then begin
      let cap = max 8 (2 * (h + 1)) in
      let grow a fill =
        Array.init cap (fun i -> if i < Array.length a then a.(i) else fill ())
      in
      on_bus := grow !on_bus (fun () -> Array.make io.Io_table.n_values 0);
      slots_used := grow !slots_used (fun () -> 0)
    end
  in
  let slots h = !slots_used.(h) in
  let value_present h v = !on_bus.(h).(v) > 0 in
  let add_value h v =
    let c = !on_bus.(h) in
    if c.(v) = 0 then !slots_used.(h) <- !slots_used.(h) + 1;
    c.(v) <- c.(v) + 1
  in
  let remove_value h v =
    let c = !on_bus.(h) in
    c.(v) <- c.(v) - 1;
    if c.(v) = 0 then !slots_used.(h) <- !slots_used.(h) - 1
  in
  (* Pin scarcity weight of §4.1.2. *)
  let unassigned_bits = Array.make (n_partitions + 1) 0 in
  List.iter
    (fun w ->
      let bits = op_width.(w) in
      unassigned_bits.(op_src.(w)) <- unassigned_bits.(op_src.(w)) + bits;
      unassigned_bits.(op_dst.(w)) <- unassigned_bits.(op_dst.(w)) + bits)
    ops;
  let wf p =
    let free = Constraints.pins cons p - Connection.pins_used conn p in
    if free <= 0 then 1000.0
    else float_of_int unassigned_bits.(p) /. float_of_int free
  in
  let fits w h =
    let src = op_src.(w) and dst = op_dst.(w) in
    let d_src, d_dst =
      Connection.extra_pins_for conn ~bus:h ~src ~dst ~width:op_width.(w)
    in
    let pin_ok =
      Connection.pins_used conn src + d_src <= Constraints.pins cons src
      && Connection.pins_used conn dst + d_dst <= Constraints.pins cons dst
      (* When src and dst demand pins of the same chip it would be the same
         budget; src <> dst for I/O operations so the two checks are
         independent. *)
    in
    let cap_ok = value_present h op_value.(w) || slots h < slot_cap in
    pin_ok && cap_ok
  in
  (* [wf_src] and [wf_dst]: the scarcity weights of [w]'s endpoints, the
     same for every bus scored at one node. *)
  let gain w ~wf_src ~wf_dst h =
    let src_connected =
      Connection.out_width conn ~bus:h ~partition:op_src.(w) > 0
    in
    let dst_connected =
      Connection.in_width conn ~bus:h ~partition:op_dst.(w) > 0
    in
    let g1 =
      (if src_connected then wf_src else 0.0)
      +. if dst_connected then wf_dst else 0.0
    in
    let g2 = if value_present h op_value.(w) then 1.0 else 0.0 in
    let g3 = float_of_int (slot_cap - slots h) in
    (10000.0 *. g1) +. (100.0 *. g2) +. g3
  in
  (* Sound feasibility prune: assuming maximal reuse of existing ports'
     free slots, the remaining unassigned operations on each side of each
     partition still need at least [side_lower_bound] fresh pins; a branch
     whose optimistic completion already blows a budget is dead.

     Only the values not yet on any bus count.  An operation whose value
     some bus already carries (a rider) can take that bus's slot, so it may
     need no new slot and, where the ports are wide enough, no pin: the
     cheapest completion charges it nothing.  The operations of a value
     not yet on a bus are all unassigned, so each such value contributes a
     fixed set of entries, kept as counts over [widths]: [in_left.(q)]
     holds one entry per value q receives, [out_left.(p)] one per value p
     sends, each at the width of the narrowest such operation (two
     operations of one value can share a slot). *)
  let counts () =
    Array.init (n_partitions + 1) (fun _ -> Array.make n_widths 0)
  in
  let in_left = counts () and out_left = counts () in
  (* [(partition, width index)] per value id: the narrowest operation of
     the value at each of its destinations / sources. *)
  let entries endpoint =
    let t = Array.make io.Io_table.n_values [] in
    List.iter
      (fun w ->
        let v = op_value.(w) and p = endpoint.(w) in
        let k =
          match List.assoc_opt p t.(v) with
          | Some k -> min k op_wk.(w)
          | None -> op_wk.(w)
        in
        t.(v) <- (p, k) :: List.remove_assoc p t.(v))
      ops;
    t
  in
  let ins_of = entries op_dst and outs_of = entries op_src in
  (* Assigned operations per value id: the value is on a bus iff > 0. *)
  let carried = Array.make io.Io_table.n_values 0 in
  (* [bound_ok.(p)]: the bound held when partition p was last evaluated.
     It reads p's unassigned counts, pins and ports and the slot use of the
     buses with a port on p; every change to one of those clears it, so a
     node evaluates only the partitions its move touched. *)
  let bound_ok = Array.make (n_partitions + 1) false in
  (* [pair_left.(p).(q)], p <> q: the values not yet on a bus that p sends
     and q receives, each counted once. *)
  let pair_left =
    Array.make_matrix (n_partitions + 1) (n_partitions + 1) 0
  in
  let pairs_of =
    Array.map2
      (fun outs ins ->
        List.concat_map
          (fun (p, _) ->
            List.filter_map
              (fun (q, _) -> if p <> q then Some (p, q) else None)
              ins)
          outs)
      outs_of ins_of
  in
  let count_value v d =
    let bump left (p, k) =
      left.(p).(k) <- left.(p).(k) + d;
      bound_ok.(p) <- false
    in
    List.iter (bump in_left) ins_of.(v);
    List.iter (bump out_left) outs_of.(v);
    List.iter
      (fun (p, q) -> pair_left.(p).(q) <- pair_left.(p).(q) + d)
      pairs_of.(v)
  in
  (* [d] = -1 assigns [w], +1 unassigns it; the value's entries leave the
     counts with its first assigned operation and return with its last. *)
  let count_left w d =
    let v = op_value.(w) in
    if d < 0 && carried.(v) = 0 then count_value v (-1);
    carried.(v) <- carried.(v) - d;
    if d > 0 && carried.(v) = 0 then count_value v 1
  in
  for v = 0 to io.Io_table.n_values - 1 do
    count_value v 1
  done;
  let touch_move w h =
    bound_ok.(op_src.(w)) <- false;
    bound_ok.(op_dst.(w)) <- false;
    for p = 0 to n_partitions do
      if
        Connection.out_width conn ~bus:h ~partition:p > 0
        || Connection.in_width conn ~bus:h ~partition:p > 0
      then bound_ok.(p) <- false
    done
  in
  let left = Io_table.bag io and both = Array.make n_widths 0 in
  (* Ports are as wide as some operation: index them among [widths]. *)
  let widths = io.Io_table.widths in
  let index_of_width = Array.make (1 + Array.fold_left max 0 widths) (-1) in
  Array.iteri (fun k w -> index_of_width.(w) <- k) widths;
  let pooled = Array.make n_widths 0 in
  (* Fresh pins [left] still needs, given the ports [side_width] gives
     partition p: each port absorbs, per free slot, one op no wider than
     itself, narrow ports first (optimistic either way; ports of equal
     width absorb alike, so their free slots pool); the leftovers take
     chunks of [slot_cap] values per new port, each port as wide as its
     widest member.  Stops early once past [room]. *)
  let side_lower_bound ~room side_width =
    Array.fill pooled 0 n_widths 0;
    for h = 0 to Connection.n_buses conn - 1 do
      let pw = side_width h and free = slot_cap - slots h in
      if pw > 0 && free > 0 then
        pooled.(index_of_width.(pw)) <- pooled.(index_of_width.(pw)) + free
    done;
    Array.iteri
      (fun k free ->
        if free > 0 && Io_table.size left > 0 then
          ignore (Io_table.take left free widths.(k)))
      pooled;
    let rec chunked cost =
      if cost > room || Io_table.size left = 0 then cost
      else
        let w = Io_table.widest left in
        ignore (Io_table.take left slot_cap w);
        chunked (cost + w)
    in
    chunked 0
  in
  let viable_at p =
    let room = Constraints.pins cons p - Connection.pins_used conn p in
    let out_side h = Connection.out_width conn ~bus:h ~partition:p in
    match mode with
    | Connection.Unidir ->
        Io_table.load left in_left.(p);
        let lb_in =
          side_lower_bound ~room (fun h ->
              Connection.in_width conn ~bus:h ~partition:p)
        in
        lb_in <= room
        &&
        (Io_table.load left out_left.(p);
         lb_in + side_lower_bound ~room:(room - lb_in) out_side <= room)
    | Connection.Bidir ->
        for k = 0 to n_widths - 1 do
          both.(k) <- in_left.(p).(k) + out_left.(p).(k)
        done;
        Io_table.load left both;
        side_lower_bound ~room out_side <= room
  in
  (* Joint slot check (Unidir), after every partition's own bound holds.
     A value not yet on a bus takes a slot that is free now wherever it
     goes.  Fresh ports, bought with the [room] pins a partition has left,
     each hold at most [slot_cap] values, and each is at least as wide as
     the narrowest entry no wider than [room]; so they carry at most
     [fresh_capacity] of a side's entries (pricing a port at its widest
     member instead would understate that and prune live subtrees).  The
     rest, [need], must take free slots of buses where the side already
     has a port.  For p sending and q receiving, those needs fill distinct
     slots except for values that p sends to q, one slot each at most, so
     together they need [need_out p + need_in q - pair_left p q] of the
     free slots on buses where p has an output or q an input port.  This
     counts slots, not pins, so it catches subtrees where each
     partition's pins suffice but the partitions contend for the same few
     slots. *)
  let fresh_capacity counts ~room =
    let n = ref 0 and narrowest = ref 0 in
    for k = n_widths - 1 downto 0 do
      if counts.(k) > 0 && widths.(k) <= room then begin
        n := !n + counts.(k);
        narrowest := widths.(k)
      end
    done;
    if !n = 0 then 0 else min !n (slot_cap * (room / !narrowest))
  in
  let need counts ~room =
    max 0 (Array.fold_left ( + ) 0 counts - fresh_capacity counts ~room)
  in
  let need_out = Array.make (n_partitions + 1) 0
  and need_in = Array.make (n_partitions + 1) 0 in
  let joint_ok () =
    for p = 0 to n_partitions do
      let room = Constraints.pins cons p - Connection.pins_used conn p in
      need_out.(p) <- need out_left.(p) ~room;
      need_in.(p) <- need in_left.(p) ~room
    done;
    let free_for p q =
      let total = ref 0 in
      for h = 0 to Connection.n_buses conn - 1 do
        if
          Connection.out_width conn ~bus:h ~partition:p > 0
          || Connection.in_width conn ~bus:h ~partition:q > 0
        then total := !total + slot_cap - slots h
      done;
      !total
    in
    let rec pairs p q =
      if p > n_partitions then true
      else if q > n_partitions then pairs (p + 1) 0
      else
        let needed = need_out.(p) + need_in.(q) - pair_left.(p).(q) in
        (p = q || needed <= 0 || needed <= free_for p q) && pairs p (q + 1)
    in
    pairs 0 0
  in
  let viable () =
    let rec go p =
      p > n_partitions
      ||
      (if not bound_ok.(p) then bound_ok.(p) <- viable_at p;
       bound_ok.(p) && go (p + 1))
    in
    go 0 && (mode = Connection.Bidir || joint_ok ())
  in
  M.incr m_searches;
  let nodes = ref 0 in
  let rec assign_nodes = function
    | [] -> true
    | w :: rest ->
        incr nodes;
        M.incr m_nodes;
        Budget.spend_node budget;
        if !nodes > max_nodes then raise Budget_exhausted;
        let src = op_src.(w) and dst = op_dst.(w) and width = op_width.(w) in
        (* Rank the buses that fit by gain, each scored once; the stable
           sort keeps equal gains in bus order. *)
        let wf_src = wf src and wf_dst = wf dst in
        let scored = ref [] in
        for h = Connection.n_buses conn - 1 downto 0 do
          if fits w h then scored := (gain w ~wf_src ~wf_dst h, h) :: !scored
        done;
        let ranked =
          List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) !scored
        in
        (* Keep the best few with pairwise distinct topologies (§4.1.2). *)
        let rec distinct k seen = function
          | [] -> []
          | _ when k <= 0 -> []
          | (_, h) :: hs ->
              let topo = Connection.topology conn ~bus:h in
              if List.mem topo seen then distinct k seen hs
              else h :: distinct (k - 1) (topo :: seen) hs
        in
        let candidates = distinct branching [] ranked in
        let try_bus h =
          let saved_out = Connection.out_width conn ~bus:h ~partition:src in
          let saved_in = Connection.in_width conn ~bus:h ~partition:dst in
          Connection.widen_for conn ~bus:h ~src ~dst ~width;
          add_value h op_value.(w);
          bus_of.(w) <- h;
          count_left w (-1);
          touch_move w h;
          unassigned_bits.(src) <- unassigned_bits.(src) - width;
          unassigned_bits.(dst) <- unassigned_bits.(dst) - width;
          if viable () && assign_nodes rest then true
          else begin
            M.incr m_backtracks;
            unassigned_bits.(src) <- unassigned_bits.(src) + width;
            unassigned_bits.(dst) <- unassigned_bits.(dst) + width;
            touch_move w h;
            count_left w 1;
            bus_of.(w) <- -1;
            remove_value h op_value.(w);
            Connection.shrink conn ~bus:h ~src ~dst ~out_w:saved_out
              ~in_w:saved_in;
            false
          end
        in
        List.exists try_bus candidates
        ||
        (* Fresh bus as the final alternative. *)
        let h = Connection.new_bus conn in
        ensure_bus h;
        if fits w h && try_bus h then true
        else begin
          Connection.drop_last_bus conn;
          false
        end
  in
  match
    match Fault.exhaust_heuristic () with
    | Some e -> raise (Budget.Out_of_budget e)
    | None -> assign_nodes ops
  with
  | exception Budget_exhausted ->
      M.incr m_budget_exhausted;
      if Mcs_obs.Events.on () then
        Mcs_obs.Events.emit ~cat:"heuristic" "exhausted"
          ~args:
            [
              ("resource", Mcs_obs.Events.Str "nodes");
              ("limit", Mcs_obs.Events.Int max_nodes);
              ("spent", Mcs_obs.Events.Int !nodes);
            ];
      Error
        (Exhausted
           { Budget.resource = Budget.Nodes; limit = max_nodes; spent = !nodes })
  | exception Budget.Out_of_budget e ->
      M.incr m_budget_exhausted;
      Error (Exhausted e)
  | false -> Error Infeasible
  | true ->
      let assign = List.map (fun w -> (w, bus_of.(w))) (Cdfg.io_ops cdfg) in
      Ok { conn; assign }

let pins_used_by_partition r =
  List.map
    (fun p -> Connection.pins_used r.conn p)
    (Mcs_util.Listx.range 0 (Connection.n_partitions r.conn + 1))
