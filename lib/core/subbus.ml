open Mcs_cdfg
module C = Mcs_connect.Connection
module R = Mcs_connect.Reassign
module LS = Mcs_sched.List_sched
module M = Mcs_obs.Metrics
module Log = Mcs_obs.Log
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault
module IO = Mcs_connect.Io_table

let m_attempts = M.counter "subbus.attempts"
let m_search_nodes = M.counter "subbus.search_nodes"
let m_backtracks = M.counter "subbus.backtracks"
let m_retired = M.counter "subbus.retired_buses"
let m_node_limit = M.counter "subbus.node_limit"
let m_refuted = M.counter "subbus.refuted"
let m_repacks = M.counter "subbus.repacks"

type sub = Lo | Hi | Whole

type real_bus = {
  width : int;
  split_at : int option;
  ports : (int * int) list;
  carried : (Types.op_id * sub) list;
}

type t = {
  real_buses : real_bus list;
  initial_assignment : (Types.op_id * (int * sub)) list;
  final_assignment : (Types.op_id * (int * sub)) list;
  allocation : ((int * sub * int) * (string * int * Types.op_id list)) list;
  schedule : Mcs_sched.Schedule.t;
  pins : (int * int) list;
}

(* Mutable search state for one bus.  The fields after [assigned] are
   derived from it.  Every write to [assigned] updates [n_occ] and marks
   the rest [stale], and [derived] rebuilds them on first use, so each node
   pays only for the bus it changed. *)
type sbus = {
  mutable swidth : int;
  mutable split : int option;
  sports : int array; (* r_{i,h}, bidirectional *)
  mutable assigned : (Types.op_id * sub) list;
  mutable n_occ : int; (* List.length assigned *)
  mutable stale : bool;
  mutable load_lo : int; (* distinct values on Lo or Whole *)
  mutable load_hi : int; (* distinct values on Hi or Whole *)
  mutable on_slices : (int * int) list;
      (* (value id, slices it occupies as bits of [slice_bit]) *)
  mutable occ_widths : int list;
      (* distinct occupant width indices, first occurrence first *)
  load_over : int array;
      (* per width index k: distinct values of occupants wider than that
         width — the Hi load once the bus splits there *)
}

let slice_bit = function Lo -> 1 | Hi -> 2 | Whole -> 4

(* A viable move for the operation at hand: [slice] of [bus], first split
   at [split_lo] when given.  The rest is its rank, computed once: extra
   pins, then value sharing, plain before split, then load. *)
type candidate = {
  bus : sbus;
  slice : sub;
  split_lo : int option;
  cost : int;
  share : bool;
  load : int;
}

let ranks_before a b =
  let plain c = Option.is_none c.split_lo in
  if a.cost <> b.cost then a.cost < b.cost
  else if a.share <> b.share then a.share
  else if plain a <> plain b then plain a
  else a.load < b.load

let port_need ~split_lo op_width = function
  | Lo | Whole -> op_width
  | Hi -> split_lo + op_width

let search ?(budget = Budget.unlimited) cdfg cons ~rate ?slot_cap () =
  M.incr m_attempts;
  (match Fault.exhaust_heuristic () with
  | Some e -> raise (Budget.Out_of_budget e)
  | None -> ());
  let slot_cap = Option.value ~default:rate slot_cap in
  (* The cap spreads load during the constructive phase; compaction packs
     up to the physical limit (the initiation rate). *)
  let cap_limit = ref slot_cap in
  let n = Cdfg.n_partitions cdfg in
  let buses : sbus list ref = ref [] in
  let pins_used = Array.make (n + 1) 0 in
  let pin_cap = Array.init (n + 1) (Constraints.pins cons) in
  let io = IO.make cdfg in
  let ops = io.IO.ops and n_ops = Cdfg.n_ops cdfg and widths = io.IO.widths in
  let op_width = io.IO.width and op_value = io.IO.value in
  let op_src = io.IO.src and op_dst = io.IO.dst and op_wk = io.IO.width_index in
  let n_widths = Array.length widths in
  (* The (bus, slice) each placed operation occupies. *)
  let placed : (sbus * sub) option array = Array.make n_ops None in
  (* Scratch for [derived], per value id: the rebuild that last saw it, its
     slices, and its widest occupant's width index. *)
  let seen = Array.make io.IO.n_values 0 and stamp = ref 0 in
  let slices = Array.make io.IO.n_values 0
  and widest = Array.make io.IO.n_values 0 in
  let derived b =
    if b.stale then begin
      b.stale <- false;
      incr stamp;
      let values = ref [] and ks = ref [] in
      List.iter
        (fun (w, s) ->
          let v = op_value.(w) and k = op_wk.(w) in
          if seen.(v) <> !stamp then begin
            seen.(v) <- !stamp;
            slices.(v) <- 0;
            widest.(v) <- k;
            values := v :: !values
          end
          else widest.(v) <- max widest.(v) k;
          slices.(v) <- slices.(v) lor slice_bit s;
          if not (List.exists (Int.equal k) !ks) then ks := k :: !ks)
        b.assigned;
      b.occ_widths <- List.rev !ks;
      b.on_slices <- List.map (fun v -> (v, slices.(v))) !values;
      let on bits =
        List.fold_left
          (fun n v -> if slices.(v) land bits <> 0 then n + 1 else n)
          0 !values
      in
      b.load_lo <- on (slice_bit Lo lor slice_bit Whole);
      b.load_hi <- on (slice_bit Hi lor slice_bit Whole);
      Array.fill b.load_over 0 n_widths 0;
      List.iter
        (fun v ->
          for k = 0 to widest.(v) - 1 do
            b.load_over.(k) <- b.load_over.(k) + 1
          done)
        !values
    end;
    b
  in
  let present b slice v =
    List.exists
      (fun (v', bits) -> v' = v && bits land slice_bit slice <> 0)
      b.on_slices
  in
  (* Distinct values loading [slice] of [b]: slice occupants plus whole-bus
     occupants.  For [Whole] the relevant load is the fuller half. *)
  let slice_load b = function
    | Lo -> b.load_lo
    | Hi -> b.load_hi
    | Whole -> max b.load_lo b.load_hi
  in
  (* The pin bound of partition p reads p's pending widths and pins, and
     the free cycles of its ports, kept in [free_at.(p)] as sums per port
     width: a port's width is a design width or a split point plus one, so
     [port_widths] lists them all, ascending.  [bound_ok.(p)] records that
     the bound held when last evaluated; every write to one of its inputs
     clears it, so only partitions whose inputs changed are evaluated
     again. *)
  let port_widths =
    Array.of_list
      (List.sort_uniq compare
         (Array.to_list widths
         @ List.concat_map
             (fun a -> List.map (fun b -> a + b) (Array.to_list widths))
             (Array.to_list widths)))
  in
  let pw_index = Array.make (1 + Array.fold_left max 0 port_widths) (-1) in
  Array.iteri (fun j pw -> pw_index.(pw) <- j) port_widths;
  let free_at =
    Array.init (n + 1) (fun _ -> Array.make (Array.length port_widths) 0)
  in
  let bound_ok = Array.make (n + 1) false in
  let touch p = bound_ok.(p) <- false in
  (* Adds ([sign] = 1) or withdraws (-1) the free cycles of [b]'s port on
     [p]: 2 x cap_limit minus its occupants, when positive. *)
  let contribute b p sign =
    let r = b.sports.(p) in
    if r > 0 then begin
      let free = (2 * !cap_limit) - b.n_occ in
      if free > 0 then begin
        let j = pw_index.(r) in
        free_at.(p).(j) <- free_at.(p).(j) + (sign * free)
      end;
      touch p
    end
  in
  let contribute_bus b sign =
    for p = 0 to n do
      contribute b p sign
    done
  in
  (* After a change of [cap_limit] or of the bus set as a whole. *)
  let recount_free () =
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) free_at;
    List.iter (fun b -> contribute_bus b 1) !buses;
    Array.fill bound_ok 0 (n + 1) false
  in
  let set_assigned b l =
    contribute_bus b (-1);
    b.assigned <- l;
    b.n_occ <- List.length l;
    b.stale <- true;
    contribute_bus b 1
  in
  let set_port b p r =
    contribute b p (-1);
    b.sports.(p) <- r;
    contribute b p 1;
    touch p
  in
  let set_pins p x =
    pins_used.(p) <- x;
    touch p
  in
  (* Pending widths per partition: counts over [widths] of the operations
     touching it that are not [placed].  Compaction keeps its movers placed
     (on the retired bus) until a failed placement removes them, so the
     counts follow [placed] exactly. *)
  let pending = Array.init (n + 1) (fun _ -> Array.make n_widths 0) in
  let count_pending w d =
    let k = op_wk.(w) and s = op_src.(w) and t = op_dst.(w) in
    pending.(s).(k) <- pending.(s).(k) + d;
    touch s;
    if t <> s then begin
      pending.(t).(k) <- pending.(t).(k) + d;
      touch t
    end
  in
  let recount_pending () =
    Array.iter (fun a -> Array.fill a 0 n_widths 0) pending;
    List.iter (fun w -> if Option.is_none placed.(w) then count_pending w 1) ops
  in
  recount_pending ();
  let place w slot =
    if Option.is_none placed.(w) then count_pending w (-1);
    placed.(w) <- Some slot
  in
  let unplace w =
    if Option.is_some placed.(w) then begin
      count_pending w 1;
      placed.(w) <- None
    end
  in
  let need_of b op slice =
    port_need ~split_lo:(Option.value ~default:b.swidth b.split) op_width.(op)
      slice
  in
  let commit b op slice =
    let need = need_of b op slice in
    let widen p =
      set_pins p (pins_used.(p) + max 0 (need - b.sports.(p)));
      set_port b p (max b.sports.(p) need)
    in
    widen op_src.(op);
    widen op_dst.(op);
    set_assigned b ((op, slice) :: b.assigned);
    place op (b, slice)
  in
  (* Optimistic feasibility prune (see Heuristic.search): assuming maximal
     reuse of existing ports — every port absorbing up to 2 x slot_cap
     not-wider operations, the sub-bus optimum — the remaining unassigned
     operations still need some fresh pins on each partition.  Works on a
     copy [left] of the partition's pending counts. *)
  let left = IO.bag io in
  (* A port of width pw absorbs, per free cycle, one op <= pw plus
     possibly a second op fitting the remaining lines (two sub-buses
     max).  A cycle that absorbs nothing ends the port: later ones would
     not either. *)
  let rec absorb_port pw free =
    if free > 0 && IO.size left > 0 then begin
      let w1 = IO.take left 1 pw in
      if w1 >= 0 then begin
        if IO.size left > 0 then ignore (IO.take left 1 (pw - w1));
        absorb_port pw (free - 1)
      end
    end
  in
  let viable_at p =
    IO.load left pending.(p);
    (* Narrow ports first; ports of equal width absorb alike, so their free
       cycles pool. *)
    Array.iteri
      (fun j free -> if free > 0 then absorb_port port_widths.(j) free)
      free_at.(p);
    (* Leftovers need fresh ports: each as wide as the widest remaining
       op, carrying [cap_limit] cycles. *)
    let room = pin_cap.(p) - pins_used.(p) in
    let rec fresh cost =
      cost <= room
      && (IO.size left = 0
         ||
         let w = IO.widest left in
         absorb_port w !cap_limit;
         fresh (cost + w))
    in
    fresh 0
  in
  let pins_viable () =
    let rec go p =
      p > n
      ||
      (if not bound_ok.(p) then bound_ok.(p) <- viable_at p;
       bound_ok.(p) && go (p + 1))
    in
    go 0
  in
  (* Candidate enumeration: slices of existing buses, splits of unsplit
     buses, and a fresh bus; ranked by extra pin cost first (the paper's
     scarcity-weighted reuse), then value sharing, plain before split,
     lightly-loaded slices first.  Depth-first with backtracking. *)
  let nodes = ref 0 in
  let max_nodes = 200_000 in
  let allow_fresh = ref true in
  let rec assign_rec = function
    | [] -> true
    | op :: rest ->
        incr nodes;
        M.incr m_search_nodes;
        Budget.spend_node budget;
        if !nodes > max_nodes then begin
          if !nodes = max_nodes + 1 then begin
            M.incr m_node_limit;
            Log.debug "[subbus] search stopped at the %d-node limit" max_nodes
          end;
          false
        end
        else begin
          let width = op_width.(op) and v = op_value.(op) in
          let src = op_src.(op) and dst = op_dst.(op) in
          (* The best three viable candidates, ties in enumeration order. *)
          let top = ref [] in
          let offer c =
            let rec insert k = function
              | [] -> if k > 0 then [ c ] else []
              | x :: _ as xs when ranks_before c x ->
                  c :: Mcs_util.Listx.take (k - 1) xs
              | x :: xs -> x :: insert (k - 1) xs
            in
            top := insert 3 !top
          in
          (* Extra pins both endpoints commit for a port [need] lines
             wide on [b]; -1 when that breaks a budget. *)
          let room_src = pin_cap.(src) - pins_used.(src)
          and room_dst = pin_cap.(dst) - pins_used.(dst) in
          let extra_pins b need =
            let ds = max 0 (need - b.sports.(src))
            and dd = max 0 (need - b.sports.(dst)) in
            if ds <= room_src && dd <= room_dst then ds + dd else -1
          in
          let plain b slice slice_ok =
            if slice_ok then begin
              let cost = extra_pins b (need_of b op slice) in
              if cost >= 0 then begin
                let share = present b slice v and load = slice_load b slice in
                if share || load < !cap_limit then
                  offer { bus = b; slice; split_lo = None; cost; share; load }
              end
            end
          in
          List.iter
            (fun b ->
              let b = derived b in
              match b.split with
              | None -> plain b Whole (width <= b.swidth)
              | Some lo ->
                  plain b Lo (width <= lo);
                  plain b Hi (width <= b.swidth - lo))
            !buses;
          (* Split points: the new operation's own width or a previous
             occupant's; occupants not fitting the first sub-bus keep
             using the whole bus (grouping both sub-buses, §6.1).  After
             the split no occupant sits on Hi, so the Hi load is that of
             the occupants wider than the split; the ranking reads the
             unsplit bus, as a plain candidate would. *)
          let split b k =
            let lo = widths.(k) in
            if lo + width <= b.swidth && b.load_over.(k) < !cap_limit then begin
              let cost = extra_pins b (lo + width) in
              if cost >= 0 then
                offer
                  {
                    bus = b;
                    slice = Hi;
                    split_lo = Some lo;
                    cost;
                    share = present b Hi v;
                    load = b.load_hi;
                  }
            end
          in
          List.iter
            (fun b ->
              (* No split point is narrower than the narrowest width. *)
              if b.split = None && widths.(0) + width <= b.swidth then begin
                let b = derived b in
                split b op_wk.(op);
                List.iter
                  (fun k -> if k <> op_wk.(op) then split b k)
                  b.occ_widths
              end)
            !buses;
          let try_candidate { bus = b; slice; split_lo; _ } =
            (* Save state for backtracking. *)
            let saved_split = b.split in
            let saved_assigned = b.assigned in
            let saved_src = b.sports.(src) and saved_dst = b.sports.(dst) in
            let saved_pins_src = pins_used.(src)
            and saved_pins_dst = pins_used.(dst) in
            (match split_lo with
            | None -> ()
            | Some lo ->
                b.split <- Some lo;
                (* Narrow occupants move to the first sub-bus, the rest
                   keep grouping both sub-buses. *)
                set_assigned b
                  (List.map
                     (fun (w, _) ->
                       let slot = if op_width.(w) <= lo then Lo else Whole in
                       place w (b, slot);
                       (w, slot))
                     b.assigned));
            commit b op slice;
            if pins_viable () && assign_rec rest then true
            else begin
              M.incr m_backtracks;
              b.split <- saved_split;
              set_assigned b saved_assigned;
              set_port b src saved_src;
              set_port b dst saved_dst;
              set_pins src saved_pins_src;
              set_pins dst saved_pins_dst;
              (* A plain candidate leaves the occupants' slots alone. *)
              if Option.is_some split_lo then
                List.iter (fun (w, s) -> place w (b, s)) saved_assigned;
              unplace op;
              false
            end
          in
          List.exists try_candidate !top
          ||
          (* Fresh bus of exactly this operation's width. *)
          (!allow_fresh
          && pins_used.(src) + width <= pin_cap.(src)
          && pins_used.(dst) + width <= pin_cap.(dst)
          &&
          let b =
            {
              swidth = width;
              split = None;
              sports = Array.make (n + 1) 0;
              assigned = [];
              stale = true;
              n_occ = 0;
              load_lo = 0;
              load_hi = 0;
              on_slices = [];
              occ_widths = [];
              load_over = Array.make n_widths 0;
            }
          in
          buses := !buses @ [ b ];
          commit b op Whole;
          if pins_viable () && assign_rec rest then true
          else begin
            M.incr m_backtracks;
            contribute_bus b (-1);
            buses := List.filter (fun b' -> b' != b) !buses;
            set_pins src (pins_used.(src) - width);
            set_pins dst (pins_used.(dst) - width);
            unplace op;
            false
          end)
        end
  in
  (* Compaction: repeatedly try to retire a whole bus by relocating its
     traffic onto (possibly split) slices of the others — this is where
     sub-bus sharing actually buys pins back. *)
  let recompute_pins () =
    for p = 0 to n do
      pins_used.(p) <- Mcs_util.Listx.sum (fun b -> b.sports.(p)) !buses
    done;
    recount_free ()
  in
  let snapshot () =
    ( List.map
        (fun b -> (b, b.swidth, b.split, Array.copy b.sports, b.assigned))
        !buses,
      Array.copy placed )
  in
  let restore (saved, table) =
    buses := List.map (fun (b, _, _, _, _) -> b) saved;
    List.iter
      (fun (b, w, sp, ports, asg) ->
        b.swidth <- w;
        b.split <- sp;
        Array.blit ports 0 b.sports 0 (Array.length ports);
        b.assigned <- asg;
        b.n_occ <- List.length asg;
        b.stale <- true)
      saved;
    Array.blit table 0 placed 0 n_ops;
    recount_pending ();
    recompute_pins ()
  in
  let compact () =
    let improved = ref true in
    while !improved do
      improved := false;
      let by_load = List.sort (fun a b -> compare a.n_occ b.n_occ) !buses in
      let try_retire victim =
        let saved = snapshot () in
        cap_limit := rate;
        let movers =
          List.sort
            (fun (a, _) (b, _) -> compare op_width.(b) op_width.(a))
            victim.assigned
        in
        buses := List.filter (fun b -> b != victim) !buses;
        recompute_pins ();
        nodes := 0;
        allow_fresh := false;
        let ok = assign_rec (List.map fst movers) in
        allow_fresh := true;
        cap_limit := slot_cap;
        recount_free ();
        if ok then begin
          M.incr m_retired;
          improved := true;
          true
        end
        else begin
          restore saved;
          false
        end
      in
      ignore (List.exists try_retire by_load)
    done
  in
  (* Line-slot capacity bound, checked once before the first node.  In the
     constructive phase a slice holds at most [slot_cap] distinct values (a
     Whole occupant counts on both halves; a fresh bus holds one), and a
     value on a port r lines wide uses at least its own width of them, so
     the values touching p carry at most slot_cap x (p's port widths)
     <= slot_cap x pin_cap p bits (compared by ceiling division, which
     cannot overflow on a huge budget).  A value counts once, at its widest
     operation touching p: [ops] lists the widest first. *)
  let lines = max 1 slot_cap in
  let carried_bits p =
    incr stamp;
    List.fold_left
      (fun bits w ->
        let v = op_value.(w) in
        if (op_src.(w) = p || op_dst.(w) = p) && seen.(v) <> !stamp then begin
          seen.(v) <- !stamp;
          bits + op_width.(w)
        end
        else bits)
      0 ops
  in
  let rec over_capacity p =
    if p > n then None
    else
      let bits = carried_bits p in
      if (bits + lines - 1) / lines > pin_cap.(p) then Some (p, bits)
      else over_capacity (p + 1)
  in
  let no_connection =
    Error
      "Subbus.search: cannot place the I/O operations within the pin budgets"
  in
  match
    match over_capacity 0 with
    | Some (p, bits) ->
        M.incr m_refuted;
        Log.debug
          "[subbus] cap %d refuted: partition %d carries %d bits > %d x %d \
           pins"
          slot_cap p bits lines pin_cap.(p);
        no_connection
    | None ->
        nodes := 0;
        if assign_rec ops then begin
          compact ();
          Ok ()
        end
        else begin
          Log.debug "[subbus] search failed after %d nodes" !nodes;
          no_connection
        end
  with
  | Error m -> Error m
  | Ok () ->
      let real =
        List.map
          (fun b ->
            {
              width = b.swidth;
              split_at = b.split;
              ports =
                List.filter_map
                  (fun p ->
                    if b.sports.(p) > 0 then Some (p, b.sports.(p)) else None)
                  (Mcs_util.Listx.range 0 (n + 1));
              carried = List.rev b.assigned;
            })
          !buses
      in
      let assignment =
        List.map
          (fun op ->
            let b, s = Option.get placed.(op) in
            let rec index i = function
              | [] -> assert false
              | x :: rest -> if x == b then i else index (i + 1) rest
            in
            (op, (index 0 !buses, s)))
          (Cdfg.io_ops cdfg)
      in
      Ok (real, assignment)

(* --- Scheduling over sub-slots (§6.2) --- *)

type entry = {
  e_value : string;
  e_vid : int; (* [e_value]'s id in the hook's [Io_table] *)
  e_cstep : int;
  mutable e_ops : Types.op_id list;
}

(* Scheduling state over one bus structure.  The buses do not change while
   scheduling, so the capability table is built once per hook; occupancy,
   slots and the unscheduled list change only at a commit ([occupy]). *)
type sched_state = {
  ss_cdfg : Cdfg.t;
  ss_real : real_bus array;
  ss_rate : int;
  ss_value : int array; (* per op id: value id *)
  ss_cap : int array array;
      (* per op id and bus: the slices the op is capable of, as bits of
         [slice_bit] *)
  ss_occ : entry option array;
      (* per (bus, half, group), indexed by [cell]; a Whole value holds
         both halves with the same entry *)
  ss_tentative : (int * sub) option array; (* per op id, until committed *)
  ss_committed : (int * sub) option array; (* per op id *)
  mutable ss_unscheduled : Types.op_id list; (* I/O ops not committed *)
  ss_budget : Budget.t;
  (* Scratch for [repack]: per value id, the call that last saw it and
     its members; per unit class, its free units, the demands seated there
     and a visited mark; per demand, its class and, per bus, the kinds it
     can take. *)
  ss_seen : int array;
  mutable ss_stamp : int;
  ss_members : Types.op_id list array;
  ss_free : int array;
  ss_load : int array;
  ss_visited : bool array;
  ss_seat : int array;
  ss_dcap : int array;
}

let slices_of (rb : real_bus) =
  match rb.split_at with None -> [ Whole ] | Some _ -> [ Lo; Hi; Whole ]

let rb_capable cdfg (rb : real_bus) op slice =
  let width = Cdfg.io_width cdfg op in
  let fits_slice =
    match (rb.split_at, slice) with
    | None, Whole -> width <= rb.width
    | None, (Lo | Hi) -> false
    | Some lo, Lo -> width <= lo
    | Some lo, Hi -> width <= rb.width - lo
    | Some _, Whole -> width <= rb.width
  in
  let lo = Option.value ~default:rb.width rb.split_at in
  let need = port_need ~split_lo:lo width slice in
  let port p = Option.value ~default:0 (List.assoc_opt p rb.ports) in
  fits_slice
  && port (Cdfg.io_src cdfg op) >= need
  && port (Cdfg.io_dst cdfg op) >= need

(* Half indices: 0 for Lo, 1 for Hi. *)
let halves_of = function Lo -> [ 0 ] | Hi -> [ 1 ] | Whole -> [ 0; 1 ]
let group rate cstep = ((cstep mod rate) + rate) mod rate
let cell st i h g = (((2 * i) + h) * st.ss_rate) + g

let make_state ~budget cdfg ~rate real assignment =
  let io = IO.make cdfg in
  let real = Array.of_list real in
  let nb = Array.length real and n_ops = Cdfg.n_ops cdfg in
  let cap = Array.make_matrix n_ops nb 0 in
  List.iter
    (fun w ->
      Array.iteri
        (fun i rb ->
          List.iter
            (fun slice ->
              if rb_capable cdfg rb w slice then
                cap.(w).(i) <- cap.(w).(i) lor slice_bit slice)
            [ Lo; Hi; Whole ])
        real)
    io.IO.ops;
  let tentative = Array.make n_ops None in
  List.iter (fun (op, slot) -> tentative.(op) <- Some slot) assignment;
  let n_io = List.length io.IO.ops in
  {
    ss_cdfg = cdfg;
    ss_real = real;
    ss_rate = rate;
    ss_value = io.IO.value;
    ss_cap = cap;
    ss_occ = Array.make (2 * nb * rate) None;
    ss_tentative = tentative;
    ss_committed = Array.make n_ops None;
    ss_unscheduled = Cdfg.io_ops cdfg;
    ss_budget = budget;
    ss_seen = Array.make io.IO.n_values 0;
    ss_stamp = 0;
    ss_members = Array.make io.IO.n_values [];
    ss_free = Array.make (3 * nb) 0;
    ss_load = Array.make (3 * nb) 0;
    ss_visited = Array.make (3 * nb) false;
    ss_seat = Array.make n_io 0;
    ss_dcap = Array.make (n_io * nb) 0;
  }

let capable st op (i, slice) = st.ss_cap.(op).(i) land slice_bit slice <> 0

let slot_admissible st op ~cstep (i, slice) =
  let g = group st.ss_rate cstep in
  List.for_all
    (fun h ->
      match st.ss_occ.(cell st i h g) with
      | None -> true
      | Some e -> e.e_vid = st.ss_value.(op) && e.e_cstep = cstep)
    (halves_of slice)

(* The one commit path of both hooks: [op] takes [slot] at [cstep], joining
   the entry already on one of its halves or opening a new one. *)
let occupy st op ~cstep ((i, slice) as slot) =
  let g = group st.ss_rate cstep and halves = halves_of slice in
  let entry =
    match List.find_map (fun h -> st.ss_occ.(cell st i h g)) halves with
    | Some e ->
        e.e_ops <- e.e_ops @ [ op ];
        e
    | None ->
        {
          e_value = Cdfg.io_value st.ss_cdfg op;
          e_vid = st.ss_value.(op);
          e_cstep = cstep;
          e_ops = [ op ];
        }
  in
  List.iter
    (fun h ->
      let c = cell st i h g in
      if Option.is_none st.ss_occ.(c) then st.ss_occ.(c) <- Some entry)
    halves;
  st.ss_tentative.(op) <- None;
  st.ss_committed.(op) <- Some slot;
  st.ss_unscheduled <- List.filter (fun w -> w <> op) st.ss_unscheduled

(* Capacity lookahead for the dynamic hook: after [except] takes [slot] at
   [cstep], can every remaining unscheduled I/O operation still be packed
   onto the free sub-slots?  Unsplit buses yield full-width units; split
   buses also yield half units.  Same-value operations able to ride the
   consumed slot demand nothing; other same-value groups with a common
   capable bus demand one unit.  The answer is whether a maximum matching
   of demands to units covers every demand; its size does not depend on
   the order the vertices are visited in. *)
let repack st ~except ~slot:(si, sslice) ~cstep =
  M.incr m_repacks;
  let rate = st.ss_rate and nb = Array.length st.ss_real in
  (* Units of one bus and kind are interchangeable, so they are counted
     per class 3i + k: bus i, kind k = 0 for the Lo half alone, 1 for the
     Hi half alone, 2 for a whole free slot (any capable slice fits it). *)
  let n_classes = 3 * nb and free = st.ss_free in
  Array.fill free 0 n_classes 0;
  let g_w = group rate cstep and taken = halves_of sslice in
  let n_units = ref 0 in
  for i = 0 to nb - 1 do
    for g = 0 to rate - 1 do
      let busy h =
        Option.is_some st.ss_occ.(cell st i h g)
        || (i = si && g = g_w && List.mem h taken)
      in
      let k =
        match (busy 0, busy 1) with
        | false, false -> 2
        | false, true -> 0
        | true, false -> 1
        | true, true -> -1
      in
      if k >= 0 then begin
        free.((3 * i) + k) <- free.((3 * i) + k) + 1;
        incr n_units
      end
    done
  done;
  (* Demands, grouped by value.  Bit k of a demand's [dcap] on bus i: every
     member can take a unit of class 3i + k. *)
  st.ss_stamp <- st.ss_stamp + 1;
  let stamp = st.ss_stamp and values = ref [] in
  let except_vid = st.ss_value.(except) in
  List.iter
    (fun w ->
      let v = st.ss_value.(w) in
      if
        w <> except
        && not (v = except_vid && st.ss_cap.(w).(si) land slice_bit sslice <> 0)
      then begin
        if st.ss_seen.(v) <> stamp then begin
          st.ss_seen.(v) <- stamp;
          st.ss_members.(v) <- [];
          values := v :: !values
        end;
        st.ss_members.(v) <- w :: st.ss_members.(v)
      end)
    st.ss_unscheduled;
  let n_dem = ref 0 in
  let demand members =
    let base = !n_dem * nb in
    for i = 0 to nb - 1 do
      let all = ref 7 in
      List.iter
        (fun w ->
          let m = st.ss_cap.(w).(i) in
          all := !all land ((m land 3) lor if m <> 0 then 4 else 0))
        members;
      st.ss_dcap.(base + i) <- !all
    done;
    incr n_dem
  in
  let common_bus members =
    let rec on i =
      i < nb
      && (List.for_all (fun w -> st.ss_cap.(w).(i) <> 0) members
         || on (i + 1))
    in
    on 0
  in
  List.iter
    (fun v ->
      match st.ss_members.(v) with
      | _ :: _ :: _ as members when common_bus members -> demand members
      | members -> List.iter (fun w -> demand [ w ]) members)
    !values;
  let n_dem = !n_dem in
  n_dem <= !n_units
  &&
  (* Kuhn's augmenting search over classes.  A visit to a class makes room
     there for the demand at hand: a free unit, or a seated demand that
     moves on to another class. *)
  let load = st.ss_load and visited = st.ss_visited and seat = st.ss_seat in
  Array.fill load 0 n_classes 0;
  Array.fill seat 0 n_dem (-1);
  let usable l c =
    (not visited.(c))
    && free.(c) > 0
    && st.ss_dcap.((l * nb) + (c / 3)) land (1 lsl (c mod 3)) <> 0
  in
  let rec augment l =
    let rec from c =
      c < n_classes
      &&
      if usable l c && (visited.(c) <- true; room c) then begin
        seat.(l) <- c;
        true
      end
      else from (c + 1)
    in
    from 0
  and room c =
    if load.(c) < free.(c) then begin
      load.(c) <- load.(c) + 1;
      true
    end
    else reseat c 0
  and reseat c l' =
    l' < n_dem && ((seat.(l') = c && augment l') || reseat c (l' + 1))
  in
  (* The first demand left uncovered decides the answer. *)
  let rec cover l =
    l = n_dem
    || begin
         Budget.spend_augment st.ss_budget;
         Array.fill visited 0 n_classes false;
         augment l && cover (l + 1)
       end
  in
  cover 0

let subbus_hook ?(budget = Budget.unlimited) cdfg ~rate real assignment =
  let st = make_state ~budget cdfg ~rate real assignment in
  let feasible op ~cstep slot =
    capable st op slot
    && slot_admissible st op ~cstep slot
    && repack st ~except:op ~slot ~cstep
  in
  let slots =
    List.concat
      (List.mapi (fun i rb -> List.map (fun s -> (i, s)) (slices_of rb)) real)
  in
  (* The first feasible slot in the paper's order: the tentative one, then
     every slice in bus order. *)
  let first_feasible op ~cstep =
    let tentative = st.ss_tentative.(op) in
    match tentative with
    | Some slot when feasible op ~cstep slot -> Some slot
    | _ ->
        List.find_opt
          (fun slot -> Some slot <> tentative && feasible op ~cstep slot)
          slots
  in
  (* [io_can]'s answer, for the [io_commit] that follows it. *)
  let pending = ref None in
  let io_can _sched op ~cstep =
    let slot = first_feasible op ~cstep in
    pending := Option.map (fun slot -> (op, cstep, slot)) slot;
    Option.is_some slot
  in
  let io_commit _sched op ~cstep =
    let slot =
      match !pending with
      | Some (op', cstep', slot) when op' = op && cstep' = cstep -> slot
      | _ -> (
          match first_feasible op ~cstep with
          | Some slot -> slot
          | None -> invalid_arg "Subbus: commit without an admissible slot")
    in
    pending := None;
    occupy st op ~cstep slot
  in
  (st, { LS.io_can; io_commit })

let allocation_of st =
  let rows = ref [] in
  for i = 0 to Array.length st.ss_real - 1 do
    for g = 0 to st.ss_rate - 1 do
      let lo = st.ss_occ.(cell st i 0 g) and hi = st.ss_occ.(cell st i 1 g) in
      let row slice e =
        rows := ((i, slice, g), (e.e_value, e.e_cstep, e.e_ops)) :: !rows
      in
      (* Report each entry once, on its lowest half. *)
      Option.iter (row Lo) lo;
      match (lo, hi) with
      | Some e, Some e' when e == e' -> ()
      | _, hi -> Option.iter (row Hi) hi
    done
  done;
  List.sort compare !rows

let schedule_over ?(budget = Budget.unlimited) cdfg mlib cons ~rate ~dynamic
    (real, assignment) =
  let st, hook = subbus_hook ~budget cdfg ~rate real assignment in
  let hook =
    if dynamic then hook
    else
      (* Static baseline: only the initially assigned slice counts. *)
      {
        LS.io_can =
          (fun _ op ~cstep ->
            match st.ss_tentative.(op) with
            | Some slot -> capable st op slot && slot_admissible st op ~cstep slot
            | None -> false);
        io_commit =
          (fun _ op ~cstep ->
            match st.ss_tentative.(op) with
            | Some slot -> occupy st op ~cstep slot
            | None -> invalid_arg "Subbus: static commit without slot");
      }
  in
  match
    Mcs_obs.Trace.with_span "ch6.schedule" (fun () ->
        LS.run ~budget cdfg mlib cons ~rate ~io_hook:hook ())
  with
  | Error f -> (
      match f.LS.kind with
      | LS.Exhausted e ->
          (* Budget exhaustion is not a property of this bus structure:
             surface it typed so the caller's ladder stops the sweep. *)
          raise (Budget.Out_of_budget e)
      | _ ->
          if Log.enabled Log.Debug then
            List.iter
              (fun op ->
                if not (Mcs_sched.Schedule.is_scheduled f.LS.partial op)
                then Log.debug "[subbus] unscheduled: %s" (Cdfg.name cdfg op))
              (Cdfg.ops cdfg);
          Error
            (Printf.sprintf "scheduling failed at cstep %d: %s"
               f.LS.at_cstep f.LS.reason))
  | Ok schedule ->
      let pins =
        Mcs_connect.Pins.tally ~n_partitions:(Cdfg.n_partitions cdfg)
          (List.concat_map (fun (rb : real_bus) -> rb.ports) real)
      in
      let final =
        List.filter_map
          (fun op -> Option.map (fun slot -> (op, slot)) st.ss_committed.(op))
          (List.init (Cdfg.n_ops cdfg) Fun.id)
      in
      Ok
        {
          real_buses = real;
          initial_assignment = assignment;
          final_assignment = final;
          allocation = allocation_of st;
          schedule;
          pins;
        }
