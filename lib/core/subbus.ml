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
  static_pipe_length : int option;
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
  e_cstep : int;
  mutable e_ops : Types.op_id list;
}

type sched_state = {
  ss_real : real_bus array;
  ss_rate : int;
  (* Occupancy per (bus, half, group); a Whole value holds both halves with
     the same entry. *)
  halves : (int * sub * int, entry) Hashtbl.t;
  ss_tentative : (Types.op_id, int * sub) Hashtbl.t;
  ss_committed : (Types.op_id, int * sub) Hashtbl.t;
  ss_budget : Budget.t;
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

let halves_of slice = match slice with Lo -> [ Lo ] | Hi -> [ Hi ] | Whole -> [ Lo; Hi ]

let slot_admissible st cdfg op ~cstep (i, slice) =
  let g = ((cstep mod st.ss_rate) + st.ss_rate) mod st.ss_rate in
  let value = Cdfg.io_value cdfg op in
  List.for_all
    (fun h ->
      match Hashtbl.find_opt st.halves (i, h, g) with
      | None -> true
      | Some e -> String.equal e.e_value value && e.e_cstep = cstep)
    (halves_of slice)

(* Capacity lookahead for the dynamic hook: after [except] takes [slot] at
   [cstep], can every remaining unscheduled I/O operation still be packed
   onto the free sub-slots?  Unsplit buses yield full-width units; split
   buses also yield half units.  Same-value operations able to ride the
   consumed slot demand nothing; other same-value groups with a common
   capable slice demand one unit. *)
let sub_repack st cdfg ~rate ~except ~slot:(si, sslice) ~cstep unscheduled =
  let g_w = ((cstep mod rate) + rate) mod rate in
  let occupied i h g =
    Hashtbl.mem st.halves (i, h, g)
    || (i = si && g = g_w && List.mem h (halves_of sslice))
  in
  let nb = Array.length st.ss_real in
  let units = ref [] in
  for i = 0 to nb - 1 do
    for g = 0 to rate - 1 do
      match (occupied i Lo g, occupied i Hi g) with
      | false, false -> units := `Full i :: !units
      | false, true -> units := `Half (i, Lo) :: !units
      | true, false -> units := `Half (i, Hi) :: !units
      | true, true -> ()
    done
  done;
  let units = Array.of_list !units in
  let cap_any op i =
    List.exists (fun sl -> rb_capable cdfg st.ss_real.(i) op sl)
      (slices_of st.ss_real.(i))
  in
  let cap_unit op = function
    | `Full i -> cap_any op i
    | `Half (i, h) -> rb_capable cdfg st.ss_real.(i) op h
  in
  let except_value = Cdfg.io_value cdfg except in
  let ops =
    List.filter
      (fun w ->
        not
          (String.equal (Cdfg.io_value cdfg w) except_value
          && rb_capable cdfg st.ss_real.(si) w sslice))
      (List.filter (fun w -> w <> except) unscheduled)
  in
  let demands =
    List.concat_map
      (fun (_, members) ->
        let common_bus =
          List.filter
            (fun i -> List.for_all (fun w -> cap_any w i) members)
            (Mcs_util.Listx.range 0 nb)
        in
        if common_bus <> [] && List.length members > 1 then [ members ]
        else List.map (fun w -> [ w ]) members)
      (Mcs_util.Listx.group_by (Cdfg.io_value cdfg) ops)
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
  Mcs_graph.Bipartite.max_matching ~budget:st.ss_budget bip
  = Array.length demands

let subbus_hook ?(budget = Budget.unlimited) cdfg ~rate real assignment =
  let st =
    {
      ss_real = Array.of_list real;
      ss_rate = rate;
      halves = Hashtbl.create 64;
      ss_tentative = Hashtbl.create 64;
      ss_committed = Hashtbl.create 64;
      ss_budget = budget;
    }
  in
  List.iter
    (fun (op, slot) -> Hashtbl.replace st.ss_tentative op slot)
    assignment;
  let candidates op ~cstep =
    let unscheduled =
      List.filter
        (fun w -> not (Hashtbl.mem st.ss_committed w))
        (Cdfg.io_ops cdfg)
    in
    let all =
      List.concat
        (List.mapi
           (fun i rb ->
             List.filter_map
               (fun slice ->
                 if
                   rb_capable cdfg rb op slice
                   && slot_admissible st cdfg op ~cstep (i, slice)
                   && sub_repack st cdfg ~rate ~except:op ~slot:(i, slice)
                        ~cstep unscheduled
                 then Some (i, slice)
                 else None)
               (slices_of rb))
           (Array.to_list st.ss_real))
    in
    match Hashtbl.find_opt st.ss_tentative op with
    | Some slot when List.mem slot all ->
        slot :: List.filter (fun s -> s <> slot) all
    | _ -> all
  in
  let io_can _sched op ~cstep = candidates op ~cstep <> [] in
  let io_commit _sched op ~cstep =
    match candidates op ~cstep with
    | [] -> invalid_arg "Subbus: commit without an admissible slot"
    | ((i, slice) as slot) :: _ ->
        let g = ((cstep mod rate) + rate) mod rate in
        let entry =
          let existing =
            List.find_map
              (fun h -> Hashtbl.find_opt st.halves (i, h, g))
              (halves_of slice)
          in
          match existing with
          | Some e ->
              e.e_ops <- e.e_ops @ [ op ];
              e
          | None ->
              { e_value = Cdfg.io_value cdfg op; e_cstep = cstep; e_ops = [ op ] }
        in
        List.iter
          (fun h ->
            if not (Hashtbl.mem st.halves (i, h, g)) then
              Hashtbl.add st.halves (i, h, g) entry)
          (halves_of slice);
        Hashtbl.remove st.ss_tentative op;
        Hashtbl.replace st.ss_committed op slot
  in
  (st, { LS.io_can; io_commit })

let allocation_of st =
  let rows = ref [] in
  Hashtbl.iter
    (fun (i, h, g) e ->
      (* Report each entry once, on its lowest half. *)
      let primary =
        match h with
        | Lo -> true
        | Hi -> (
            match Hashtbl.find_opt st.halves (i, Lo, g) with
            | Some e' -> e' != e
            | None -> true)
        | Whole -> true
      in
      if primary then
        rows := ((i, h, g), (e.e_value, e.e_cstep, e.e_ops)) :: !rows)
    st.halves;
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
                match Hashtbl.find_opt st.ss_tentative op with
                | Some ((i, slice) as _slot) ->
                    rb_capable cdfg st.ss_real.(i) op slice
                    && slot_admissible st cdfg op ~cstep (i, slice)
                | None -> false);
            io_commit =
              (fun sched op ~cstep ->
                match Hashtbl.find_opt st.ss_tentative op with
                | Some (i, slice) ->
                    ignore sched;
                    let g = ((cstep mod rate) + rate) mod rate in
                    let entry =
                      match
                        List.find_map
                          (fun h -> Hashtbl.find_opt st.halves (i, h, g))
                          (halves_of slice)
                      with
                      | Some e ->
                          e.e_ops <- e.e_ops @ [ op ];
                          e
                      | None ->
                          {
                            e_value = Cdfg.io_value cdfg op;
                            e_cstep = cstep;
                            e_ops = [ op ];
                          }
                    in
                    List.iter
                      (fun h ->
                        if not (Hashtbl.mem st.halves (i, h, g)) then
                          Hashtbl.add st.halves (i, h, g) entry)
                      (halves_of slice);
                    Hashtbl.remove st.ss_tentative op;
                    Hashtbl.replace st.ss_committed op (i, slice)
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
            Hashtbl.fold (fun op slot acc -> (op, slot) :: acc) st.ss_committed []
            |> List.sort compare
          in
          Ok
            {
              real_buses = real;
              initial_assignment = assignment;
              final_assignment = final;
              allocation = allocation_of st;
              schedule;
              pins;
              static_pipe_length = None;
            }

let attempt ?(budget = Budget.unlimited) cdfg mlib cons ~rate ~slot_cap
    ~dynamic =
  match
    Mcs_obs.Trace.with_span "ch6.search"
      ~attrs:[ ("slot_cap", string_of_int slot_cap) ]
      (fun () -> search ~budget cdfg cons ~rate ~slot_cap ())
  with
  | Error m -> Error m
  | Ok ra -> schedule_over ~budget cdfg mlib cons ~rate ~dynamic ra

let total_pins t = Mcs_util.Listx.sum snd t.pins

(* Pin minimization is Chapter 6's whole point, so sweep the per-bus value
   cap over its range and keep the schedulable result with fewest pins
   (shorter pipe breaks ties). *)
let run ?(budget = Budget.unlimited) cdfg mlib cons ~rate () =
  let results =
    List.filter_map
      (fun cap ->
        match attempt ~budget cdfg mlib cons ~rate ~slot_cap:cap ~dynamic:true with
        | Ok t ->
            Log.debug "[subbus] cap=%d: pins=%d pipe=%d splits=%d" cap
              (total_pins t)
              (Mcs_sched.Schedule.pipe_length t.schedule)
              (List.length
                 (List.filter (fun b -> b.split_at <> None) t.real_buses));
            let static_pipe_length =
              match
                attempt ~budget cdfg mlib cons ~rate ~slot_cap:cap
                  ~dynamic:false
              with
              | Ok t' -> Some (Mcs_sched.Schedule.pipe_length t'.schedule)
              | Error _ -> None
            in
            Some { t with static_pipe_length }
        | Error m ->
            Log.debug "[subbus] cap=%d: %s" cap m;
            None)
      (List.rev (Mcs_util.Listx.range 1 (rate + 1)))
  in
  match
    Mcs_util.Listx.min_by
      (fun t ->
        (1000 * total_pins t) + Mcs_sched.Schedule.pipe_length t.schedule)
      results
  with
  | Some best -> Ok best
  | None -> Error "no schedulable sub-bus connection found at any slot cap"

let run_design (design : Benchmarks.design) ~rate =
  let cons = Benchmarks.constraints_for_bidir design ~rate in
  run design.Benchmarks.cdfg design.Benchmarks.mlib cons ~rate ()
