open Mcs_cdfg
module M = Mcs_obs.Metrics
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault

type error =
  | Infeasible of string
  | Chaining_overflow of Types.op_id
  | Exhausted of Budget.exhausted

(* The schedule-materialization chaining overflow used to escape as
   [Failure]; a dedicated exception keeps the op id typed on its way to
   the boundary [Error]. *)
exception Chaining of Types.op_id

let m_runs = M.counter "fds.runs"
let m_frame_passes = M.counter "fds.frame_passes"
let m_dg_builds = M.counter "fds.dg_builds"
let m_force_evals = M.counter "fds.force_evals"
let m_placements = M.counter "fds.placements"
let m_rejected_fixes = M.counter "fds.rejected_fixes"

(* --- Frames: chaining-aware clamped timing windows, settled by a worklist ---

   An operation's window is [lb, ub].  Both bounds are the least fixpoint
   of a monotone system: [lb] of the chaining-aware earliest-start pass
   over the graph, floored by the fixed steps and by the recursive-edge
   max-time constraints; [ub] of the same pass over the reversed graph.
   The passes only ever tighten, so the fixpoint is reached from any
   state between the start and the fixpoint, in any order: the from-
   scratch frames start from the bare bounds, and the scheduler's
   re-propagation after fixing one operation starts from the previous
   frames with that operation clamped, and revisits only what changed. *)

(* One direction of the pass.  [lo.(v)] is [v]'s earliest start step in
   this direction's time and [fin.(v)] its chained finish offset in that
   step.  Forward, [lo] is [lb]; backward (reversed time), [lo.(v)] is
   [pipe_length - ub.(v) - cycles v]. *)
type side = { lo : int array; fin : int array }

type state = { fwd : side; bwd : side }

(* The tables one run's frames read, and the worklist they settle by. *)
type frame_ctx = {
  n : int;
  pipe_length : int;
  stage : int;
  facts : Op_facts.t;
  order : int array; (* topological *)
  rev_order : int array;
  constraints : (int * int * int) array; (* (src, dst, bound) *)
  dirty_f : bool array; (* awaiting a forward visit *)
  dirty_b : bool array;
  mutable pending : int; (* flags set in [dirty_f] and [dirty_b] *)
}

let frame_ctx cdfg mlib ~rate ~pipe_length facts =
  let n = Cdfg.n_ops cdfg in
  {
    n;
    pipe_length;
    stage = Module_lib.stage_ns mlib;
    facts;
    order = Array.of_list facts.Op_facts.topo;
    rev_order = Array.of_list facts.Op_facts.rev_topo;
    constraints =
      Array.of_list (Timing.max_time_constraints cdfg mlib ~rate);
    dirty_f = Array.make n false;
    dirty_b = Array.make n false;
    pending = 0;
  }

let new_state n =
  {
    fwd = { lo = Array.make n 0; fin = Array.make n 0 };
    bwd = { lo = Array.make n 0; fin = Array.make n 0 };
  }

let blit_state ~src ~dst =
  let n = Array.length src.fwd.lo in
  Array.blit src.fwd.lo 0 dst.fwd.lo 0 n;
  Array.blit src.fwd.fin 0 dst.fwd.fin 0 n;
  Array.blit src.bwd.lo 0 dst.bwd.lo 0 n;
  Array.blit src.bwd.fin 0 dst.bwd.fin 0 n

let ub_of fc st v = fc.pipe_length - st.bwd.lo.(v) - fc.facts.cycles.(v)

exception Empty_window

let mark fc dirty v =
  if not dirty.(v) then begin
    dirty.(v) <- true;
    fc.pending <- fc.pending + 1
  end

(* [lb > ub] for [v]; bounds only tighten, so the frames are then
   inconsistent whatever the rest of the propagation does. *)
let check fc st v =
  if st.fwd.lo.(v) + st.bwd.lo.(v) + fc.facts.cycles.(v) > fc.pipe_length
  then raise Empty_window

(* Raises [v]'s floor on one side to [x]; [v] and every operation reading
   it on that side ([after]) are revisited. *)
let raise_lo fc st sd dirty ~after v x =
  if x > sd.lo.(v) then begin
    sd.lo.(v) <- x;
    mark fc dirty v;
    List.iter (mark fc dirty) after.(v);
    check fc st v
  end

(* Re-places [v] on one side from its floor and its [before] operations,
   exactly as one step of the clamped earliest-start pass.  True when
   [v]'s start or finish moved. *)
let place fc sd ~before v =
  let cycles = fc.facts.cycles and stage = fc.stage in
  let lo = sd.lo and fin = sd.fin in
  let dv = fc.facts.delay.(v) in
  let multi = cycles.(v) > 1 in
  let ps = before.(v) in
  let c0 =
    List.fold_left
      (fun acc p ->
        let chainable =
          (not multi) && cycles.(p) = 1 && fin.(p) + dv <= stage
        in
        let need = if chainable then lo.(p) else lo.(p) + cycles.(p) in
        max acc need)
      lo.(v) ps
  in
  let lo0 = lo.(v) and fin0 = fin.(v) in
  if multi then begin
    lo.(v) <- c0;
    fin.(v) <- 0
  end
  else begin
    let offset =
      List.fold_left
        (fun acc p ->
          if lo.(p) = c0 && lo.(p) + cycles.(p) > c0 then max acc fin.(p)
          else acc)
        0 ps
    in
    if offset + dv <= stage then begin
      lo.(v) <- c0;
      fin.(v) <- offset + dv
    end
    else begin
      lo.(v) <- c0 + 1;
      fin.(v) <- dv
    end
  end;
  lo.(v) <> lo0 || fin.(v) <> fin0

(* Visits the dirty operations of one side in its topological order, so
   every operation is placed after the operations it reads. *)
let sweep fc st sd dirty ~order ~before ~after =
  Array.iter
    (fun v ->
      if dirty.(v) then begin
        dirty.(v) <- false;
        fc.pending <- fc.pending - 1;
        if place fc sd ~before v then begin
          List.iter (mark fc dirty) after.(v);
          check fc st v
        end
      end)
    order

(* Runs [seed] (which clamps and marks operations) on [st], then settles
   [st] to the frames' fixpoint; [false] when a window empties.  One pass
   is a forward sweep, a backward sweep and one application of every
   max-time constraint, repeated while anything is dirty. *)
let propagate fc st seed =
  let preds = fc.facts.Op_facts.preds and succs = fc.facts.Op_facts.succs in
  let cycles = fc.facts.cycles in
  let passes = ref 0 in
  match
    seed ();
    while fc.pending > 0 do
      incr passes;
      M.incr m_frame_passes;
      if Mcs_obs.Events.on () then
        Mcs_obs.Events.emit ~cat:"fds" "frame.pass"
          ~args:[ ("pass", Mcs_obs.Events.Int !passes) ];
      sweep fc st st.fwd fc.dirty_f ~order:fc.order ~before:preds ~after:succs;
      sweep fc st st.bwd fc.dirty_b ~order:fc.rev_order ~before:succs
        ~after:preds;
      (* Recursive max-time constraints couple the windows:
         ub(src) <= ub(dst) + bound and lb(dst) >= lb(src) - bound. *)
      Array.iter
        (fun (src, dst, bound) ->
          raise_lo fc st st.bwd fc.dirty_b ~after:preds src
            (st.bwd.lo.(dst) + cycles.(dst) - bound - cycles.(src));
          raise_lo fc st st.fwd fc.dirty_f ~after:succs dst
            (st.fwd.lo.(src) - bound))
        fc.constraints
    done
  with
  | () -> true
  | exception Empty_window ->
      Array.fill fc.dirty_f 0 fc.n false;
      Array.fill fc.dirty_b 0 fc.n false;
      fc.pending <- 0;
      false

(* Clamps [v] to step [s] in [st]. *)
let clamp fc st v s =
  let preds = fc.facts.Op_facts.preds and succs = fc.facts.Op_facts.succs in
  raise_lo fc st st.fwd fc.dirty_f ~after:succs v s;
  raise_lo fc st st.bwd fc.dirty_b ~after:preds v
    (fc.pipe_length - s - fc.facts.cycles.(v))

(* The frames from the bare bounds, [lb = 0] and [ub = pipe_length -
   cycles], clamped at every fixed operation.  An empty design has
   none. *)
let initial_frames fc ~fixed =
  let st = new_state fc.n in
  let seed () =
    for v = 0 to fc.n - 1 do
      mark fc fc.dirty_f v;
      mark fc fc.dirty_b v;
      Option.iter (clamp fc st v) fixed.(v);
      check fc st v
    done
  in
  if fc.n > 0 && propagate fc st seed then Some st else None

let frames cdfg mlib ~rate ~pipe_length ~fixed =
  let fc =
    frame_ctx cdfg mlib ~rate ~pipe_length (Op_facts.make cdfg mlib)
  in
  Option.map
    (fun st -> (Array.copy st.fwd.lo, Array.init fc.n (ub_of fc st)))
    (initial_frames fc ~fixed)

(* --- Distribution graphs and forces --- *)

type rkey = Fu of int * string | In_pins of int | Out_pins of int

let contributions cdfg op =
  match Cdfg.node cdfg op with
  | Types.Func { optype; partition } -> [ (Fu (partition, optype), 1.0) ]
  | Types.Io { src; dst; width; _ } ->
      [ (Out_pins src, float_of_int width); (In_pins dst, float_of_int width) ]

(* The distribution graphs (DGs) of one run and the forces read off them.

   Resources are numbered densely: [res.(op)] lists [op]'s (resource,
   weight) contributions and [users.(r)] the (op, weight) pairs loading
   resource [r], in operation order.  [dg.(r).(g)] is [r]'s distribution
   over control-step group [g]: each op spreads uniformly over its window
   [lb, ub], occupying [cycles] consecutive groups per candidate step.

   A window force depends only on the moved operation's window and on its
   resources' DGs, so each is memoized per operation until either
   changes: [to_step.(op).(s - lb)] fixes [op] at [s],
   [to_hi.(op).(h - lb)] squeezes it to [lb, h] and [to_lo.(op).(l - lb)]
   to [l, ub]; [nan] marks a force not computed yet. *)
type forces = {
  rate : int;
  facts : Op_facts.t;
  res : (int * float) array array;
  users : (int * float) array array;
  dg : float array array;
  delta : float array; (* scratch of [window_force] *)
  lb : int array; (* this round's windows *)
  ub : int array;
  moved : bool array; (* window differs from last round's *)
  dg_moved : bool array;
  to_step : float array array;
  to_hi : float array array;
  to_lo : float array array;
}

let make_forces cdfg facts ~rate =
  let n = Cdfg.n_ops cdfg in
  let ids = Hashtbl.create 16 in
  let id key =
    match Hashtbl.find_opt ids key with
    | Some r -> r
    | None ->
        let r = Hashtbl.length ids in
        Hashtbl.add ids key r;
        r
  in
  let res =
    Array.init n (fun op ->
        Array.of_list
          (List.map (fun (key, w) -> (id key, w)) (contributions cdfg op)))
  in
  let n_res = Hashtbl.length ids in
  let users = Array.make n_res [] in
  for op = n - 1 downto 0 do
    Array.iter (fun (r, w) -> users.(r) <- (op, w) :: users.(r)) res.(op)
  done;
  {
    rate;
    facts;
    res;
    users = Array.map Array.of_list users;
    dg = Array.init n_res (fun _ -> Array.make rate 0.0);
    delta = Array.make rate 0.0;
    lb = Array.make n (-1);
    ub = Array.make n (-1);
    moved = Array.make n false;
    dg_moved = Array.make n_res false;
    to_step = Array.make n [||];
    to_hi = Array.make n [||];
    to_lo = Array.make n [||];
  }

(* Rebuilds resource [r]'s DG from zero, adding the operations in
   operation order, so the DG's bits depend on the windows alone. *)
let rebuild_dg fo r =
  let a = fo.dg.(r) and rate = fo.rate and lb = fo.lb and ub = fo.ub in
  Array.fill a 0 rate 0.0;
  Array.iter
    (fun (op, weight) ->
      let p = 1.0 /. float_of_int (ub.(op) - lb.(op) + 1) in
      for s = lb.(op) to ub.(op) do
        for k = 0 to fo.facts.cycles.(op) - 1 do
          let g = (s + k) mod rate in
          a.(g) <- a.(g) +. (p *. weight)
        done
      done)
    fo.users.(r)

(* Takes the windows of a new round: rebuilds the DGs a moved window
   loads and drops the memoized forces of every operation whose window
   or DGs moved.  A DG no window of which moved would rebuild to the same
   bits, so it is kept. *)
let refresh fo st ~ub_of =
  let n = Array.length fo.lb in
  for v = 0 to n - 1 do
    let lb = st.fwd.lo.(v) and ub = ub_of st v in
    fo.moved.(v) <- lb <> fo.lb.(v) || ub <> fo.ub.(v);
    fo.lb.(v) <- lb;
    fo.ub.(v) <- ub
  done;
  Array.fill fo.dg_moved 0 (Array.length fo.dg_moved) false;
  for v = 0 to n - 1 do
    if fo.moved.(v) then
      Array.iter (fun (r, _) -> fo.dg_moved.(r) <- true) fo.res.(v)
  done;
  Array.iteri (fun r m -> if m then rebuild_dg fo r) fo.dg_moved;
  for v = 0 to n - 1 do
    if fo.moved.(v) || Array.exists (fun (r, _) -> fo.dg_moved.(r)) fo.res.(v)
    then begin
      let fresh () = Array.make (fo.ub.(v) - fo.lb.(v) + 1) Float.nan in
      fo.to_step.(v) <- fresh ();
      fo.to_hi.(v) <- fresh ();
      fo.to_lo.(v) <- fresh ()
    end
  done

let spread delta ~rate ~cyc lo hi sign =
  let p = sign /. float_of_int (hi - lo + 1) in
  for s = lo to hi do
    for k = 0 to cyc - 1 do
      let g = (s + k) mod rate in
      delta.(g) <- delta.(g) +. p
    done
  done

(* Force of moving [op]'s window from [lb, ub] to [lo1, hi1]. *)
let window_force fo op lo1 hi1 =
  M.incr m_force_evals;
  let rate = fo.rate and delta = fo.delta in
  let cyc = fo.facts.cycles.(op) in
  Array.fill delta 0 rate 0.0;
  spread delta ~rate ~cyc lo1 hi1 1.0;
  spread delta ~rate ~cyc fo.lb.(op) fo.ub.(op) (-1.0);
  Array.fold_left
    (fun acc (r, weight) ->
      let a = fo.dg.(r) in
      let f = ref 0.0 in
      for g = 0 to rate - 1 do
        f := !f +. (a.(g) *. delta.(g))
      done;
      acc +. (weight *. !f))
    0.0 fo.res.(op)

let memoized fo memo op i lo1 hi1 =
  let f = memo.(op).(i) in
  if Float.is_nan f then begin
    let f = window_force fo op lo1 hi1 in
    memo.(op).(i) <- f;
    f
  end
  else f

(* Total force of fixing [op] at [s]: its self force plus the first-order
   forces on its predecessors (squeezed below [s]) and successors (above),
   summed in that order. *)
let candidate_force fo op s =
  let lb = fo.lb and ub = fo.ub in
  let self = memoized fo fo.to_step op (s - lb.(op)) s s in
  let neigh =
    List.fold_left
      (fun acc p ->
        let ub' = min ub.(p) s in
        if ub' < lb.(p) then acc +. 1000.0
        else if ub' < ub.(p) then
          acc +. memoized fo fo.to_hi p (ub' - lb.(p)) lb.(p) ub'
        else acc)
      0.0 fo.facts.preds.(op)
    +. List.fold_left
         (fun acc q ->
           let lb' = max lb.(q) s in
           if lb' > ub.(q) then acc +. 1000.0
           else if lb' > lb.(q) then
             acc +. memoized fo fo.to_lo q (lb' - lb.(q)) lb' ub.(q)
           else acc)
         0.0 fo.facts.succs.(op)
  in
  self +. neigh

(* Candidate order: lowest force first, then operation, then step. *)
let compare_candidates (f1, o1, s1) (f2, o2, s2) =
  let c = Float.compare f1 f2 in
  if c <> 0 then c else if o1 <> o2 then compare o1 o2 else compare s1 s2

let run ?(budget = Budget.unlimited) cdfg mlib ~rate ~pipe_length () =
  Mcs_obs.Trace.with_span "fds.run" @@ fun () ->
  M.incr m_runs;
  match Fault.exhaust_fds () with
  | Some e -> Error (Exhausted e)
  | None -> (
  let n = Cdfg.n_ops cdfg in
  let facts = Op_facts.make cdfg mlib in
  let cycles = facts.cycles in
  let fc = frame_ctx cdfg mlib ~rate ~pipe_length facts in
  match initial_frames fc ~fixed:(Array.make n None) with
  | None ->
      Error
        (Infeasible
           (Printf.sprintf
              "FDS: no schedule of pipe length %d at initiation rate %d"
              pipe_length rate))
  | Some first ->
      (* The frames after the last placement, and a spare state a
         tentative placement is propagated in. *)
      let cur = ref first and spare = ref (new_state n) in
      let fixed = Array.make n false in
      let fo = make_forces cdfg facts ~rate in
      let lb = fo.lb and ub = fo.ub in
      let result = ref None in
      (try
         while !result = None do
           Budget.spend_pass budget;
           refresh fo !cur ~ub_of:(ub_of fc);
           let unplaced =
             List.filter
               (fun op -> (not fixed.(op)) && ub.(op) > lb.(op))
               (Cdfg.ops cdfg)
           in
           if unplaced = [] then begin
             (* Everything pinned or single-step; materialize the schedule. *)
             let sched = Schedule.create ~facts cdfg mlib ~rate in
             let finish = Array.make n 0 in
             List.iter
               (fun v ->
                 let dv = facts.delay.(v) in
                 if cycles.(v) > 1 then finish.(v) <- 0
                 else begin
                   let offset =
                     List.fold_left
                       (fun acc p ->
                         if lb.(p) = lb.(v) && lb.(p) + cycles.(p) > lb.(v)
                         then max acc finish.(p)
                         else acc)
                       0 facts.preds.(v)
                   in
                   if offset + dv > fc.stage then raise (Chaining v);
                   finish.(v) <- offset + dv
                 end)
               facts.topo;
             for v = 0 to n - 1 do
               Schedule.set sched v ~cstep:lb.(v) ~finish_ns:finish.(v)
             done;
             result := Some (Ok sched)
           end
           else begin
             M.incr m_dg_builds;
             (* Candidate (op, step) with the lowest total force whose
                fixing keeps the frames consistent.  Each candidate is
                charged one pass, whether its forces are computed or
                memoized. *)
             let candidates = ref [] in
             List.iter
               (fun op ->
                 for s = lb.(op) to ub.(op) do
                   Budget.spend_pass budget;
                   candidates := (candidate_force fo op s, op, s) :: !candidates
                 done)
               unplaced;
             let rec try_fix = function
               | [] ->
                   result :=
                     Some
                       (Error
                          (Infeasible
                             "FDS: every candidate assignment is infeasible"))
               | (_, op, s) :: rest ->
                   let tried = !spare in
                   blit_state ~src:!cur ~dst:tried;
                   if propagate fc tried (fun () -> clamp fc tried op s)
                   then begin
                     M.incr m_placements;
                     if Mcs_obs.Events.on () then
                       Mcs_obs.Events.emit ~cat:"fds" "placement"
                         ~args:
                           [
                             ("op", Mcs_obs.Events.Int op);
                             ("cstep", Mcs_obs.Events.Int s);
                           ];
                     fixed.(op) <- true;
                     spare := !cur;
                     cur := tried
                   end
                   else begin
                     M.incr m_rejected_fixes;
                     try_fix rest
                   end
             in
             try_fix (List.sort compare_candidates !candidates)
           end
         done;
         match !result with Some r -> r | None -> assert false
       with
      | Chaining v -> Error (Chaining_overflow v)
      | Budget.Out_of_budget e -> Error (Exhausted e)))

let error_message cdfg = function
  | Infeasible msg -> msg
  | Chaining_overflow v ->
      Printf.sprintf "FDS: chaining overflow at %s" (Cdfg.name cdfg v)
  | Exhausted e -> "FDS: " ^ Budget.message e

let fu_requirements sched =
  let cdfg = Schedule.cdfg sched in
  let mlib = Schedule.mlib sched in
  let rate = Schedule.rate sched in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match Cdfg.node cdfg op with
      | Types.Io _ -> ()
      | Types.Func { optype; partition } ->
          let key = (partition, optype) in
          let l = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (op :: l))
    (Cdfg.ops cdfg);
  Hashtbl.fold
    (fun key ops acc ->
      let ops =
        List.sort
          (fun a b -> compare (Schedule.group sched a) (Schedule.group sched b))
          ops
      in
      (* First-fit onto wheels, growing the pool as needed. *)
      let wheels = ref [] in
      List.iter
        (fun op ->
          let group = Schedule.group sched op in
          let cycles = Timing.op_cycles cdfg mlib op in
          let rec place = function
            | [] ->
                let w = Alloc_wheel.create ~fus:1 ~rate in
                let (_ : int) = Alloc_wheel.assign w ~group ~cycles in
                wheels := !wheels @ [ w ]
            | w :: rest ->
                if Alloc_wheel.fit w ~group ~cycles <> None then
                  ignore (Alloc_wheel.assign w ~group ~cycles)
                else place rest
          in
          place !wheels)
        ops;
      (key, List.length !wheels) :: acc)
    groups []
  |> List.sort compare
