(* Reference for [List_sched.run]: the filter-based ready sweep the
   event-driven ready list replaced.  Every sweep of every control step
   rescans all operations (unscheduled, not fixed, past its floor, every
   predecessor placed, earliest start reached), sorts the survivors by
   (deadline, priority, op) and tries them in that order; the priorities
   come from a longest-path pass over a transposed [Digraph].  Instead of
   the scheduler's metrics it returns its own: the control steps it
   finished and the ready-list size of every sweep. *)

open Mcs_cdfg
module LS = Mcs_sched.List_sched
module Schedule = Mcs_sched.Schedule
module Op_facts = Mcs_sched.Op_facts
module Alloc_wheel = Mcs_sched.Alloc_wheel

type stats = { csteps : int; ready_sizes : int list }

exception No_fu of int * string

let priorities cdfg ~cycles =
  let g = Mcs_graph.Digraph.create (Cdfg.n_ops cdfg) in
  List.iter
    (fun { Types.e_src; e_dst; degree } ->
      if degree = 0 then Mcs_graph.Digraph.add_edge g ~src:e_src ~dst:e_dst)
    (Cdfg.edges cdfg);
  Mcs_graph.Digraph.longest_path_from g ~weight:(Array.get cycles)

let big = max_int / 4

let deadlines sched (facts : Op_facts.t) ~constraints =
  let dl = Array.make (Array.length facts.cycles) big in
  List.iter
    (fun (src, dst, bound) ->
      if Schedule.is_scheduled sched dst then
        dl.(src) <- min dl.(src) (Schedule.cstep sched dst + bound))
    constraints;
  List.iter
    (fun u ->
      List.iter
        (fun v -> dl.(u) <- min dl.(u) (dl.(v) - facts.cycles.(u)))
        facts.succs.(u))
    facts.rev_topo;
  dl

let run cdfg mlib cons ~rate ?(io_hook = LS.unconstrained_io) ?priority_bias
    ?min_cstep ?(fixed = []) () =
  let csteps = ref 0 and ready_sizes = ref [] in
  let sched = Schedule.create cdfg mlib ~rate in
  let facts = Schedule.facts sched in
  let constraints = Timing.max_time_constraints cdfg mlib ~rate in
  let fixed_at = Hashtbl.create 16 in
  let is_fixed = Array.make (Cdfg.n_ops cdfg) false in
  List.iter
    (fun (op, c) ->
      if c < 0 then invalid_arg "List_sched.run: fixed op at negative cstep";
      is_fixed.(op) <- true;
      Hashtbl.replace fixed_at c
        (op :: Option.value (Hashtbl.find_opt fixed_at c) ~default:[]))
    fixed;
  let max_csteps =
    (4 * Timing.critical_path_csteps cdfg mlib) + (4 * rate) + 16
  in
  let max_csteps = List.fold_left (fun m (_, c) -> max m c) max_csteps fixed in
  let wheels = Hashtbl.create 16 in
  let wheel partition optype =
    match Hashtbl.find_opt wheels (partition, optype) with
    | Some w -> w
    | None ->
        let fus = Constraints.fu_count cons ~partition ~optype in
        if fus = 0 then raise (No_fu (partition, optype));
        let w = Alloc_wheel.create ~fus ~rate in
        Hashtbl.add wheels (partition, optype) w;
        w
  in
  let prio = priorities cdfg ~cycles:facts.cycles in
  (match priority_bias with
  | Some bias -> Array.iteri (fun i b -> prio.(i) <- prio.(i) + b) bias
  | None -> ());
  let floor_of op = match min_cstep with Some f -> f.(op) | None -> 0 in
  let n = Cdfg.n_ops cdfg in
  let remaining = ref n in
  let failure = ref None in
  let fail kind reason at_cstep =
    if !failure = None then
      failure := Some { LS.kind; reason; at_cstep; partial = sched }
  in
  let s = ref 0 in
  (try
     while !remaining > 0 && !failure = None do
       if !s > max_csteps then
         fail (LS.Horizon max_csteps)
           (Printf.sprintf "no schedule within %d control steps" max_csteps)
           !s
       else begin
         let dl = deadlines sched facts ~constraints in
         for op = 0 to n - 1 do
           if (not (Schedule.is_scheduled sched op)) && dl.(op) < !s then
             fail
               (LS.Deadline_missed (op, dl.(op)))
               (Printf.sprintf
                  "maximum time constraint unsatisfiable: %s needed by cstep %d"
                  (Cdfg.name cdfg op) dl.(op))
               !s
         done;
         (match Hashtbl.find_opt fixed_at !s with
         | None -> ()
         | Some ops when !failure = None ->
             let place op =
               let cstep0, offset0 = Schedule.min_start_with_chaining sched op in
               if
                 cstep0 > !s
                 || not
                      (List.for_all (Schedule.is_scheduled sched)
                         facts.preds.(op))
               then false
               else begin
                 let offset_in = if cstep0 = !s then offset0 else 0 in
                 let cycles = facts.cycles.(op) in
                 let finish_ns =
                   if cycles > 1 then 0 else offset_in + facts.delay.(op)
                 in
                 let group = !s mod rate in
                 (match Cdfg.node cdfg op with
                 | Types.Func { optype; partition } ->
                     let w = wheel partition optype in
                     if Alloc_wheel.fit w ~group ~cycles = None then
                       invalid_arg
                         (Printf.sprintf
                            "List_sched.run: fixed operation %s does not fit \
                             its allocation wheel at control step %d"
                            (Cdfg.name cdfg op) !s);
                     let (_ : int) = Alloc_wheel.assign w ~group ~cycles in
                     ()
                 | Types.Io _ -> io_hook.LS.io_commit sched op ~cstep:!s);
                 Schedule.set sched op ~cstep:!s ~finish_ns;
                 decr remaining;
                 true
               end
             in
             let pending = ref ops and again = ref true in
             while !again do
               again := false;
               pending :=
                 List.filter
                   (fun op ->
                     if place op then begin
                       again := true;
                       false
                     end
                     else true)
                   !pending
             done;
             (match !pending with
             | [] -> ()
             | op :: _ ->
                 invalid_arg
                   (Printf.sprintf
                      "List_sched.run: fixed operation %s cannot be replayed \
                       at control step %d (unscheduled or later predecessor)"
                      (Cdfg.name cdfg op) !s))
         | Some _ -> ());
         if !failure = None then begin
           let progress = ref true in
           while !progress && !failure = None do
             progress := false;
             let ready =
               List.filter
                 (fun op ->
                   (not (Schedule.is_scheduled sched op))
                   && (not is_fixed.(op))
                   && floor_of op <= !s
                   && List.for_all (Schedule.is_scheduled sched)
                        facts.preds.(op)
                   && Schedule.earliest_start sched op <= !s)
                 (Cdfg.ops cdfg)
             in
             ready_sizes := List.length ready :: !ready_sizes;
             let ordered =
               List.sort
                 (fun a b ->
                   let c = compare dl.(a) dl.(b) in
                   if c <> 0 then c
                   else
                     let c = compare prio.(b) prio.(a) in
                     if c <> 0 then c else compare a b)
                 ready
             in
             List.iter
               (fun op ->
                 if !failure = None && not (Schedule.is_scheduled sched op)
                 then begin
                   let cstep0, offset0 =
                     Schedule.min_start_with_chaining sched op
                   in
                   if cstep0 <= !s then begin
                     let offset_in = if cstep0 = !s then offset0 else 0 in
                     let cycles = facts.cycles.(op) in
                     let finish_ns =
                       if cycles > 1 then 0 else offset_in + facts.delay.(op)
                     in
                     let group = !s mod rate in
                     match Cdfg.node cdfg op with
                     | Types.Func { optype; partition } ->
                         let w = wheel partition optype in
                         if Alloc_wheel.fit w ~group ~cycles <> None then begin
                           let (_ : int) =
                             Alloc_wheel.assign w ~group ~cycles
                           in
                           Schedule.set sched op ~cstep:!s ~finish_ns;
                           decr remaining;
                           progress := true
                         end
                     | Types.Io _ ->
                         if io_hook.LS.io_can sched op ~cstep:!s then begin
                           io_hook.LS.io_commit sched op ~cstep:!s;
                           Schedule.set sched op ~cstep:!s ~finish_ns;
                           decr remaining;
                           progress := true
                         end
                   end
                 end)
               ordered
           done;
           incr csteps;
           incr s
         end
       end
     done
   with No_fu (partition, optype) ->
     fail
       (LS.Missing_fu (partition, optype))
       (Printf.sprintf "no %s units allocated in partition %d" optype partition)
       !s);
  let outcome = match !failure with Some f -> Error f | None -> Ok sched in
  (outcome, { csteps = !csteps; ready_sizes = List.rev !ready_sizes })
