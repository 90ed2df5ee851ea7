open Mcs_cdfg
module M = Mcs_obs.Metrics
module Budget = Mcs_resilience.Budget

let m_runs = M.counter "ls.runs"
let m_csteps = M.counter "ls.csteps"
let m_io_tests = M.counter "ls.io_feasibility_tests"
let g_ready_peak = M.gauge "ls.ready_peak"

let h_ready_size =
  M.histogram "ls.ready_size" ~buckets:[| 0; 1; 2; 4; 8; 16; 32; 64 |]

type io_hook = {
  io_can : Schedule.t -> Types.op_id -> cstep:int -> bool;
  io_commit : Schedule.t -> Types.op_id -> cstep:int -> unit;
}

let unconstrained_io =
  { io_can = (fun _ _ ~cstep:_ -> true); io_commit = (fun _ _ ~cstep:_ -> ()) }

type kind =
  | Horizon of int
  | Deadline_missed of Types.op_id * int
  | Missing_fu of int * string
  | Exhausted of Budget.exhausted

type failure = {
  kind : kind;
  reason : string;
  at_cstep : int;
  partial : Schedule.t;
}

(* A missing functional-unit allocation is detected deep inside the wheel
   lookup; carried to the boundary as an exception so it becomes a typed
   [failure] instead of the [Invalid_argument] it used to escape as. *)
exception No_fu of int * string

let longest_paths cdfg ~cycles =
  let n = Cdfg.n_ops cdfg in
  let g = Mcs_graph.Digraph.create n in
  List.iter
    (fun { Types.e_src; e_dst; degree } ->
      if degree = 0 then Mcs_graph.Digraph.add_edge g ~src:e_src ~dst:e_dst)
    (Cdfg.edges cdfg);
  Mcs_graph.Digraph.longest_path_from g ~weight:(Array.get cycles)

let priorities cdfg mlib =
  longest_paths cdfg
    ~cycles:(Array.init (Cdfg.n_ops cdfg) (Timing.op_cycles cdfg mlib))

let big = max_int / 4

(* Deadlines induced by recursive max-time constraints against already
   scheduled consumers, propagated backwards through degree-0 edges.
   [constraints] are the run's [Timing.max_time_constraints]. *)
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
        (fun v ->
          (* u must have finished before v starts (chaining would only give
             one step of slack back; stay conservative). *)
          dl.(u) <- min dl.(u) (dl.(v) - facts.cycles.(u)))
        facts.succs.(u))
    facts.rev_topo;
  dl

let run ?(budget = Budget.unlimited) cdfg mlib cons ~rate ?max_csteps
    ?(io_hook = unconstrained_io) ?priority_bias ?min_cstep ?(fixed = []) () =
  M.incr m_runs;
  let sched = Schedule.create cdfg mlib ~rate in
  let facts = Schedule.facts sched in
  let constraints = Timing.max_time_constraints cdfg mlib ~rate in
  (* Fixed placements are replayed step by step as the main loop reaches
     their control step, so they charge the allocation wheels and the
     [io_hook] exactly like free operations — the free candidates then
     compete only for what is genuinely left. *)
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
    match max_csteps with
    | Some m -> m
    | None -> (4 * Timing.critical_path_csteps cdfg mlib) + (4 * rate) + 16
  in
  let max_csteps = List.fold_left (fun m (_, c) -> max m c) max_csteps fixed in
  (* One allocation wheel set per (partition, optype). *)
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
  let prio = longest_paths cdfg ~cycles:facts.cycles in
  (match priority_bias with
  | Some bias ->
      Array.iteri (fun i b -> prio.(i) <- prio.(i) + b) bias
  | None -> ());
  let floor_of op =
    match min_cstep with Some f -> f.(op) | None -> 0
  in
  let n = Cdfg.n_ops cdfg in
  let remaining = ref n in
  let failure = ref None in
  let fail kind reason at_cstep =
    if !failure = None then
      failure := Some { kind; reason; at_cstep; partial = sched }
  in
  (* The deadlines move only when a constrained consumer is scheduled, and
     operations are never unscheduled: recompute them when the count of
     scheduled consumers grows. *)
  let dl = ref [||] and consumers_seen = ref (-1) in
  let current_deadlines () =
    let scheduled =
      List.fold_left
        (fun k (_, dst, _) ->
          if Schedule.is_scheduled sched dst then k + 1 else k)
        0 constraints
    in
    if scheduled <> !consumers_seen then begin
      dl := deadlines sched facts ~constraints;
      consumers_seen := scheduled
    end;
    !dl
  in
  let s = ref 0 in
  (try
  while !remaining > 0 && !failure = None do
    Budget.spend_pass budget;
    if !s > max_csteps then
      fail (Horizon max_csteps)
        (Printf.sprintf "no schedule within %d control steps" max_csteps)
        !s
    else begin
      let dl = current_deadlines () in
      (* Deadline already missed? *)
      for op = 0 to n - 1 do
        if (not (Schedule.is_scheduled sched op)) && dl.(op) < !s then
          fail
            (Deadline_missed (op, dl.(op)))
            (Printf.sprintf
               "maximum time constraint unsatisfiable: %s needed by cstep %d"
               (Cdfg.name cdfg op) dl.(op))
            !s
      done;
      (* Replay this step's fixed placements first: they own their
         resources before any free candidate is considered.  The inner
         fixpoint resolves same-step chains among fixed operations (a
         chained consumer only places after its producer has). *)
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
              | Types.Io _ -> io_hook.io_commit sched op ~cstep:!s);
              Schedule.set sched op ~cstep:!s ~finish_ns;
              decr remaining;
              true
            end
          in
          let pending = ref ops and again = ref true in
          while !again do
            again := false;
            pending :=
              List.filter (fun op -> if place op then (again := true; false) else true) !pending
          done;
          (match !pending with
          | [] -> ()
          | op :: _ ->
              invalid_arg
                (Printf.sprintf
                   "List_sched.run: fixed operation %s cannot be replayed at \
                    control step %d (unscheduled or later predecessor)"
                   (Cdfg.name cdfg op) !s))
      | Some _ -> ());
      if !failure = None then begin
        (* Operations scheduled early in this step can enable chained
           successors in the same step, so sweep until a fixpoint. *)
        let progress = ref true in
        while !progress && !failure = None do
          progress := false;
          let ready =
            List.filter
              (fun op ->
                (not (Schedule.is_scheduled sched op))
                && (not is_fixed.(op))
                && floor_of op <= !s
                && List.for_all (Schedule.is_scheduled sched) facts.preds.(op)
                && Schedule.earliest_start sched op <= !s)
              (Cdfg.ops cdfg)
          in
          let n_ready = List.length ready in
          M.observe h_ready_size n_ready;
          M.set_max g_ready_peak (float_of_int n_ready);
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
              if !failure = None && not (Schedule.is_scheduled sched op) then begin
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
                        let (_ : int) = Alloc_wheel.assign w ~group ~cycles in
                        Schedule.set sched op ~cstep:!s ~finish_ns;
                        decr remaining;
                        progress := true
                      end
                  | Types.Io _ ->
                      M.incr m_io_tests;
                      if io_hook.io_can sched op ~cstep:!s then begin
                        io_hook.io_commit sched op ~cstep:!s;
                        Schedule.set sched op ~cstep:!s ~finish_ns;
                        decr remaining;
                        progress := true
                      end
                end
              end)
            ordered
        done;
        M.incr m_csteps;
        incr s
      end
    end
  done
  with
  | No_fu (partition, optype) ->
      fail
        (Missing_fu (partition, optype))
        (Printf.sprintf "no %s units allocated in partition %d" optype
           partition)
        !s
  | Budget.Out_of_budget e ->
      (* Raised by our own pass budget or from inside an [io_hook] (the
         pin-ILP feasibility query, bus reassignment matching). *)
      fail (Exhausted e) ("list scheduling: " ^ Budget.message e) !s);
  match !failure with
  | Some f -> Error f
  | None -> Ok sched
