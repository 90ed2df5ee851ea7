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

(* Longest path (in cycles) from each operation to any sink over the
   degree-0 edges: successors come first in reverse topological order. *)
let priorities_of (facts : Op_facts.t) =
  let prio = Array.make (Array.length facts.cycles) 0 in
  List.iter
    (fun v ->
      prio.(v) <-
        facts.cycles.(v)
        + List.fold_left (fun acc w -> max acc prio.(w)) 0 facts.succs.(v))
    facts.rev_topo;
  prio

let priorities cdfg mlib = priorities_of (Op_facts.make cdfg mlib)

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
  let prio = priorities_of facts in
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
  (* Event-driven readiness.  An operation's earliest start depends only
     on its predecessors' placements, which never change, so when its
     last predecessor is placed its release step [max floor earliest] is
     final.  It then waits in [bucket] for that step, or joins [incoming]
     if the step has been reached; [incoming] enters the pool at the next
     sweep, exactly when a rescan of every operation would first see it.
     Fixed operations are never pooled, but their replay releases their
     successors like any placement. *)
  let start = Array.make n (0, 0) in
  let waiting = Array.map List.length facts.preds in
  let bucket = Hashtbl.create 16 in
  let incoming = ref [] and pool = ref [] in
  let release op =
    if not is_fixed.(op) then begin
      let ((cstep0, _) as st) = Schedule.min_start_with_chaining sched op in
      start.(op) <- st;
      let r = max (floor_of op) cstep0 in
      if r <= !s then incoming := op :: !incoming
      else
        Hashtbl.replace bucket r
          (op :: Option.value (Hashtbl.find_opt bucket r) ~default:[])
    end
  in
  let place op ~finish_ns =
    Schedule.set sched op ~cstep:!s ~finish_ns;
    decr remaining;
    List.iter
      (fun w ->
        waiting.(w) <- waiting.(w) - 1;
        if waiting.(w) = 0 then release w)
      facts.succs.(op)
  in
  Array.iteri (fun op k -> if k = 0 then release op) waiting;
  (try
  while !remaining > 0 && !failure = None do
    Budget.spend_pass budget;
    if !s > max_csteps then
      fail (Horizon max_csteps)
        (Printf.sprintf "no schedule within %d control steps" max_csteps)
        !s
    else begin
      (match Hashtbl.find_opt bucket !s with
      | Some ops ->
          Hashtbl.remove bucket !s;
          incoming := List.rev_append ops !incoming
      | None -> ());
      let dl = current_deadlines () in
      (* Deadline already missed? *)
      if constraints <> [] then
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
          let replay op =
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
              place op ~finish_ns;
              true
            end
          in
          let pending = ref ops and again = ref true in
          while !again do
            again := false;
            pending :=
              List.filter (fun op -> if replay op then (again := true; false) else true) !pending
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
          let ready = List.rev_append !incoming !pool in
          incoming := [];
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
              if !failure = None then begin
                (* Released ops have every predecessor placed, so this is
                   their [min_start_with_chaining], at or before [!s]. *)
                let cstep0, offset0 = start.(op) in
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
                      place op ~finish_ns;
                      progress := true
                    end
                | Types.Io _ ->
                    M.incr m_io_tests;
                    if io_hook.io_can sched op ~cstep:!s then begin
                      io_hook.io_commit sched op ~cstep:!s;
                      place op ~finish_ns;
                      progress := true
                    end
              end)
            ordered;
          pool :=
            List.filter (fun op -> not (Schedule.is_scheduled sched op)) ordered
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
