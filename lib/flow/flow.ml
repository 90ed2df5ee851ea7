open Mcs_cdfg
module C = Mcs_connect.Connection
module H = Mcs_connect.Heuristic
module R = Mcs_connect.Reassign
module LS = Mcs_sched.List_sched
module Sched = Mcs_sched.Schedule
module SP = Mcs_core.Simple_part
module SB = Mcs_core.Subbus
module Budget = Mcs_resilience.Budget

type name = Ch3 | Ch4 | Ch5 | Ch6

let all = [ Ch3; Ch4; Ch5; Ch6 ]

let name_to_string = function
  | Ch3 -> "ch3"
  | Ch4 -> "ch4"
  | Ch5 -> "ch5"
  | Ch6 -> "ch6"

let name_of_string = function
  | "ch3" -> Ok Ch3
  | "ch4" -> Ok Ch4
  | "ch5" -> Ok Ch5
  | "ch6" -> Ok Ch6
  | s -> Error (Printf.sprintf "unknown flow %S (ch3|ch4|ch5|ch6)" s)

type spec = {
  tag : string;
  cdfg : Cdfg.t;
  mlib : Module_lib.t;
  cons : Constraints.t;
  rate : int;
  pipe_length : int option;
  mode : C.mode;
}

let spec_of_design ?pipe_length ?mode ~flow (d : Benchmarks.design) ~rate =
  (* The one map from a flow name to its port mode: Ch. 3 is defined on
     dedicated unidirectional ports and Ch. 6 on bidirectional ones; Ch. 4
     and Ch. 5 take [mode], by default as their experiments ran. *)
  let mode =
    match (flow, mode) with
    | Ch3, _ -> C.Unidir
    | Ch6, _ -> C.Bidir
    | Ch4, m -> Option.value m ~default:C.Unidir
    | Ch5, m -> Option.value m ~default:C.Bidir
  in
  let cons =
    match mode with
    | C.Unidir -> Benchmarks.constraints_for d ~rate
    | C.Bidir -> Benchmarks.constraints_for_bidir d ~rate
  in
  {
    tag = d.Benchmarks.tag;
    cdfg = d.Benchmarks.cdfg;
    mlib = d.Benchmarks.mlib;
    cons;
    rate;
    pipe_length;
    mode;
  }

type policy = {
  budget : Budget.t;
  fallback : bool;
  refine : int;
  arith : Mcs_ilp.Fsimplex.arith;
}

let default_policy =
  {
    budget = Budget.unlimited;
    fallback = true;
    refine = 0;
    arith = Mcs_ilp.Fsimplex.arith_of_env ();
  }

type result = {
  flow : name;
  tag : string;
  rate : int;
  mode : C.mode;
  schedule : Sched.t;
  connection : Artifact.connection;
  pins : (int * int) list;
  fus : ((int * string) * int) list;
  pipe_length : int;
  attempts : int;
  diags : Diag.t list;
  degraded : string list;
}

let pins_of ~n_partitions (c : Artifact.connection) =
  match c with
  | Artifact.Bundles links ->
      Mcs_connect.Pins.tally ~n_partitions
        (List.map
           (fun (b : SP.Theorem31.bundle) ->
             ((match b.owner with `Out q | `In q -> q), b.wires))
           links)
  | Artifact.Buses { conn; _ } -> Mcs_connect.Pins.of_connection conn
  | Artifact.Subbuses { buses; _ } ->
      Mcs_connect.Pins.tally ~n_partitions
        (List.concat_map (fun (rb : SB.real_bus) -> rb.ports) buses)

let fus_of_constraints cdfg mlib cons =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun ty ->
          let n = Constraints.fu_count cons ~partition:p ~optype:ty in
          if n > 0 then Some ((p, ty), n) else None)
        (Module_lib.optypes mlib))
    (Mcs_util.Listx.range 1 (Cdfg.n_partitions cdfg + 1))

let pins_total r = Mcs_util.Listx.sum snd r.pins
let fus_total r = Mcs_util.Listx.sum snd r.fus
let clean r = not (List.exists Diag.is_error r.diags)
let is_degraded r = r.degraded <> []

let ( let* ) = Result.bind

let assemble ~flow (s : spec) ~schedule ~connection ~fus =
  {
    flow;
    tag = s.tag;
    rate = s.rate;
    mode = s.mode;
    schedule;
    connection;
    pins = pins_of ~n_partitions:(Cdfg.n_partitions s.cdfg) connection;
    fus;
    pipe_length = Sched.pipe_length schedule;
    attempts = 0;
    (* filled in by [run] *)
    diags = [];
    degraded = [];
  }

let diag_of_ls_failure ~phase (f : LS.failure) =
  let code =
    match f.LS.kind with
    | LS.Exhausted _ -> Diag.Exhausted
    | LS.Horizon _ | LS.Deadline_missed _ | LS.Missing_fu _ ->
        Diag.Unschedulable
  in
  Diag.error ~code ~phase
    ~csteps:[ f.LS.at_cstep ]
    "scheduling failed at control step %d: %s" f.LS.at_cstep f.LS.reason

let is_exhausted (d : Diag.t) = d.Diag.code = Diag.Exhausted

(* The terminal rung shared by the resource-constrained flows: schedule
   without any communication hook (functional units and recursions only,
   which list scheduling handles in polynomial time), then give every
   transfer dedicated wires by the constructive proof of Theorem 3.1 and
   verify the result — conflict freedom by replay, pin usage against the
   budgets (the hook normally guarantees the latter; here nothing does). *)
let dedicated_bus_fallback pass ~flow (s : spec) =
  let fp = name_to_string flow in
  Pass.attempt pass;
  let* schedule =
    Pass.phase pass "schedule-fallback"
      ~artifact:(fun sch -> Artifact.Schedule sch)
      (fun () ->
        match LS.run s.cdfg s.mlib s.cons ~rate:s.rate () with
        | Ok sch -> Ok sch
        | Error f -> Error (diag_of_ls_failure ~phase:(fp ^ ".schedule-fallback") f))
  in
  let* links =
    Pass.phase pass "connect-fallback"
      ~artifact:(fun links -> Artifact.Connection (Artifact.Bundles links))
      (fun () ->
        let phase = fp ^ ".connect-fallback" in
        let links = SP.Theorem31.connect schedule in
        match SP.Theorem31.check schedule links with
        | Error m ->
            Error
              (Diag.error ~code:Diag.Connection_conflict ~phase
                 "Theorem 3.1 connection check failed: %s" m)
        | Ok () -> (
            let used =
              pins_of ~n_partitions:(Cdfg.n_partitions s.cdfg)
                (Artifact.Bundles links)
            in
            match
              List.filter (fun (p, n) -> n > Constraints.pins s.cons p) used
            with
            | [] -> Ok links
            | over ->
                Error
                  (Diag.error ~code:Diag.Pin_budget_overflow ~phase
                     ~partitions:(List.map fst over)
                     "dedicated-bus fallback needs more pins than budgeted \
                      on partition(s) %s"
                     (String.concat ", "
                        (List.map (fun (p, _) -> string_of_int p) over)))))
  in
  Ok
    (assemble ~flow s ~schedule ~connection:(Artifact.Bundles links)
       ~fus:(fus_of_constraints s.cdfg s.mlib s.cons))

(* ---- Chapter 3: simple partitioning ---- *)

let run_ch3 pass policy (s : spec) =
  Pass.attempt pass;
  let* () =
    Pass.phase pass "validate" (fun () ->
        match SP.violations s.cdfg with
        | [] -> Ok ()
        | v :: _ ->
            Error
              (Diag.error ~code:Diag.Invalid_input ~phase:"ch3.validate"
                 "partitioning is not simple: %s" v))
  in
  let scheduled =
    Pass.phase pass "schedule"
      ~artifact:(fun sch -> Artifact.Schedule sch)
      (fun () ->
        let io_hook =
          SP.hook ~budget:policy.budget ~arith:policy.arith s.cdfg s.cons
            ~rate:s.rate
        in
        match
          LS.run ~budget:policy.budget s.cdfg s.mlib s.cons ~rate:s.rate
            ~io_hook ()
        with
        | Ok sch -> Ok sch
        | Error f -> Error (diag_of_ls_failure ~phase:"ch3.schedule" f))
  in
  match scheduled with
  | Error d when is_exhausted d && policy.fallback && not (Pass.check_failed pass) ->
      (* Ladder: the pin-allocation ILP ran out of budget.  Schedule
         without the checker, then let Theorem 3.1 construct and verify
         the connection — checked, or a typed diagnostic. *)
      Pass.degrade pass ~phase:"ch3.schedule"
        "pin-allocation ILP budget exhausted: rescheduled without the \
         checker, dedicated buses by Theorem 3.1";
      dedicated_bus_fallback pass ~flow:Ch3 s
  | Error d -> Error d
  | Ok schedule ->
      let* links =
        Pass.phase pass "connect"
          ~artifact:(fun links -> Artifact.Connection (Artifact.Bundles links))
          (fun () ->
            let links = SP.Theorem31.connect schedule in
            match SP.Theorem31.check schedule links with
            | Ok () -> Ok links
            | Error m ->
                Error
                  (Diag.error ~code:Diag.Connection_conflict
                     ~phase:"ch3.connect"
                     "Theorem 3.1 connection check failed: %s" m))
      in
      Ok
        (assemble ~flow:Ch3 s ~schedule ~connection:(Artifact.Bundles links)
           ~fus:(fus_of_constraints s.cdfg s.mlib s.cons))

(* ---- Chapter 4: connection synthesis before scheduling ---- *)

let run_ch4 pass policy (s : spec) =
  let budget = policy.budget in
  (* After each connection attempt: dynamic-reassignment scheduling over
     the synthesized connection, assembly. *)
  let finish conn initial =
    let dyn = R.create ~budget s.cdfg conn ~rate:s.rate ~initial ~dynamic:true in
    let* schedule =
      Pass.phase pass "schedule"
        ~artifact:(fun sch -> Artifact.Schedule sch)
        (fun () ->
          match
            LS.run ~budget s.cdfg s.mlib s.cons ~rate:s.rate
              ~io_hook:(R.hook dyn) ()
          with
          | Ok sch -> Ok sch
          | Error f -> Error (diag_of_ls_failure ~phase:"ch4.schedule" f))
    in
    let connection =
      Artifact.Buses
        {
          conn;
          initial;
          assignment = R.final_assignment dyn;
          allocation = R.allocation_table dyn;
        }
    in
    Ok
      (assemble ~flow:Ch4 s ~schedule ~connection
         ~fus:(fus_of_constraints s.cdfg s.mlib s.cons))
  in
  let attempt_cap cap =
    Pass.attempt pass;
    let* res =
      Pass.phase pass "connect"
        ~artifact:(fun (r : H.result) ->
          Artifact.Connection
            (Artifact.Buses
               {
                 conn = r.H.conn;
                 initial = r.H.assign;
                 assignment = r.H.assign;
                 allocation = [];
               }))
        (fun () ->
          match
            H.search ~budget s.cdfg s.cons ~rate:s.rate ~mode:s.mode
              ~slot_cap:cap ~branching:2 ()
          with
          | Ok r -> Ok r
          | Error (H.Exhausted _ as e) ->
              Error
                (Diag.error ~code:Diag.Exhausted ~phase:"ch4.connect" "%s"
                   (H.error_message e))
          | Error (H.Infeasible as e) ->
              Error
                (Diag.error ~code:Diag.No_connection ~phase:"ch4.connect" "%s"
                   (H.error_message e)))
    in
    finish res.H.conn res.H.assign
  in
  (* The first (loosest-cap) failure names the real obstacle; lower-cap
     retries only trade pins for bandwidth.  Budget exhaustion anywhere in
     the sweep ends it: later caps would only spend budget that is gone. *)
  let rec try_cap cap first =
    if cap < 1 then
      Error
        (match first with
        | Some d ->
            Diag.error ~code:d.Diag.code ~phase:"ch4"
              "no schedulable interchip connection found (first: %s)"
              d.Diag.message
        | None ->
            Diag.error ~code:Diag.No_connection ~phase:"ch4"
              "no schedulable interchip connection found")
    else
      match attempt_cap cap with
      | Ok r -> Ok r
      | Error d ->
          if Pass.check_failed pass then Error d
          else if is_exhausted d then
            if policy.fallback then begin
              Pass.degrade pass ~phase:"ch4.connect"
                "heuristic connection search budget exhausted: dedicated \
                 buses by Theorem 3.1";
              dedicated_bus_fallback pass ~flow:Ch4 s
            end
            else Error d
          else try_cap (cap - 1) (Some (Option.value first ~default:d))
  in
  try_cap s.rate None

(* ---- Chapter 5: scheduling before connection synthesis ---- *)

let run_ch5 pass policy (s : spec) =
  Pass.attempt pass;
  let pl =
    match s.pipe_length with
    | Some pl -> pl
    | None -> Timing.critical_path_csteps s.cdfg s.mlib
  in
  let scheduled =
    Pass.phase pass "schedule"
      ~artifact:(fun sch -> Artifact.Schedule sch)
      (fun () ->
        match
          Mcs_sched.Fds.run ~budget:policy.budget s.cdfg s.mlib ~rate:s.rate
            ~pipe_length:pl ()
        with
        | Ok sch -> Ok sch
        | Error e ->
            let code =
              match e with
              | Mcs_sched.Fds.Exhausted _ -> Diag.Exhausted
              | Mcs_sched.Fds.Infeasible _
              | Mcs_sched.Fds.Chaining_overflow _ ->
                  Diag.Unschedulable
            in
            Error
              (Diag.error ~code ~phase:"ch5.schedule" "%s"
                 (Mcs_sched.Fds.error_message s.cdfg e)))
  in
  let* schedule =
    match scheduled with
    | Ok sch -> Ok sch
    | Error d when is_exhausted d && policy.fallback && not (Pass.check_failed pass) ->
        (* Ladder: force-directed scheduling ran out of budget; list
           scheduling under the same resource tables is the cheap rung. *)
        Pass.degrade pass ~phase:"ch5.schedule"
          "force-directed scheduling budget exhausted: list scheduling";
        Pass.attempt pass;
        Pass.phase pass "schedule-fallback"
          ~artifact:(fun sch -> Artifact.Schedule sch)
          (fun () ->
            match LS.run s.cdfg s.mlib s.cons ~rate:s.rate () with
            | Ok sch -> Ok sch
            | Error f ->
                Error (diag_of_ls_failure ~phase:"ch5.schedule-fallback" f))
    | Error d -> Error d
  in
  let* conn, assignment =
    Pass.phase pass "connect"
      ~artifact:(fun (conn, assignment) ->
        Artifact.Connection
          (Artifact.Buses
             { conn; initial = assignment; assignment; allocation = [] }))
      (fun () ->
        let cls =
          try Mcs_core.Post_connect.cliques ~budget:policy.budget schedule ~mode:s.mode
          with Budget.Out_of_budget _ when policy.fallback ->
            (* Ladder: keep the unmerged supernodes — every one a valid
               clique, just more buses (and pins) than the merged optimum. *)
            Pass.degrade pass ~phase:"ch5.connect"
              "clique-merging budget exhausted: unmerged supernode cliques";
            Mcs_core.Post_connect.cliques_trivial schedule
        in
        Ok (Mcs_core.Post_connect.connection_of_cliques s.cdfg ~mode:s.mode cls))
  in
  Ok
    (assemble ~flow:Ch5 s ~schedule
       ~connection:
         (Artifact.Buses
            { conn; initial = assignment; assignment; allocation = [] })
       ~fus:(Mcs_sched.Fds.fu_requirements schedule))

(* ---- Chapter 6: sub-bus sharing ---- *)

let run_ch6 pass policy (s : spec) =
  let budget = policy.budget in
  let attempt_cap cap =
    Pass.attempt pass;
    let* ra =
      Pass.phase pass "connect"
        ~artifact:(fun (real, assignment) ->
          Artifact.Connection
            (Artifact.Subbuses
               {
                 buses = real;
                 initial = assignment;
                 assignment;
                 allocation = [];
               }))
        (fun () ->
          match SB.search ~budget s.cdfg s.cons ~rate:s.rate ~slot_cap:cap () with
          | Ok ra -> Ok ra
          | Error m ->
              Error
                (Diag.error ~code:Diag.No_connection ~phase:"ch6.connect" "%s"
                   m))
    in
    Pass.phase pass "schedule"
      ~artifact:(fun (t : SB.t) -> Artifact.Schedule t.SB.schedule)
      (fun () ->
        match
          SB.schedule_over ~budget s.cdfg s.mlib s.cons ~rate:s.rate
            ~dynamic:true ra
        with
        | Ok t -> Ok t
        | Error m ->
            Error
              (Diag.error ~code:Diag.Unschedulable ~phase:"ch6.schedule" "%s"
                 m))
  in
  (* Pin minimization is Chapter 6's whole point: sweep the per-bus value
     cap and keep the schedulable result with fewest pins (shorter pipe
     breaks ties) — unless a Strict checker aborted, which ends the run.
     Budget exhaustion truncates the sweep (remaining caps would only
     spend budget that is gone) but keeps what it already produced. *)
  let rec sweep cap acc =
    if cap < 1 then Ok (acc, None)
    else
      match attempt_cap cap with
      | Ok t -> sweep (cap - 1) (t :: acc)
      | Error d ->
          if Pass.check_failed pass then Error d
          else if is_exhausted d then Ok (acc, Some d)
          else sweep (cap - 1) acc
  in
  let* candidates, exhausted = sweep s.rate [] in
  (match exhausted with
  | Some _ when candidates <> [] ->
      Pass.degrade pass ~phase:"ch6.connect"
        "slot-cap sweep budget exhausted: kept the best completed cap"
  | _ -> ());
  let total t = Mcs_util.Listx.sum snd t.SB.pins in
  match
    Mcs_util.Listx.min_by
      (fun t -> (1000 * total t) + Sched.pipe_length t.SB.schedule)
      candidates
  with
  | None -> (
      match exhausted with
      | Some d when policy.fallback ->
          Pass.degrade pass ~phase:"ch6.connect"
            (Printf.sprintf
               "sub-bus search budget exhausted (%s): dedicated buses by \
                Theorem 3.1"
               d.Diag.message);
          dedicated_bus_fallback pass ~flow:Ch6 s
      | Some d -> Error d
      | None ->
          Error
            (Diag.error ~code:Diag.No_connection ~phase:"ch6"
               "no schedulable sub-bus connection found at any slot cap"))
  | Some best ->
      Ok
        (assemble ~flow:Ch6 s ~schedule:best.SB.schedule
           ~connection:
             (Artifact.Subbuses
                {
                  buses = best.SB.real_buses;
                  initial = best.SB.initial_assignment;
                  assignment = best.SB.final_assignment;
                  allocation = best.SB.allocation;
                })
           ~fus:(fus_of_constraints s.cdfg s.mlib s.cons))

(* ---- the static-assignment baseline ---- *)

(* The paper's comparison (Chs. 4 and 6): the same connection scheduled
   again with every transfer held to its initially assigned bus or
   slice.  Only reports print it, so no flow computes it. *)
let static_baseline (s : spec) (r : result) =
  let pipe = function
    | Ok sch -> Some (Sched.pipe_length sch)
    | Error _ -> None
  in
  try
    match (r.flow, r.connection) with
    | Ch4, Artifact.Buses { conn; initial; _ } ->
        Mcs_obs.Trace.with_span "flow.ch4.baseline" (fun () ->
            let st = R.create s.cdfg conn ~rate:s.rate ~initial ~dynamic:false in
            pipe
              (LS.run s.cdfg s.mlib s.cons ~rate:s.rate ~io_hook:(R.hook st) ()))
    | Ch6, Artifact.Subbuses { buses; initial; _ } ->
        Mcs_obs.Trace.with_span "flow.ch6.baseline" (fun () ->
            pipe
              (Result.map
                 (fun (t : SB.t) -> t.SB.schedule)
                 (SB.schedule_over s.cdfg s.mlib s.cons ~rate:s.rate
                    ~dynamic:false (buses, initial))))
    | _ -> None
  with Invalid_argument _ -> None

(* ---- the unified entry point ---- *)

let m_runs = Mcs_obs.Metrics.counter "flow.runs"
let m_final_violations = Mcs_obs.Metrics.counter "flow.check.violations"

let run ?(level = Pass.Off) ?checker ?check_result ?dump
    ?(policy = default_policy) name spec =
  Mcs_obs.Metrics.incr m_runs;
  let pass = Pass.create ~level ?checker ?dump ~flow:(name_to_string name) () in
  let drive =
    match name with
    | Ch3 -> run_ch3
    | Ch4 -> run_ch4
    | Ch5 -> run_ch5
    | Ch6 -> run_ch6
  in
  let guarded () =
    (* The flow-level safety net of the resilience invariant: whatever a
       solver lets escape, the caller sees a typed diagnostic. *)
    try drive pass policy spec
    with Budget.Out_of_budget e ->
      Error
        (Diag.error ~code:Diag.Exhausted
           ~phase:(name_to_string name)
           "%s" (Budget.message e))
  in
  match
    Mcs_obs.Log.with_field "flow" (name_to_string name) (fun () ->
        Mcs_obs.Trace.with_span ("flow." ^ name_to_string name) guarded)
  with
  | Error d -> Error d
  | Ok r -> (
      let r =
        {
          r with
          attempts = Pass.attempts pass;
          degraded = Pass.degraded pass;
        }
      in
      let final_diags =
        match (level, check_result) with
        | Pass.Off, _ | _, None -> []
        | (Pass.Warn | Pass.Strict), Some check ->
            let ds = check r in
            let errs = List.length (List.filter Diag.is_error ds) in
            if errs > 0 then Mcs_obs.Metrics.incr m_final_violations ~n:errs;
            ds
      in
      let diags = Pass.diags pass @ final_diags in
      let r = { r with diags } in
      match level with
      | Pass.Strict when not (clean r) ->
          Error (List.find Diag.is_error diags)
      | _ -> Ok r)
