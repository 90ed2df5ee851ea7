module M = Mcs_obs.Metrics

type level = Off | Warn | Strict
type 'a checker = phase:string -> 'a -> Diag.t list

type 'a t = {
  flow : string;
  lvl : level;
  checker : 'a checker option;
  mutable n_attempts : int;
  mutable collected : Diag.t list;  (* reverse emission order *)
  mutable failed_check : bool;
  mutable degraded_steps : string list;  (* reverse emission order *)
}

let m_phases = M.counter "flow.phases"
let m_violations = M.counter "flow.check.violations"
let m_aborts = M.counter "flow.check.aborts"

let create ?(level = Off) ?checker ~flow () =
  {
    flow;
    lvl = level;
    checker;
    n_attempts = 0;
    collected = [];
    failed_check = false;
    degraded_steps = [];
  }

let level t = t.lvl
let attempt t = t.n_attempts <- t.n_attempts + 1
let attempts t = t.n_attempts
let record t d = t.collected <- d :: t.collected
let diags t = List.rev t.collected
let check_failed t = t.failed_check

let m_degraded = M.counter "flow.degraded_steps"

let degrade t ~phase note =
  t.degraded_steps <- note :: t.degraded_steps;
  M.incr m_degraded;
  if Mcs_obs.Events.on () then
    Mcs_obs.Events.emit ~cat:"ladder" "degrade"
      ~args:
        [
          ("flow", Mcs_obs.Events.Str t.flow);
          ("phase", Mcs_obs.Events.Str phase);
          ("note", Mcs_obs.Events.Str note);
        ];
  record t
    (Diag.warning
       ~data:[ ("step", note); ("rung", phase) ]
       ~code:Diag.Degraded ~phase "%s" note)

let degraded t = List.rev t.degraded_steps

let phase t name ?artifact f =
  let phase_id = t.flow ^ "." ^ name in
  M.incr m_phases;
  let guarded () =
    try f () with
    | Invalid_argument m | Failure m ->
        Error (Diag.error ~code:Diag.Internal ~phase:phase_id "%s" m)
    | Mcs_resilience.Budget.Out_of_budget e ->
        Error
          (Diag.error ~code:Diag.Exhausted ~phase:phase_id "%s"
             (Mcs_resilience.Budget.message e))
  in
  match Mcs_obs.Trace.with_span ("flow." ^ phase_id) guarded with
  | Error d -> Error d
  | Ok v -> (
      match artifact with
      | None -> Ok v
      | Some to_artifact -> (
          match (t.lvl, t.checker) with
          | Off, _ | _, None -> Ok v
          | (Warn | Strict), Some check ->
              let ds = check ~phase:phase_id (to_artifact v) in
              let errs = List.filter Diag.is_error ds in
              if errs <> [] then M.incr m_violations ~n:(List.length errs);
              List.iter (record t) ds;
              if t.lvl = Strict && errs <> [] then begin
                t.failed_check <- true;
                M.incr m_aborts;
                Error (List.hd errs)
              end
              else Ok v))
