open Mcs_cdfg
module F = Mcs_flow.Flow
module Artifact = Mcs_flow.Artifact
module Diag = Mcs_flow.Diag
module Sched = Mcs_sched.Schedule
module LS = Mcs_sched.List_sched
module SP = Mcs_core.Simple_part
module R = Mcs_connect.Reassign
module B = Mcs_check.Bottleneck
module Budget = Mcs_resilience.Budget
module M = Mcs_obs.Metrics

let m_iters = M.counter "refine.iterations"
let m_accepted = M.counter "refine.accepted"
let m_rejected = M.counter "refine.rejected"

type iteration = {
  index : int;
  bottleneck : string;
  action : string;
  objective_before : int;
  objective_after : int option;
  accepted : bool;
  reason : string;
  pivots : int;
  nodes : int;
  wall_ms : float;
}

type outcome = {
  result : F.result;
  iterations : iteration list;
  improved : bool;
  fixed_point : bool;
  exhausted : bool;
}

(* The system-wide quality measure, identical to the Ch. 6 candidate
   ordering: pins dominate (the paper's whole objective), pipe length
   breaks ties. *)
let objective (r : F.result) = (1000 * F.pins_total r) + r.F.pipe_length

(* A move either produces a candidate result, or fails with a reason and
   a transient flag: transient failures (budget exhaustion in the slice)
   leave the move armed for a later, better-funded iteration; permanent
   ones kill it. *)
type move_failure = { why : string; transient : bool }

(* ---- move: re-climb the degradation ladder ---- *)

(* Re-run the whole flow with the ladder disabled ([fallback = false]) and
   the strict checker injected: either the slice affords the full-quality
   solve now, or the run fails typed and the move reports why. *)
let reclimb ~slice ~policy spec (r : F.result) =
  let policy' =
    { policy with F.budget = slice; F.fallback = false }
  in
  match
    Mcs_check.run ~level:Mcs_flow.Pass.Strict ~policy:policy' r.F.flow spec
  with
  | Ok r' -> Ok r'
  | Error d ->
      Error
        { why = Diag.message d; transient = d.Diag.code = Diag.Exhausted }

(* ---- move: freeze the prefix, re-schedule the tail ---- *)

(* Only the results whose scheduler/connection pair we can replay locally:
   Ch. 3 (pin-hook + Theorem 3.1 bundles) and Ch. 4 (bus reassignment over
   a fixed connection).  Ch. 5 derives its resources from the schedule and
   Ch. 6 owns a global slot-cap sweep — they re-climb instead. *)
let tail_applicable (r : F.result) =
  match (r.F.flow, r.F.connection) with
  | (F.Ch3 | F.Ch4), (Artifact.Bundles _ | Artifact.Buses _) -> true
  | _ -> false

(* Keep only the ladder history on a spliced candidate: phase-check
   diagnostics describe the old artifacts and would be stale. *)
let keep_history (r : F.result) =
  List.filter (fun (d : Diag.t) -> d.Diag.code = Diag.Degraded) r.F.diags

let splice spec (r : F.result) sch' conn' =
  {
    r with
    F.schedule = sch';
    connection = conn';
    pins = F.pins_of ~n_partitions:(Cdfg.n_partitions spec.F.cdfg) conn';
    pipe_length = Sched.pipe_length sch';
    diags = keep_history r;
  }

(* The trial set of the §5.3/§6.3 postponement trick, mechanized: trial
   [t] jitters the static priorities by a hash of [(t, op)] (no jitter at
   [t = 0]), enough to reorder ties and near-ties without drowning the
   critical path; even trials also hold the lower-priority half of the
   I/O operations back by [(t / 2) mod (rate + 1)] control steps, freeing
   early slots for the critical chains. *)
let trials = 12

let bias_for ~trial ~n =
  Array.init n (fun op ->
      if trial = 0 then 0
      else (Hashtbl.hash (trial, op) mod (2 * trial)) - trial)

(* The lower-priority half of the I/O operations: the ones even trials
   postpone. *)
let postponable cdfg mlib =
  let prio = LS.priorities cdfg mlib in
  let cutoff =
    List.nth (List.sort compare (Array.to_list prio)) (Cdfg.n_ops cdfg / 2)
  in
  Array.mapi (fun op p -> Cdfg.is_io cdfg op && p <= cutoff) prio

(* Freeze every operation finishing before the tail window as an exact
   replay ([LS.run ~fixed]), floor the window's operations at the cut (so
   a free placement can never steal a frozen operation's wheel or bus
   slot before it is replayed), and re-schedule the tail with the flow's
   own communication hook under each trial of the postponement trick;
   the best objective wins. *)
let resched_tail ~slice ~arith ~window spec (r : F.result) =
  let cdfg = spec.F.cdfg and mlib = spec.F.mlib and cons = spec.F.cons in
  let rate = spec.F.rate in
  let sch = r.F.schedule in
  let pl = r.F.pipe_length in
  let cut = max 0 (pl - window) in
  let fixed =
    List.filter_map
      (fun op ->
        if Sched.is_scheduled sch op && Sched.cstep sch op < cut then
          Some (op, Sched.cstep sch op)
        else None)
      (Cdfg.ops cdfg)
  in
  let n = Cdfg.n_ops cdfg in
  let postponable = postponable cdfg mlib in
  let try_once trial =
    let priority_bias = bias_for ~trial ~n in
    let min_cstep =
      Array.map
        (fun p ->
          if p && trial mod 2 = 0 then max cut ((trial / 2) mod (rate + 1))
          else cut)
        postponable
    in
    match r.F.connection with
    | Artifact.Bundles _ -> (
        let io_hook = SP.hook ~budget:slice ~arith cdfg cons ~rate in
        match
          LS.run ~budget:slice cdfg mlib cons ~rate ~io_hook ~priority_bias
            ~min_cstep ~fixed ()
        with
        | Error f -> Error f
        | Ok sch' -> (
            let links = SP.Theorem31.connect sch' in
            match SP.Theorem31.check sch' links with
            | Error _ -> Error { LS.kind = LS.Horizon 0; reason = "Theorem 3.1 replay failed"; at_cstep = 0; partial = sch' }
            | Ok () -> Ok (sch', Artifact.Bundles links)))
    | Artifact.Buses { conn; initial; assignment; _ } -> (
        (* With nothing frozen, re-run the flow's own dynamic reassignment
           from the connection's initial assignment.  With a frozen
           prefix, replay against the incumbent's final assignment,
           statically: the prefix then commits exactly as it originally
           did (the dynamic planner's conservative repack gate cannot
           refuse a known-feasible allocation), and tail operations keep
           their buses while the scheduler explores timing.  Remapping
           values across buses is the re-climb move's job. *)
        let dyn =
          if fixed = [] then
            R.create ~budget:slice cdfg conn ~rate ~initial ~dynamic:true
          else
            let pinned =
              List.map
                (fun (op, h) ->
                  match List.assoc_opt op assignment with
                  | Some h' -> (op, h')
                  | None -> (op, h))
                initial
            in
            R.create ~budget:slice cdfg conn ~rate ~initial:pinned
              ~dynamic:false
        in
        match
          LS.run ~budget:slice cdfg mlib cons ~rate ~io_hook:(R.hook dyn)
            ~priority_bias ~min_cstep ~fixed ()
        with
        | Error f -> Error f
        | Ok sch' ->
            Ok
              ( sch',
                Artifact.Buses
                  {
                    conn;
                    initial;
                    assignment = R.final_assignment dyn;
                    allocation = R.allocation_table dyn;
                  } ))
    | Artifact.Subbuses _ ->
        Error
          {
            LS.kind = LS.Horizon 0;
            reason = "tail re-scheduling does not apply to sub-bus results";
            at_cstep = 0;
            partial = sch;
          }
  in
  let candidates, failures =
    List.fold_left
      (fun (oks, errs) trial ->
        match try_once trial with
        | exception Invalid_argument m ->
            (oks, { why = m; transient = false } :: errs)
        | exception Budget.Out_of_budget e ->
            (oks, { why = Budget.message e; transient = true } :: errs)
        | Ok (sch', conn') -> (splice spec r sch' conn' :: oks, errs)
        | Error (f : LS.failure) ->
            let transient =
              match f.LS.kind with LS.Exhausted _ -> true | _ -> false
            in
            (oks, { why = f.LS.reason; transient } :: errs))
      ([], []) (Mcs_util.Listx.range 0 trials)
  in
  match Mcs_util.Listx.min_by objective candidates with
  | Some best -> Ok best
  | None -> (
      match failures with
      | f :: _ -> Error f
      | [] -> Error { why = "no trial ran"; transient = false })

(* ---- the driver ---- *)

let emit_iteration it =
  if Mcs_obs.Events.on () then
    Mcs_obs.Events.emit ~cat:"refine" "iteration"
      ~args:
        [
          ("index", Mcs_obs.Events.Int it.index);
          ("bottleneck", Mcs_obs.Events.Str it.bottleneck);
          ("action", Mcs_obs.Events.Str it.action);
          ("objective", Mcs_obs.Events.Int it.objective_before);
          ("accepted", Mcs_obs.Events.Bool it.accepted);
          ("pivots", Mcs_obs.Events.Int it.pivots);
        ]

let improve ~max_iters ?(policy = F.default_policy) (spec : F.spec)
    (r0 : F.result) =
  let no_op =
    {
      result = r0;
      iterations = [];
      improved = false;
      fixed_point = false;
      exhausted = false;
    }
  in
  if max_iters <= 0 then no_op
  else
    Mcs_obs.Trace.with_span "refine" @@ fun () ->
    let cdfg = spec.F.cdfg and mlib = spec.F.mlib and cons = spec.F.cons in
    let parent = policy.F.budget in
    let reclimb_dead = ref false in
    let tail_window = ref 0 in
    let tail_dead = ref false in
    let iters = ref [] in
    let r = ref r0 in
    let exhausted = ref false in
    let fixed_point = ref false in
    let i = ref 0 in
    while (not !exhausted) && (not !fixed_point) && !i < max_iters do
      incr i;
      (* Refine only while the deadline still has slack: a request about
         to expire gets its (degraded) answer instead of a late one. *)
      (match Budget.remaining_ms parent with
      | Some ms when ms < 2.0 -> exhausted := true
      | _ -> ());
      if not !exhausted then begin
        let bots = B.analyze cdfg cons !r in
        let move =
          List.find_map
            (fun (b : B.t) ->
              match b.B.kind with
              | B.Ladder _ when not !reclimb_dead -> Some (b, `Reclimb)
              | B.Critical_tail _ | B.Pin_pressure _ | B.Fu_slack _
                when (not !tail_dead) && tail_applicable !r ->
                  Some (b, `Tail)
              | _ -> None)
            bots
        in
        match move with
        | None -> fixed_point := true
        | Some (b, act) ->
            let t0 = Unix.gettimeofday () in
            let slice = Budget.slice parent in
            let before = objective !r in
            let action, attempt =
              match act with
              | `Reclimb ->
                  ( "reclimb",
                    fun () -> reclimb ~slice ~policy spec !r )
              | `Tail ->
                  let pl = (!r).F.pipe_length in
                  let w =
                    if !tail_window = 0 then max 2 (pl / 4) else !tail_window
                  in
                  tail_window := w;
                  ( Printf.sprintf "resched-tail:w%d" w,
                    fun () ->
                      resched_tail ~slice ~arith:policy.F.arith ~window:w spec
                        !r )
            in
            let outcome =
              try attempt () with
              | Budget.Out_of_budget e ->
                  Error { why = Budget.message e; transient = true }
              | Invalid_argument m | Failure m ->
                  Error { why = m; transient = false }
            in
            Budget.absorb parent slice;
            let pivots = Budget.spent_pivots slice
            and nodes = Budget.spent_nodes slice in
            let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
            let record ~objective_after ~accepted ~reason =
              let it =
                {
                  index = !i;
                  bottleneck = B.describe b;
                  action;
                  objective_before = before;
                  objective_after;
                  accepted;
                  reason;
                  pivots;
                  nodes;
                  wall_ms;
                }
              in
              M.incr m_iters;
              if accepted then M.incr m_accepted else M.incr m_rejected;
              emit_iteration it;
              iters := it :: !iters
            in
            let kill_move ~transient =
              if not transient then
                match act with
                | `Reclimb -> reclimb_dead := true
                | `Tail ->
                    (* Widen the window before giving up: a larger
                       subproblem sees more slack. *)
                    let pl = (!r).F.pipe_length in
                    if !tail_window >= pl then tail_dead := true
                    else tail_window := min pl (!tail_window * 2)
            in
            (match outcome with
            | Error f ->
                record ~objective_after:None ~accepted:false ~reason:f.why;
                kill_move ~transient:f.transient;
                if f.transient then begin
                  (* The slice exhausted; without wall slack left the
                     parent is done too. *)
                  match Budget.remaining_ms parent with
                  | Some ms when ms < 2.0 -> exhausted := true
                  | Some _ -> ()
                  | None ->
                      (* No deadline: a transient failure cannot get more
                         funding, treat the move as dead. *)
                      kill_move ~transient:false
                end
            | Ok cand ->
                let after = objective cand in
                let errs =
                  List.filter Diag.is_error
                    (Mcs_check.check_result cdfg mlib cons cand)
                in
                if errs <> [] then begin
                  record ~objective_after:(Some after) ~accepted:false
                    ~reason:
                      (Printf.sprintf "candidate fails strict check: %s"
                         (Diag.message (List.hd errs)));
                  kill_move ~transient:false
                end
                else if after < before then begin
                  record ~objective_after:(Some after) ~accepted:true
                    ~reason:"objective improved";
                  r := cand;
                  (* A new incumbent changes every bottleneck: re-arm. *)
                  tail_window := 0
                end
                else begin
                  record ~objective_after:(Some after) ~accepted:false
                    ~reason:"no objective improvement";
                  kill_move ~transient:false
                end)
      end
    done;
    {
      result = !r;
      iterations = List.rev !iters;
      improved = objective !r < objective r0;
      fixed_point = !fixed_point;
      exhausted = !exhausted;
    }
