open Mcs_cdfg
module Bottleneck = Bottleneck
module F = Mcs_flow.Flow
module Diag = Mcs_flow.Diag
module Artifact = Mcs_flow.Artifact
module Pass = Mcs_flow.Pass
module Sched = Mcs_sched.Schedule
module C = Mcs_connect.Connection
module SP = Mcs_core.Simple_part
module SB = Mcs_core.Subbus
module Listx = Mcs_util.Listx

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "off" | "0" | "none" -> Pass.Off
  | "strict" | "2" -> Pass.Strict
  | _ -> Pass.Warn

let level_of_env () =
  match Sys.getenv_opt "MCS_CHECK" with
  | None -> Pass.Off
  | Some s -> level_of_string s

(* ---- schedules ---- *)

(* Control-step groups an operation's functional unit is busy in. *)
let occupied_groups ~rate s cycles =
  List.map (fun i -> (s + i) mod rate) (Listx.range 0 (min cycles rate))

let groups_intersect a b = List.exists (fun g -> List.mem g b) a

(* A sound lower bound on the units one (partition, optype) pair needs: the
   largest greedily-grown clique of operations whose busy groups overlap
   pairwise and that are never mutually exclusive.  Any such clique must
   run on distinct units, and conditional sharing (§7.2) can never make a
   true clique spurious — so every report is a real violation. *)
let fu_clique ~rate sch cdfg mlib ops =
  let busy op =
    occupied_groups ~rate (Sched.cstep sch op) (Timing.op_cycles cdfg mlib op)
  in
  let with_busy = List.map (fun op -> (op, busy op)) ops in
  let conflicts (a, ga) (b, gb) =
    groups_intersect ga gb && not (Cdfg.mutually_exclusive cdfg a b)
  in
  let grow seed =
    List.fold_left
      (fun clique c ->
        if List.for_all (conflicts c) clique then c :: clique else clique)
      [ seed ]
      (List.filter (fun c -> c != seed) with_busy)
  in
  List.fold_left
    (fun best seed ->
      let c = grow seed in
      if List.length c > List.length best then c else best)
    [] with_busy
  |> List.map fst

let schedule_diags ?(check_fus = true) cons ~phase sch =
  let cdfg = Sched.cdfg sch and mlib = Sched.mlib sch in
  let rate = Sched.rate sch in
  let stage = Module_lib.stage_ns mlib in
  let cycles op = Timing.op_cycles cdfg mlib op in
  let delay op = Timing.op_delay_ns cdfg mlib op in
  let name op = Cdfg.name cdfg op in
  let unscheduled =
    List.filter_map
      (fun op ->
        if Sched.is_scheduled sch op then None
        else
          Some
            (Diag.error ~ops:[ op ] ~code:Diag.Unschedulable ~phase
               "operation %s is unscheduled" (name op)))
      (Cdfg.ops cdfg)
  in
  let fit =
    List.filter_map
      (fun op ->
        if not (Sched.is_scheduled sch op) then None
        else
          let f = Sched.finish_ns sch op in
          if cycles op = 1 && f > stage then
            Some
              (Diag.error ~ops:[ op ]
                 ~csteps:[ Sched.cstep sch op ]
                 ~code:Diag.Precedence_violation ~phase
                 "operation %s overflows its stage (finish %dns > %dns)"
                 (name op) f stage)
          else if cycles op = 1 && f < delay op then
            Some
              (Diag.error ~ops:[ op ]
                 ~csteps:[ Sched.cstep sch op ]
                 ~code:Diag.Internal ~phase
                 "operation %s has an impossible finish offset" (name op))
          else None)
      (Cdfg.ops cdfg)
  in
  let edges =
    List.filter_map
      (fun { Types.e_src; e_dst; degree } ->
        if
          (not (Sched.is_scheduled sch e_src))
          || not (Sched.is_scheduled sch e_dst)
        then None
        else
          let s_src = Sched.cstep sch e_src
          and s_dst = Sched.cstep sch e_dst in
          if degree = 0 then
            let registered = s_src + cycles e_src <= s_dst in
            let chained =
              s_src = s_dst
              && cycles e_src = 1
              && cycles e_dst = 1
              && Sched.finish_ns sch e_src
                 <= Sched.finish_ns sch e_dst - delay e_dst
            in
            if registered || chained then None
            else
              Some
                (Diag.error
                   ~ops:[ e_src; e_dst ]
                   ~csteps:[ s_src; s_dst ]
                   ~code:Diag.Precedence_violation ~phase
                   "precedence violated: %s (cstep %d) -> %s (cstep %d)"
                   (name e_src) s_src (name e_dst) s_dst)
          else
            let bound = (degree * rate) - cycles e_src in
            if s_src - s_dst <= bound then None
            else
              Some
                (Diag.error
                   ~ops:[ e_src; e_dst ]
                   ~csteps:[ s_src; s_dst ]
                   ~code:Diag.Rate_violation ~phase
                   "recursive max-time violated: %s (cstep %d) vs %s (cstep \
                    %d), bound %d"
                   (name e_src) s_src (name e_dst) s_dst bound))
      (Cdfg.edges cdfg)
  in
  let fus =
    if not check_fus then []
    else
      List.concat_map
        (fun p ->
          let mine =
            List.filter (Sched.is_scheduled sch)
              (Cdfg.func_ops_of_partition cdfg p)
          in
          List.filter_map
            (fun ty ->
              let limit = Constraints.fu_count cons ~partition:p ~optype:ty in
              let ops =
                List.filter (fun op -> Cdfg.func_optype cdfg op = ty) mine
              in
              let clique = fu_clique ~rate sch cdfg mlib ops in
              if List.length clique > limit then
                Some
                  (Diag.error ~ops:clique ~partitions:[ p ]
                     ~code:Diag.Fu_overuse ~phase
                     "partition %d needs %d %s units simultaneously, %d \
                      allocated"
                     p (List.length clique) ty limit)
              else None)
            (Module_lib.optypes mlib))
        (Listx.range 1 (Cdfg.n_partitions cdfg + 1))
  in
  unscheduled @ fit @ edges @ fus

(* ---- connection structure (schedule-independent) ---- *)

let budget_diags cons ~phase used =
  List.filter_map
    (fun (p, n) ->
      let budget = Constraints.pins cons p in
      if n > budget then
        Some
          (Diag.error ~partitions:[ p ] ~code:Diag.Pin_budget_overflow ~phase
             "partition %d commits %d pins, budget %d" p n budget)
      else None)
    used

let subbus_fit_diags cdfg ~phase buses =
  List.concat_map
    (fun (rb : SB.real_bus) ->
      List.filter_map
        (fun (op, slice) ->
          let w = Cdfg.io_width cdfg op in
          let misfit fmt =
            Format.kasprintf
              (fun m ->
                Some
                  (Diag.error ~ops:[ op ] ~code:Diag.Subbus_misfit ~phase
                     "transfer %s (%d bits) %s" (Cdfg.name cdfg op) w m))
              fmt
          in
          match (rb.split_at, slice) with
          | _, SB.Whole ->
              if w <= rb.width then None
              else misfit "exceeds its %d-bit bus" rb.width
          | Some lo, SB.Lo ->
              if w <= lo then None
              else misfit "exceeds its %d-bit low sub-bus" lo
          | Some lo, SB.Hi ->
              if w <= rb.width - lo then None
              else misfit "exceeds its %d-bit high sub-bus" (rb.width - lo)
          | None, (SB.Lo | SB.Hi) -> misfit "is on a slice of an unsplit bus")
        rb.carried)
    buses

let subbus_port_diags cdfg ~phase buses =
  List.concat_map
    (fun (rb : SB.real_bus) ->
      List.filter_map
        (fun (op, _slice) ->
          let w = Cdfg.io_width cdfg op in
          let covered p =
            List.exists (fun (q, r) -> q = p && r >= w) rb.ports
          in
          let missing =
            List.filter
              (fun p -> not (covered p))
              [ Cdfg.io_src cdfg op; Cdfg.io_dst cdfg op ]
          in
          if missing = [] then None
          else
            Some
              (Diag.error ~ops:[ op ] ~partitions:missing
                 ~code:Diag.Connection_conflict ~phase
                 "transfer %s (%d bits) lacks a wide-enough port on \
                  partition(s) %s"
                 (Cdfg.name cdfg op) w
                 (String.concat ", " (List.map string_of_int missing))))
        rb.carried)
    buses

let connection_diags ?(enforce_budgets = true) cdfg cons ~phase
    (c : Artifact.connection) =
  let n = Cdfg.n_partitions cdfg in
  let budgets used = if enforce_budgets then budget_diags cons ~phase used else [] in
  match c with
  | Artifact.Bundles _ -> budgets (F.pins_of ~n_partitions:n c)
  | Artifact.Buses { conn; assignment; _ } ->
      let capability =
        List.filter_map
          (fun (op, bus) ->
            if C.capable conn cdfg ~bus op then None
            else
              Some
                (Diag.error ~ops:[ op ] ~code:Diag.Connection_conflict ~phase
                   "bus %d cannot carry %s as wired" bus (Cdfg.name cdfg op)))
          assignment
      in
      capability @ budgets (F.pins_of ~n_partitions:n c)
  | Artifact.Subbuses { buses; _ } ->
      subbus_fit_diags cdfg ~phase buses
      @ subbus_port_diags cdfg ~phase buses
      @ budgets (F.pins_of ~n_partitions:n c)

(* ---- conflict freedom (needs the schedule) ---- *)

let slices_overlap a b =
  match (a, b) with
  | SB.Whole, _ | _, SB.Whole -> true
  | SB.Lo, SB.Lo | SB.Hi, SB.Hi -> true
  | SB.Lo, SB.Hi | SB.Hi, SB.Lo -> false

(* Two transfers may share a carrier in one control-step group only when
   they broadcast the same value in the same step, or can never execute in
   the same instance. *)
let sharing_diags ~code cdfg sch ~phase ~carrier pairs =
  let rec check acc = function
    | [] -> List.rev acc
    | (op, slot) :: rest ->
        let clashes =
          List.filter
            (fun (op', slot') ->
              carrier slot slot'
              && Sched.is_scheduled sch op
              && Sched.is_scheduled sch op'
              && Sched.group sch op = Sched.group sch op'
              && not
                   (Cdfg.io_value cdfg op = Cdfg.io_value cdfg op'
                   && Sched.cstep sch op = Sched.cstep sch op')
              && not (Cdfg.mutually_exclusive cdfg op op'))
            rest
        in
        let acc =
          List.fold_left
            (fun acc (op', _) ->
              Diag.error
                ~ops:[ op; op' ]
                ~csteps:[ Sched.cstep sch op; Sched.cstep sch op' ]
                ~code ~phase
                "%s (value %s, cstep %d) and %s (value %s, cstep %d) share a \
                 bus slot in one control-step group"
                (Cdfg.name cdfg op) (Cdfg.io_value cdfg op)
                (Sched.cstep sch op) (Cdfg.name cdfg op')
                (Cdfg.io_value cdfg op')
                (Sched.cstep sch op')
              :: acc)
            acc clashes
        in
        check acc rest
  in
  check [] pairs

let occupancy_diags ?(clique_semantics = false) cdfg sch ~phase
    (c : Artifact.connection) =
  match c with
  | Artifact.Bundles links -> (
      match SP.Theorem31.check sch links with
      | Ok () -> []
      | Error m ->
          [
            Diag.error ~code:Diag.Connection_conflict ~phase
              "Theorem 3.1 replay found a conflict: %s" m;
          ])
  | Artifact.Buses { assignment; _ } ->
      let code = if clique_semantics then Diag.Clique_invalid else Diag.Bus_conflict in
      sharing_diags ~code cdfg sch ~phase
        ~carrier:(fun b b' -> (b : int) = b')
        assignment
  | Artifact.Subbuses { assignment; _ } ->
      sharing_diags ~code:Diag.Bus_conflict cdfg sch ~phase
        ~carrier:(fun (b, s) (b', s') -> b = b' && slices_overlap s s')
        assignment

(* ---- injection points ---- *)

let artifact_checker ~flow cdfg _mlib cons ~phase (a : Artifact.t) =
  let derives_resources = flow = F.Ch5 in
  match a with
  | Artifact.Schedule sch ->
      schedule_diags ~check_fus:(not derives_resources) cons ~phase sch
  | Artifact.Connection c ->
      connection_diags ~enforce_budgets:(not derives_resources) cdfg cons
        ~phase c

let check_result cdfg _mlib cons (r : F.result) =
  let phase = F.name_to_string r.F.flow ^ ".result" in
  let derives_resources = r.F.flow = F.Ch5 in
  let sched =
    schedule_diags ~check_fus:(not derives_resources) cons ~phase r.F.schedule
  in
  let structure =
    connection_diags ~enforce_budgets:(not derives_resources) cdfg cons ~phase
      r.F.connection
  in
  let occupancy =
    occupancy_diags ~clique_semantics:derives_resources cdfg r.F.schedule
      ~phase r.F.connection
  in
  let sorted l = List.sort compare l in
  let mismatch what claimed recomputed =
    if sorted claimed = sorted recomputed then []
    else
      [
        Diag.error ~code:Diag.Result_mismatch ~phase
          "claimed %s table disagrees with the one recomputed from the \
           artifacts"
          what;
      ]
  in
  let pins =
    mismatch "pin" r.F.pins
      (F.pins_of ~n_partitions:(Cdfg.n_partitions cdfg) r.F.connection)
  in
  let fus =
    if derives_resources then
      mismatch "functional-unit" r.F.fus
        (Mcs_sched.Fds.fu_requirements r.F.schedule)
    else []
  in
  let rate =
    if Sched.rate r.F.schedule = r.F.rate then []
    else
      [
        Diag.error ~code:Diag.Result_mismatch ~phase
          "schedule rate %d disagrees with result rate %d"
          (Sched.rate r.F.schedule) r.F.rate;
      ]
  in
  (* [degraded] must mirror the [Degraded] warnings, one note per ladder
     step.  Inside {!Mcs_flow.Flow.run} the diagnostics are attached after
     this check runs, so the comparison only fires on completed results
     (diags nonempty) — i.e. when a caller re-audits one. *)
  let degraded =
    if r.F.diags = [] then []
    else
      let noted =
        List.filter
          (fun (d : Diag.t) -> d.Diag.code = Diag.Degraded)
          r.F.diags
      in
      if List.length noted <> List.length r.F.degraded then
        [
          Diag.error ~code:Diag.Result_mismatch ~phase
            "result lists %d degradation steps but carries %d Degraded \
             diagnostics"
            (List.length r.F.degraded) (List.length noted);
        ]
      else
        (* Every ladder step must also ride a [Degraded] diag payload
           ([("step", note)]) — that payload is what {!Bottleneck} and
           JSON consumers read instead of re-parsing prose. *)
        List.filter_map
          (fun step ->
            if
              List.exists
                (fun (d : Diag.t) ->
                  List.assoc_opt "step" d.Diag.data = Some step)
                noted
            then None
            else
              Some
                (Diag.error ~code:Diag.Result_mismatch ~phase
                   "degradation step %S is not carried by any Degraded \
                    diagnostic payload"
                   step))
          r.F.degraded
  in
  sched @ structure @ occupancy @ pins @ fus @ rate @ degraded

let run ?level ?policy name (spec : F.spec) =
  let level = match level with Some l -> l | None -> level_of_env () in
  F.run ~level
    ~checker:(artifact_checker ~flow:name spec.F.cdfg spec.F.mlib spec.F.cons)
    ~check_result:(check_result spec.F.cdfg spec.F.mlib spec.F.cons)
    ?policy name spec
