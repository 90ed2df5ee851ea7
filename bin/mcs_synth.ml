(* mcs-synth: command-line front end for the multiple-chip synthesis flows.

   Examples:
     mcs-synth --design ar-general --rate 4 --flow ch4 --ports bidir
     mcs-synth --design ar-simple  --rate 2 --flow ch3
     mcs-synth --design elliptic   --rate 5 --flow ch5 --pipe-length 25
     mcs-synth --design ar-general --rate 3 --flow ch6 --metrics\n     mcs-synth --design elliptic   --rate 6 --flow ch4 --check
     mcs-synth --design ar-general --rate 3 --flow ch4 --json run.json
     mcs-synth --list *)

open Mcs_cdfg
open Mcs_core
module C = Mcs_connect.Connection
module J = Mcs_obs.Report_json

let fmt = Format.std_formatter

let designs =
  [
    ("ar-simple", Benchmarks.ar_simple);
    ("ar-general", Benchmarks.ar_general);
    ("elliptic", Benchmarks.elliptic);
    ("cond-demo", Benchmarks.cond_demo);
    ("subbus-demo", Benchmarks.subbus_demo);
  ]

let list_designs () =
  List.iter
    (fun (name, mk) ->
      let d = mk () in
      Format.fprintf fmt "%-12s %a; evaluated at rates %s@." name
        Cdfg.pp_stats d.Benchmarks.cdfg
        (String.concat ", " (List.map string_of_int d.Benchmarks.rates)))
    designs;
  0

let pins_table (d : Benchmarks.design) pins =
  Report.table fmt ~title:"Pins used per partition"
    ~header:
      (List.map
         (fun p -> "P" ^ string_of_int p)
         (Mcs_util.Listx.range 0 (Cdfg.n_partitions d.Benchmarks.cdfg + 1)))
    [ Report.pins_row pins ]

let pins_json pins =
  J.Arr
    (List.map
       (fun (p, n) -> J.Obj [ ("partition", J.Int p); ("pins", J.Int n) ])
       pins)

module F = Mcs_flow.Flow
module A = Mcs_flow.Artifact
module Diag = Mcs_flow.Diag
module Pass = Mcs_flow.Pass

(* Rendering of the unified flow result, preserving the per-flow report
   shapes of the dissertation's tables.  [static] is the result's
   {!F.static_baseline}. *)
let render (d : Benchmarks.design) (r : F.result) ~static =
  let cdfg = d.Benchmarks.cdfg in
  match (r.F.flow, r.F.connection) with
  | _, A.Bundles links ->
      Format.fprintf fmt "Schedule:@.%a@.@." Report.schedule r.F.schedule;
      Format.fprintf fmt "Theorem 3.1 connection:@.%a@.@." Report.bundles
        links;
      pins_table d r.F.pins
  | F.Ch5, A.Buses { conn; _ } ->
      Format.fprintf fmt "Schedule (force-directed):@.%a@.@." Report.schedule
        r.F.schedule;
      Format.fprintf fmt "Connection (clique partitioning):@.%a@.@."
        (Report.connection cdfg) conn;
      pins_table d r.F.pins;
      Format.fprintf fmt "@.Functional units implied:@.";
      List.iter
        (fun ((p, ty), n) -> Format.fprintf fmt "  P%d: %d %s@." p n ty)
        r.F.fus
  | _, A.Buses { conn; initial; assignment; allocation } ->
      Format.fprintf fmt "Interchip connection:@.%a@.@."
        (Report.connection cdfg) conn;
      Report.bus_assignment cdfg fmt ~initial ~final:assignment;
      Format.fprintf fmt "@.";
      Report.bus_allocation cdfg ~rate:r.F.rate fmt allocation;
      Format.fprintf fmt "@.Schedule:@.%a@.@." Report.schedule r.F.schedule;
      pins_table d r.F.pins;
      Format.fprintf fmt "@.pipe length: %d (static assignment: %s)@."
        r.F.pipe_length
        (match static with
        | Some n -> string_of_int n
        | None -> "unschedulable")
  | _, A.Subbuses { buses; _ } ->
      Format.fprintf fmt "Bus structure (with sub-buses):@.%a@.@."
        (Report.real_buses cdfg) buses;
      Format.fprintf fmt "Schedule:@.%a@.@." Report.schedule r.F.schedule;
      pins_table d r.F.pins;
      Format.fprintf fmt "@.pipe length: %d@." r.F.pipe_length

let fields_of (r : F.result) ~static =
  let static () =
    [
      ( "static_pipe_length",
        match static with
        | Some n -> J.Int n
        | None -> J.Null );
    ]
  in
  let fus () =
    [
      ( "fus",
        J.Arr
          (List.map
             (fun ((p, ty), n) ->
               J.Obj
                 [
                   ("partition", J.Int p);
                   ("optype", J.Str ty);
                   ("count", J.Int n);
                 ])
             r.F.fus) );
    ]
  in
  let per_flow =
    match r.F.connection with
    | A.Bundles links -> [ ("bundles", J.Int (List.length links)) ]
    | A.Buses { conn; _ } ->
        [ ("buses", J.Int (C.n_buses conn)) ]
        @ (if r.F.flow = F.Ch5 then fus () else static ())
    | A.Subbuses { buses; _ } ->
        [
          ("buses", J.Int (List.length buses));
          ( "split_buses",
            J.Int
              (List.length
                 (List.filter
                    (fun (b : Mcs_core.Subbus.real_bus) -> b.split_at <> None)
                    buses)) );
        ]
        @ static ()
  in
  [
    ("pins", pins_json r.F.pins);
    ("pipe_length", J.Int r.F.pipe_length);
    ("attempts", J.Int r.F.attempts);
  ]
  @ (match r.F.degraded with
    | [] -> []
    | steps -> [ ("degraded", J.Arr (List.map (fun m -> J.Str m) steps)) ])
  @ per_flow

let level_label = function
  | Pass.Off -> "off"
  | Pass.Warn -> "warn"
  | Pass.Strict -> "strict"

(* ---- feedback-guided refinement (the --refine flag) ---- *)

module Rf = Mcs_refine.Refine

let refine_report (out : Rf.outcome) =
  if out.Rf.iterations <> [] then
    Report.table fmt ~title:"Refinement iterations"
      ~header:
        [ "#"; "Bottleneck"; "Action"; "Obj"; "After"; "Acc"; "Pivots";
          "Wall ms" ]
      (List.map
         (fun (it : Rf.iteration) ->
           [
             string_of_int it.Rf.index;
             it.Rf.bottleneck;
             it.Rf.action;
             string_of_int it.Rf.objective_before;
             (match it.Rf.objective_after with
             | Some o -> string_of_int o
             | None -> "-");
             (if it.Rf.accepted then "*" else "");
             string_of_int it.Rf.pivots;
             Printf.sprintf "%.1f" it.Rf.wall_ms;
           ])
         out.Rf.iterations);
  Format.fprintf fmt
    "refinement: %d iteration%s, %d accepted, objective %d%s@."
    (List.length out.Rf.iterations)
    (if List.length out.Rf.iterations = 1 then "" else "s")
    (List.length (List.filter (fun (it : Rf.iteration) -> it.Rf.accepted)
                    out.Rf.iterations))
    (Rf.objective out.Rf.result)
    (if out.Rf.fixed_point then " (fixed point)"
     else if out.Rf.exhausted then " (deadline exhausted)"
     else "")

let refine_fields = function
  | None -> []
  | Some (out : Rf.outcome) ->
      [
        ( "refine",
          J.Obj
            [
              ("improved", J.Bool out.Rf.improved);
              ("fixed_point", J.Bool out.Rf.fixed_point);
              ("exhausted", J.Bool out.Rf.exhausted);
              ("objective", J.Int (Rf.objective out.Rf.result));
              ( "iterations",
                J.Arr
                  (List.map
                     (fun (it : Rf.iteration) ->
                       J.Obj
                         ([
                            ("index", J.Int it.Rf.index);
                            ("bottleneck", J.Str it.Rf.bottleneck);
                            ("action", J.Str it.Rf.action);
                            ("objective_before", J.Int it.Rf.objective_before);
                          ]
                         @ (match it.Rf.objective_after with
                           | Some o -> [ ("objective_after", J.Int o) ]
                           | None -> [])
                         @ [
                             ("accepted", J.Bool it.Rf.accepted);
                             ("reason", J.Str it.Rf.reason);
                             ("pivots", J.Int it.Rf.pivots);
                             ("nodes", J.Int it.Rf.nodes);
                             ("wall_ms", J.Float it.Rf.wall_ms);
                           ]))
                     out.Rf.iterations) );
            ] );
      ]

let counter_count name = Mcs_obs.Metrics.(count (counter name))

module Fs = Mcs_ilp.Fsimplex

(* --arith: solver arithmetic for every ILP of the run, carried to the
   solvers on the flow policy.  Unset, it is the default policy's
   (MCS_ARITH); unknown values warn and keep that default, like --trace
   and --log-level. *)
let arith_of_flag = function
  | None -> F.default_policy.F.arith
  | Some s -> (
      match String.lowercase_ascii s with
      | "float" | "float-certified" -> Fs.Float_certified
      | "rational" | "exact" -> Fs.Rational
      | _ ->
          Mcs_obs.Log.warn "unknown --arith %S (float|rational)" s;
          F.default_policy.F.arith)

let arith_json_fields arith =
  [
    ("arith", J.Str (Fs.arith_to_string arith));
    ("certify_ok", J.Int (counter_count "ilp.certify.ok"));
    ("certify_fail", J.Int (counter_count "ilp.certify.fail"));
    ("arith_fallbacks", J.Int (counter_count "bb.arith_fallbacks"));
  ]

(* One exit line making degraded-to-rational solves visible without
   --metrics; printed only when some simplex actually ran. *)
let arith_exit_line arith =
  let ok = counter_count "ilp.certify.ok"
  and fail = counter_count "ilp.certify.fail"
  and fb = counter_count "bb.arith_fallbacks" in
  if
    ok + fail > 0
    || counter_count "simplex.pivots" > 0
    || counter_count "fsimplex.pivots" > 0
  then
    Format.fprintf fmt
      "solver arithmetic: %s (%d certified, %d failed, %d rational \
       fallback%s)@."
      (Fs.arith_to_string arith) ok fail fb
      (if fb = 1 then "" else "s")

let synth design flow rate pipe_length ports check strict deadline_ms
    no_fallback refine listing trace trace_out metrics json_file log_level
    arith =
  let arith = arith_of_flag arith in
  (match log_level with
  | None -> ()
  | Some s -> (
      match Mcs_obs.Log.level_of_string s with
      | Some l -> Mcs_obs.Log.set_level l
      | None ->
          Mcs_obs.Log.warn "unknown log level %S (debug|info|warn|error|quiet)"
            s));
  (match trace with
  | None -> ()
  | Some "tree" -> Mcs_obs.Trace.set_sink (Mcs_obs.Trace.Tree Format.err_formatter)
  | Some "json" -> Mcs_obs.Trace.set_sink (Mcs_obs.Trace.Jsonl Format.err_formatter)
  | Some m -> Mcs_obs.Log.warn "unknown trace mode %S (tree|json)" m);
  if listing then list_designs ()
  else
    match List.assoc_opt design designs with
    | None ->
        Format.eprintf
          "unknown design %S (use --list to see what is available)@." design;
        2
    | Some mk -> (
        let d = mk () in
        let rate =
          match rate with Some r -> r | None -> List.hd d.Benchmarks.rates
        in
        match F.name_of_string flow with
        | Error m ->
            Format.eprintf "%s@." m;
            2
        | Ok flow_name ->
            let level =
              if strict then Pass.Strict
              else if check then Pass.Warn
              else Mcs_check.level_of_env ()
            in
            let spec =
              F.spec_of_design ?pipe_length ?mode:ports ~flow:flow_name d ~rate
            in
            let cdfg = d.Benchmarks.cdfg in
            Mcs_obs.Metrics.reset ();
            if json_file <> None then begin
              Mcs_obs.Trace.reset_collected ();
              Mcs_obs.Trace.set_collect true;
              (* The event journal rides on the report whenever the run
                 degrades, exhausts or fails its checks. *)
              Mcs_obs.Events.clear ();
              Mcs_obs.Events.set_enabled true
            end;
            if trace_out <> None then begin
              Mcs_obs.Events.clear ();
              Mcs_prof.Chrome_trace.start ()
            end;
            let t0 = Unix.gettimeofday () in
            (* The budget's deadline clock starts here, right before the
               run it bounds. *)
            let policy =
              {
                F.budget =
                  (match deadline_ms with
                  | Some ms when ms > 0. ->
                      Mcs_resilience.Budget.make ~deadline_ms:ms ()
                  | Some _ | None -> Mcs_resilience.Budget.unlimited);
                F.fallback = not no_fallback;
                F.arith;
              }
            in
            let outcome = Mcs_check.run ~level ~policy flow_name spec in
            (* The refinement loop shares the run's budget, so a
               --deadline-ms allowance bounds base synthesis and
               refinement together. *)
            let refine_out =
              match outcome with
              | Ok r when refine > 0 ->
                  Some (Rf.improve ~max_iters:refine ~policy spec r)
              | Ok _ | Error _ -> None
            in
            let outcome =
              match refine_out with
              | Some out -> Ok out.Rf.result
              | None -> outcome
            in
            let wall = Unix.gettimeofday () -. t0 in
            let diag_fields diags =
              if level = Pass.Off && diags = [] then []
              else
                [
                  ("check", J.Str (level_label level));
                  ("diagnostics", J.Arr (List.map Diag.to_json diags));
                ]
            in
            let code, fields =
              match outcome with
              | Ok r ->
                  (* The static-assignment baseline, for the report
                     only: after the timed run, outside its budget. *)
                  let static = F.static_baseline spec r in
                  render d r ~static;
                  (match refine_out with
                  | Some out -> refine_report out
                  | None -> ());
                  List.iter
                    (fun dg -> Format.eprintf "%a@." (Diag.pp ~cdfg) dg)
                    r.F.diags;
                  if F.is_degraded r then
                    Format.eprintf
                      "synthesis degraded (%d ladder step%s): %s@."
                      (List.length r.F.degraded)
                      (if List.length r.F.degraded = 1 then "" else "s")
                      (String.concat "; " r.F.degraded);
                  let violations =
                    List.length (List.filter Diag.is_error r.F.diags)
                  in
                  let code =
                    if violations > 0 && level <> Pass.Off then begin
                      Format.eprintf "check: %d violation(s)@." violations;
                      1
                    end
                    else 0
                  in
                  (code, fields_of r ~static @ refine_fields refine_out
                         @ diag_fields r.F.diags)
              | Error dg ->
                  Format.eprintf "%a@." (Diag.pp ~cdfg) dg;
                  Format.eprintf "synthesis failed: %s@." (Diag.message dg);
                  (1, diag_fields [ dg ])
            in
            if metrics then
              Format.fprintf fmt "@.%a" Mcs_obs.Metrics.pp_summary ();
            arith_exit_line arith;
            let json_code =
              match json_file with
              | None -> 0
              | Some path -> (
                  let status =
                    match outcome with
                    | Ok _ -> `Ok
                    | Error dg -> `Error (Diag.message dg)
                  in
                  (* Exhausted, degraded or checker-dirty runs carry the
                     solver event journal, so the report alone explains
                     which solver tripped which budget axis. *)
                  let journal_worthy =
                    Mcs_prof.Journal.exhausted_axis () <> None
                    || (match outcome with
                       | Error dg -> dg.Diag.code = Diag.Exhausted
                       | Ok r ->
                           F.is_degraded r
                           || List.exists Diag.is_error r.F.diags)
                  in
                  let journal_fields =
                    if journal_worthy then
                      [ ("journal", Mcs_prof.Journal.to_json ()) ]
                      @ (match Mcs_prof.Journal.exhausted_axis () with
                        | Some a -> [ ("exhausted_axis", J.Str a) ]
                        | None -> [])
                    else []
                  in
                  let report =
                    J.run_report ~flow ~design ~rate ~status ~wall_s:wall
                      ~result:(fields @ arith_json_fields arith @ journal_fields)
                      ()
                  in
                  match J.write_file path report with
                  | Ok () -> 0
                  | Error m ->
                      Format.eprintf "cannot write %s: %s@." path m;
                      3)
            in
            let trace_code =
              match trace_out with
              | None -> 0
              | Some path -> (
                  match Mcs_prof.Chrome_trace.write path with
                  | Ok () -> 0
                  | Error m ->
                      Format.eprintf "cannot write %s: %s@." path m;
                      3)
            in
            if code <> 0 then code
            else if json_code <> 0 then json_code
            else trace_code)

(* ---- design-space exploration (the dse subcommand) ---- *)

module E_job = Mcs_engine.Job
module E_pool = Mcs_engine.Pool
module E_cache = Mcs_engine.Cache
module E_pareto = Mcs_engine.Pareto

(* "3,4,5", "6-10" and mixtures like "3,6-8" *)
let parse_int_list what s =
  if s = "" then Ok []
  else
    try
      Ok
        (List.concat_map
           (fun tok ->
             match String.index_opt tok '-' with
             | Some i when i > 0 ->
                 let a = int_of_string (String.sub tok 0 i) in
                 let b =
                   int_of_string
                     (String.sub tok (i + 1) (String.length tok - i - 1))
                 in
                 if b < a || a < 1 then failwith "range"
                 else Mcs_util.Listx.range a (b + 1)
             | _ ->
                 let v = int_of_string tok in
                 if v < 1 then failwith "positive" else [ v ])
           (String.split_on_char ',' s))
    with _ ->
      Error
        (Printf.sprintf "cannot parse %s %S (want e.g. \"3,4,5\" or \"6-10\")"
           what s)

let parse_flows s =
  let names =
    match s with
    | "all" -> List.map E_job.flow_to_string E_job.all_flows
    | s -> String.split_on_char ',' s
  in
  List.fold_left
    (fun acc name ->
      match (acc, E_job.flow_of_string name) with
      | Error _, _ -> acc
      | Ok _, Error m -> Error m
      | Ok fs, Ok f -> Ok (fs @ [ f ]))
    (Ok []) names

(* Grid planning shared by the dse and client subcommands: same flags,
   same job list, so a sweep can run in-process or on a warm daemon
   interchangeably. *)
let grid_plan ?(refine = 0) designs_s flows_s rates_s pls_s =
  let refine = max 0 refine in
  let ( let* ) = Result.bind in
  let* flows = parse_flows flows_s in
  let* rates = parse_int_list "--rates" rates_s in
  let* pls = parse_int_list "--pipe-lengths" pls_s in
  let* designs =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        match List.assoc_opt name E_job.named_designs with
        | Some mk ->
            Ok (acc @ [ (E_job.Named name, Some (mk ()).Benchmarks.rates) ])
        | None when String.contains name ':' ->
            (* Generated designs, same syntax the engine's job encoding
               uses: random:<seed>:<chips>:<ops> and
               rsimple:<seed>:<chips>:<ops_per_chip>. *)
            let* d = E_job.design_of_string name in
            Ok (acc @ [ (d, None) ])
        | None ->
            Error
              (Printf.sprintf
                 "unknown design %S (known: %s, or random:<seed>:<chips>:\
                  <ops> / rsimple:<seed>:<chips>:<ops_per_chip>)"
                 name
                 (String.concat ", " (List.map fst E_job.named_designs))))
      (Ok [])
      (String.split_on_char ',' designs_s)
  in
  (* With no --rates, a named design sweeps the rates the paper
     evaluates for it; generated designs have no paper rates and
     default to 2..4. *)
  Ok
    (List.concat_map
       (fun (design, paper_rates) ->
         let rates =
           if rates <> [] then rates
           else match paper_rates with Some rs -> rs | None -> [ 2; 3; 4 ]
         in
         (* Ascending, deduplicated: the order of the [dse] report. *)
         let rates = List.sort_uniq compare rates in
         E_job.grid ~designs:[ design ] ~flows ~rates ~pipe_lengths:pls
           ~refine ())
       designs)

let dse designs_s flows_s rates_s pls_s refine jobs cache_dir timeout
    deadline_ms retry json_file trace_out arith =
  let arith = arith_of_flag arith in
  match grid_plan ~refine designs_s flows_s rates_s pls_s with
  | Error m ->
      Format.eprintf "dse: %s@." m;
      2
  | Ok [] ->
      Format.eprintf "dse: empty job grid@.";
      2
  | Ok joblist ->
      Mcs_obs.Metrics.reset ();
      if trace_out <> None then begin
        Mcs_obs.Events.clear ();
        Mcs_prof.Chrome_trace.start ()
      end;
      let cache = Option.map E_cache.open_dir cache_dir in
      (* A per-job budget: the pool gives each job a fresh copy. *)
      let policy =
        {
          F.default_policy with
          F.budget =
            (match deadline_ms with
            | Some ms when ms > 0. ->
                Mcs_resilience.Budget.make ~deadline_ms:ms ()
            | Some _ | None -> Mcs_resilience.Budget.unlimited);
          F.arith;
        }
      in
      let t0 = Unix.gettimeofday () in
      let outcomes =
        E_pool.run ~jobs ?timeout ?cache ~retry ~policy joblist
      in
      let wall = Unix.gettimeofday () -. t0 in
      let front = E_pareto.frontier outcomes in
      Report.table fmt
        ~title:
          (Printf.sprintf
             "Design-space exploration: %d jobs, %d worker%s, %.2f s"
             (List.length joblist) (max 1 jobs)
             (if max 1 jobs = 1 then "" else "s")
             wall)
        ~header:
          [ "Design"; "Flow"; "Rate"; "PL req"; "Status"; "Pins"; "Pipe";
            "FUs"; "Refine"; "Pareto" ]
        (List.map
           (fun (o : Mcs_engine.Outcome.t) ->
             let j = o.Mcs_engine.Outcome.job in
             let feas = Mcs_engine.Outcome.is_feasible o in
             [
               E_job.design_to_string j.E_job.design;
               E_job.flow_to_string j.E_job.flow;
               string_of_int j.E_job.rate;
               (match j.E_job.pipe_length with
               | Some pl -> string_of_int pl
               | None -> "-");
               Mcs_engine.Outcome.status_label o.Mcs_engine.Outcome.status;
               (if feas then
                  string_of_int (Mcs_engine.Outcome.pins_total o)
                else "-");
               (if feas then string_of_int o.Mcs_engine.Outcome.pipe_length
                else "-");
               (if feas then string_of_int o.Mcs_engine.Outcome.fu_count
                else "-");
               (match o.Mcs_engine.Outcome.refine with
               | Some r ->
                   Printf.sprintf "%d/%d" r.Mcs_engine.Outcome.accepted
                     (List.length r.Mcs_engine.Outcome.steps)
               | None -> "-");
               (if List.memq o front then "*" else "");
             ])
           outcomes);
      let c name = counter_count ("engine." ^ name) in
      (* Solver-arithmetic visibility: the sum of each job's own share of
         the certification counters, as reported on its outcome (cache
         hits report the run that produced them). *)
      let sum_solver f =
        List.fold_left
          (fun acc (o : Mcs_engine.Outcome.t) ->
            match o.Mcs_engine.Outcome.solver with
            | Some s -> acc + f s
            | None -> acc)
          0 outcomes
      in
      let certify_ok = sum_solver (fun s -> s.Mcs_engine.Outcome.certify_ok)
      and certify_fail =
        sum_solver (fun s -> s.Mcs_engine.Outcome.certify_fail)
      and fallbacks =
        sum_solver (fun s -> s.Mcs_engine.Outcome.arith_fallbacks)
      in
      Format.fprintf fmt
        "@.jobs executed: %d; crashes: %d; timeouts: %d; retries: %d@."
        (c "jobs.executed") (c "pool.crashes") (c "pool.timeouts")
        (c "pool.retries");
      Format.fprintf fmt
        "solver arithmetic: %s (%d certified, %d failed, %d rational \
         fallback%s)@."
        (Fs.arith_to_string arith) certify_ok certify_fail fallbacks
        (if fallbacks = 1 then "" else "s");
      if cache <> None then
        Format.fprintf fmt "cache: %d hits, %d misses, %d stale@."
          (c "cache.hits") (c "cache.misses") (c "cache.stale");
      let trace_code =
        match trace_out with
        | None -> 0
        | Some path -> (
            match Mcs_prof.Chrome_trace.write path with
            | Ok () ->
                Format.fprintf fmt "wrote %s@." path;
                0
            | Error m ->
                Format.eprintf "cannot write %s: %s@." path m;
                3)
      in
      let json_code =
        match json_file with
      | None -> 0
      | Some path -> (
          let report =
            match E_pareto.report outcomes with
            | J.Obj fields ->
                (* Engine counters are deterministic for a fixed job list
                   and cache state (unlike wall times, which stay out of
                   the report): the warm-cache CI check reads them. *)
                J.Obj
                  (fields
                  @ [
                      ( "engine",
                        J.Obj
                          [
                            ("cache_hits", J.Int (c "cache.hits"));
                            ("cache_misses", J.Int (c "cache.misses"));
                            ("cache_stale", J.Int (c "cache.stale"));
                            ("executed", J.Int (c "jobs.executed"));
                            ("crashes", J.Int (c "pool.crashes"));
                            ("timeouts", J.Int (c "pool.timeouts"));
                            ("retries", J.Int (c "pool.retries"));
                            ( "arith",
                              J.Str (Fs.arith_to_string arith) );
                            ("certify_ok", J.Int certify_ok);
                            ("certify_fail", J.Int certify_fail);
                            ("arith_fallbacks", J.Int fallbacks);
                          ] );
                    ])
            | r -> r
          in
          match J.write_file path report with
          | Ok () ->
              Format.fprintf fmt "wrote %s@." path;
              0
          | Error m ->
              Format.eprintf "cannot write %s: %s@." path m;
              3)
      in
      if json_code <> 0 then json_code else trace_code

(* ---- submitting to a warm daemon (the client subcommand) ---- *)

module S_client = Mcs_server.Client
module S_proto = Mcs_server.Protocol

let reply_json (r : S_proto.reply) =
  match J.of_string (S_proto.response_to_string (S_proto.Reply r)) with
  | Ok j -> j
  | Error _ -> J.Null

let client socket tcp designs_s flows_s rates_s pls_s refine deadline_ms
    no_fallback stats_only shutdown_only json_file =
  let connect () =
    match tcp with
    | None -> S_client.connect_unix socket
    | Some hostport -> (
        match String.rindex_opt hostport ':' with
        | Some i ->
            let host = String.sub hostport 0 i in
            let port =
              int_of_string
                (String.sub hostport (i + 1) (String.length hostport - i - 1))
            in
            S_client.connect_tcp (if host = "" then "127.0.0.1" else host) port
        | None -> failwith ("--tcp wants HOST:PORT, got " ^ hostport))
  in
  match connect () with
  | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "client: cannot connect to %s: %s@."
        (match tcp with Some hp -> hp | None -> socket)
        (Unix.error_message e);
      2
  | exception Failure m ->
      Format.eprintf "client: %s@." m;
      2
  | c -> (
      Fun.protect ~finally:(fun () -> S_client.close c) @@ fun () ->
      if stats_only then
        match S_client.stats c with
        | Ok j ->
            Format.printf "%a@." J.pp j;
            0
        | Error m ->
            Format.eprintf "client: %s@." m;
            2
      else if shutdown_only then
        match S_client.shutdown c with
        | Ok drained ->
            Format.printf "daemon drained %d job%s and exited@." drained
              (if drained = 1 then "" else "s");
            0
        | Error m ->
            Format.eprintf "client: %s@." m;
            2
      else
        match grid_plan ~refine designs_s flows_s rates_s pls_s with
        | Error m ->
            Format.eprintf "client: %s@." m;
            2
        | Ok [] ->
            Format.eprintf "client: empty job grid@.";
            2
        | Ok joblist -> (
            let submits =
              List.map
                (fun job ->
                  {
                    S_proto.id = "";
                    job;
                    deadline_ms;
                    fallback = not no_fallback;
                  })
                joblist
            in
            let t0 = Unix.gettimeofday () in
            match S_client.submit_all c submits with
            | Error m ->
                Format.eprintf "client: %s@." m;
                (* A typed oversized rejection means the server's frame
                   bound, not the transport, refused us. *)
                let contains hay needle =
                  let nh = String.length hay and nn = String.length needle in
                  let rec go i =
                    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
                  in
                  nn > 0 && go 0
                in
                if contains m "[oversized]" then
                  Format.eprintf
                    "client: the request line exceeded the daemon's \
                     --max-frame bound; submit a smaller job encoding@.";
                2
            | Ok replies ->
                let wall = Unix.gettimeofday () -. t0 in
                Report.table fmt
                  ~title:
                    (Printf.sprintf "Served %d job%s in %.2f s"
                       (List.length replies)
                       (if List.length replies = 1 then "" else "s")
                       wall)
                  ~header:
                    [ "Id"; "Design"; "Flow"; "Rate"; "Status"; "Cached";
                      "Coal"; "Wall ms"; "Diag" ]
                  (List.map2
                     (fun job (r : S_proto.reply) ->
                       [
                         r.S_proto.id;
                         E_job.design_to_string job.E_job.design;
                         E_job.flow_to_string job.E_job.flow;
                         string_of_int job.E_job.rate;
                         (match r.S_proto.outcome with
                         | Some o ->
                             Mcs_engine.Outcome.status_label
                               o.Mcs_engine.Outcome.status
                         | None -> "rejected");
                         (if r.S_proto.cached then "*" else "");
                         (if r.S_proto.coalesced then "*" else "");
                         Printf.sprintf "%.1f" r.S_proto.wall_ms;
                         (match r.S_proto.diag with
                         | Some d -> d.S_proto.code
                         | None -> "");
                       ])
                     joblist replies);
                let json_code =
                  match json_file with
                  | None -> 0
                  | Some path -> (
                      let report =
                        J.Obj
                          [
                            ("schema", J.Str "mcs-client/1");
                            ( "endpoint",
                              J.Str
                                (match tcp with
                                | Some hp -> hp
                                | None -> socket) );
                            ("jobs", J.Int (List.length replies));
                            ("replies", J.Arr (List.map reply_json replies));
                          ]
                      in
                      match J.write_file path report with
                      | Ok () ->
                          Format.fprintf fmt "wrote %s@." path;
                          0
                      | Error m ->
                          Format.eprintf "cannot write %s: %s@." path m;
                          3)
                in
                let diag_count code =
                  List.length
                    (List.filter
                       (fun (r : S_proto.reply) ->
                         match r.S_proto.diag with
                         | Some d -> d.S_proto.code = code
                         | None -> false)
                       replies)
                in
                let poisoned = diag_count "poisoned" in
                if poisoned > 0 then
                  Format.eprintf
                    "client: %d job%s quarantined as poison (repeatedly \
                     killed a server worker domain)@."
                    poisoned
                    (if poisoned = 1 then "" else "s");
                let rejected =
                  List.exists
                    (fun (r : S_proto.reply) -> r.S_proto.outcome = None)
                    replies
                in
                if json_code <> 0 then json_code
                else if rejected then 1
                else 0))

open Cmdliner

let design =
  Arg.(value & opt string "ar-general" & info [ "design"; "d" ] ~docv:"NAME"
         ~doc:"Design to synthesize (see $(b,--list)).")

let flow =
  Arg.(value & opt string "ch4" & info [ "flow"; "f" ] ~docv:"FLOW"
         ~doc:"Synthesis flow: ch3 (simple partitioning), ch4 \
               (connection-first), ch5 (schedule-first), ch6 (sub-bus \
               sharing).")

let rate =
  Arg.(value & opt (some int) None & info [ "rate"; "r" ] ~docv:"L"
         ~doc:"Initiation rate (default: the design's first evaluated rate).")

let pipe_length =
  Arg.(value & opt (some int) None & info [ "pipe-length"; "p" ] ~docv:"T"
         ~doc:"Pipe length for the ch5 flow (default: the critical path).")

let ports =
  Arg.(value
       & opt (some (enum [ ("unidir", C.Unidir); ("bidir", C.Bidir) ])) None
       & info [ "ports" ] ~docv:"MODE"
         ~doc:"I/O port mode for ch4 and ch5: unidir or bidir (default: \
               unidir for ch4, bidir for ch5).  ch3 always runs on \
               unidirectional ports and ch6 on bidirectional ones.")

let listing =
  Arg.(value & flag & info [ "list"; "l" ] ~doc:"List the bundled designs.")

let trace =
  Arg.(value & opt ~vopt:(Some "tree") (some string) None
       & info [ "trace" ] ~docv:"MODE"
           ~doc:"Emit per-phase timing spans to stderr: $(b,tree) (indented \
                 summary, the default when no MODE is given) or $(b,json) \
                 (one JSON object per span).")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record a Chrome trace (phase spans plus solver events: \
               branch-and-bound nodes, simplex pivot batches, FDS passes, \
               Hungarian augments, cache and pool activity, ladder steps) \
               and write it to $(docv), loadable in chrome://tracing or \
               ui.perfetto.dev.")

let metrics =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print solver counters (simplex pivots, branch-and-bound \
                 nodes, search backtracks, ...) after synthesis.")

let json_file =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write a machine-readable run report (schema mcs-run/1) with \
               status, result, per-phase wall times and solver metrics to \
               $(docv).")

let log_level =
  Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LVL"
         ~doc:"Diagnostic verbosity: debug, info, warn (default), error or \
               quiet.  The $(b,MCS_LOG) environment variable sets the same \
               threshold.")

let check =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Run the $(b,Mcs_check) static analysis on every phase \
                 artifact and on the final result; violations go to stderr \
                 as structured diagnostics and make the exit code nonzero.  \
                 The $(b,MCS_CHECK) environment variable (off|warn|strict) \
                 sets the same behaviour.")

let strict =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Like $(b,--check), but the first violation aborts the flow \
                 instead of being collected.")

let deadline_ms =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Wall-clock budget for the whole run, in milliseconds.  Every \
               solver the flow invokes shares it; when it runs out the flow \
               steps down its degradation ladder (see $(b,--no-fallback)) \
               and the result is flagged degraded.")

let no_fallback =
  Arg.(value & flag
       & info [ "no-fallback" ]
           ~doc:"Disable the degradation ladder: budget exhaustion becomes \
               a typed $(b,exhausted) diagnostic (nonzero exit) instead of \
               a degraded result.")

let refine_doc =
  "Run up to $(docv) feedback-guided refinement iterations after \
   synthesis (bare $(b,--refine) means 3): each iteration extracts the \
   dominant bottleneck from the checker's evidence — a degradation-ladder \
   step, the critical tail, pin-budget pressure or functional-unit slack \
   — re-solves just that subproblem under a sliced budget, and accepts \
   the splice only when it strictly improves the (pins, pipe length) \
   objective and passes the strict checker.  $(b,--refine=0) (the \
   default) is bit-identical to no refinement."

let refine_arg =
  Arg.(value & opt ~vopt:3 int 0
       & info [ "refine" ] ~docv:"N" ~doc:refine_doc)

let arith_arg =
  Arg.(value & opt (some string) None & info [ "arith" ] ~docv:"MODE"
         ~doc:"ILP solver arithmetic: $(b,float) (double-precision simplex \
               with exact rational certification of every accepted basis, \
               the default) or $(b,rational) (exact arithmetic throughout, \
               the certification oracle).  Carried on the flow policy to every \
               ILP of the run, in every dse job; unset, $(b,MCS_ARITH) \
               decides.")

let synth_term =
  Term.(
    const synth $ design $ flow $ rate $ pipe_length $ ports $ check
    $ strict $ deadline_ms $ no_fallback $ refine_arg $ listing $ trace
    $ trace_out $ metrics $ json_file $ log_level $ arith_arg)

let dse_cmd =
  let designs =
    Arg.(value & opt string "ar-general"
         & info [ "designs" ] ~docv:"NAMES"
             ~doc:"Comma-separated designs to sweep (see $(b,--list)).")
  in
  let flows =
    Arg.(value & opt string "ch4-unidir,ch4-bidir,ch5,ch6"
         & info [ "flows" ] ~docv:"FLOWS"
             ~doc:"Comma-separated flows: ch3, ch4-unidir, ch4-bidir, ch5, \
                   ch6, or $(b,all).")
  in
  let rates =
    Arg.(value & opt string "" & info [ "rates" ] ~docv:"LIST"
           ~doc:"Initiation rates, e.g. $(b,3,4,5) or $(b,3-5) (default: \
                 each design's evaluated rates).")
  in
  let pipe_lengths =
    Arg.(value & opt string "" & info [ "pipe-lengths" ] ~docv:"LIST"
           ~doc:"Pipe lengths for ch5 jobs, e.g. $(b,6-10) (default: the \
                 critical path).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Jobs to run at once.  The calling domain runs jobs too \
                 and counts as one, unless $(b,--timeout) needs it free to \
                 enforce the stall limit.")
  in
  let cache =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
           ~doc:"Persistent result cache directory (created if missing); \
                 identical jobs are served from it without running.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-job stall limit: a job still running after this long \
                 is reported as timed out and its worker domain abandoned, \
                 so the sweep still finishes promptly.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-job solver budget in wall milliseconds (each job \
                   gets its own); jobs that exhaust it degrade instead of \
                   overrunning.")
  in
  let retry =
    Arg.(value & flag
         & info [ "retry" ]
             ~doc:"Re-run each crashed or timed-out job once with a halved \
                   budget (degraded mode) before reporting it.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable sweep report (schema \
                 $(b,mcs-dse/1), deterministic for a fixed grid and cache \
                 state) to $(docv).")
  in
  Cmd.v
    (Cmd.info "dse" ~doc:"explore a design-space grid with a worker pool"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Expands a (designs x flows x rates x pipe-lengths) grid into \
              batch jobs, runs them on supervised worker domains with crash \
              isolation and per-job stall limits, and reports every point plus \
              the (pins, pipe length, functional units) Pareto frontier.  A \
              worker count of 1 and of N produce identical reports; a \
              persistent $(b,--cache) makes repeated sweeps incremental.";
         ])
    Term.(
      const dse $ designs $ flows $ rates $ pipe_lengths $ refine_arg $ jobs
      $ cache $ timeout $ deadline_ms $ retry $ json $ trace_out $ arith_arg)

let client_cmd =
  let socket =
    Arg.(value
         & opt string Mcs_server.Server.default_config.Mcs_server.Server.socket_path
         & info [ "socket"; "s" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the running $(b,mcs-serve) daemon.")
  in
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Connect over TCP instead of the Unix socket.")
  in
  let designs =
    Arg.(value & opt string "ar-general"
         & info [ "designs" ] ~docv:"NAMES"
             ~doc:"Comma-separated designs to sweep (see $(b,--list)).")
  in
  let flows =
    Arg.(value & opt string "ch4-unidir,ch4-bidir,ch5,ch6"
         & info [ "flows" ] ~docv:"FLOWS"
             ~doc:"Comma-separated flows: ch3, ch4-unidir, ch4-bidir, ch5, \
                   ch6, or $(b,all).")
  in
  let rates =
    Arg.(value & opt string "" & info [ "rates" ] ~docv:"LIST"
           ~doc:"Initiation rates, e.g. $(b,3,4,5) or $(b,3-5) (default: \
                 each design's evaluated rates).")
  in
  let pipe_lengths =
    Arg.(value & opt string "" & info [ "pipe-lengths" ] ~docv:"LIST"
           ~doc:"Pipe lengths for ch5 jobs, e.g. $(b,6-10).")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline: the daemon's admission control \
                   rejects requests it cannot meet, and admitted jobs run \
                   under a solver budget of $(docv) milliseconds.")
  in
  let no_fallback =
    Arg.(value & flag
         & info [ "no-fallback" ]
             ~doc:"Budget exhaustion becomes a typed $(b,exhausted) \
                   diagnostic instead of a degraded result.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the daemon's mcs-serve/1 stats (queue depth, \
                   latency p50/p95, cache and solver counters) and exit.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the daemon to drain in-flight work and exit.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write all replies (schema $(b,mcs-client/1), embedding \
                 each mcs-run/1 reply verbatim) to $(docv).")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"submit a job grid to a running mcs-serve daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Expands the same (designs x flows x rates x pipe-lengths) \
              grid as $(b,dse) but submits it over the wire to a warm \
              $(b,mcs-serve) daemon: no process spawns, shared result \
              cache, identical in-flight jobs coalesced server-side.  \
              Exits 1 when any request was rejected (admission control or \
              deadline), like a failed check.";
         ])
    Term.(
      const client $ socket $ tcp $ designs $ flows $ rates $ pipe_lengths
      $ refine_arg $ deadline_ms $ no_fallback $ stats $ shutdown $ json)

let cmd =
  let doc = "high-level synthesis with pin constraints for multiple-chip designs" in
  let info =
    Cmd.info "mcs-synth" ~doc
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Synthesizes pipelined multiple-chip designs from partitioned \
             behavioural specifications under per-chip I/O pin constraints, \
             reproducing Hung's 1992 dissertation flows: pin-constrained \
             scheduling for simple partitionings, interchip-connection \
             synthesis before or after scheduling, and intra-cycle sub-bus \
             sharing.  The $(b,dse) subcommand sweeps whole design-space \
             grids in parallel.";
        ]
  in
  Cmd.group ~default:synth_term info [ dse_cmd; client_cmd ]

let () = exit (Cmd.eval' cmd)
