(* Benchmark harness: regenerates every table and figure of the
   dissertation's evaluation (see DESIGN.md's per-experiment index) and
   times the core algorithms with Bechamel.

   Usage: main.exe [--skip-bechamel] [--only PREFIX] [--json FILE]
                   [--baseline FILE] [--compare FILE] [--reps N]
                   [--noise PCT] [--trace-out FILE]
   e.g. --only ch4 runs only the Chapter 4 experiments; --json FILE skips
   the tables and instead writes one machine-readable record per flow
   (wall time plus solver counters, schema mcs-bench/1) to FILE.

   --baseline FILE measures the paper benchmarks (median-of---reps wall
   times, deterministic solver counters) and writes an
   mcs-bench-baseline/1 file; --compare FILE re-measures and gates
   against a committed baseline: hard metrics (pivots, nodes, pins, pipe
   lengths) fail on any increase, wall times only warn beyond --noise
   (default 25%).  --trace-out FILE records a Chrome trace of the run. *)

open Mcs_cdfg
open Mcs_core
module C = Mcs_connect.Connection
module Sched = Mcs_sched.Schedule

let fmt = Format.std_formatter
let section title = Format.fprintf fmt "@.==== %s ====@.@." title
let only = ref ""
let skip_bechamel = ref false

let want tag =
  !only = ""
  || String.length tag >= String.length !only
     && String.equal (String.sub tag 0 (String.length !only)) !only

let pipe_or sched = string_of_int (Sched.pipe_length sched)

(* A sweep must survive one point raising (e.g. the elliptic filter at
   L=5, expectedly unschedulable per §4.4.2.1): fold the exception into
   an infeasible row and keep regenerating the remaining experiments. *)
let attempt f =
  try f () with
  | Invalid_argument m | Failure m -> Error ("raised: " ^ m)
  | e -> Error ("raised: " ^ Printexc.to_string e)

let verify_or_die tag sched =
  match Sched.verify sched with
  | Ok () -> ()
  | Error m -> failwith (Printf.sprintf "%s: invalid schedule: %s" tag m)

module F = Mcs_flow.Flow
module A = Mcs_flow.Artifact
module Diag = Mcs_flow.Diag

(* Every full-flow experiment goes through the unified checked pipeline:
   one entry point, typed diagnostics, and (with MCS_CHECK=warn/strict)
   the static analyzer auditing each regenerated table.  The direct
   algorithm calls further down (most Bechamel tests, the ILP study)
   deliberately bypass it: they time one algorithm, not a pipeline. *)
let run_flow ?pipe_length flow d ~rate ~mode =
  attempt (fun () ->
      match
        Mcs_check.run flow (F.spec_of_design ?pipe_length ~mode ~flow d ~rate)
      with
      | Ok r -> Ok r
      | Error dg -> Error (Diag.message dg))

(* ---- Chapter 3: Figures 3.6 and 3.7 ---- *)

let ch3 () =
  section "E3.6 - AR filter, simple partitioning (Figs. 3.5-3.7)";
  let d = Benchmarks.ar_simple () in
  match run_flow F.Ch3 d ~rate:2 ~mode:C.Unidir with
  | Error m -> Format.fprintf fmt "FAILED: %s@." m
  | Ok r ->
      verify_or_die "ch3" r.F.schedule;
      Format.fprintf fmt
        "Schedule of the simple-partition AR filter (cf. Fig. 3.6), \
         initiation rate 2:@.%a@."
        Report.schedule r.F.schedule;
      (match r.F.connection with
      | A.Bundles links ->
          Format.fprintf fmt
            "@.Interchip connection per Theorem 3.1 (cf. Fig. 3.7):@.%a@."
            Report.bundles links
      | A.Buses _ | A.Subbuses _ -> ());
      Report.table fmt ~title:"Pins used per chip (budgets 112/48/48/32/32)"
        ~header:[ "P0"; "P1"; "P2"; "P3"; "P4" ]
        [ Report.pins_row r.F.pins ];
      Format.fprintf fmt "@.Pipe length: %s control steps@."
        (pipe_or r.F.schedule)

(* ---- Chapter 4: Tables 4.1-4.19, Figures 4.8-4.28 ---- *)

let ch4_design tag (d : Benchmarks.design) mode rates =
  let mode_name =
    match mode with C.Unidir -> "unidirectional" | C.Bidir -> "bidirectional"
  in
  section
    (Printf.sprintf "E4 - %s, %s I/O ports (cf. Tables %s)" d.Benchmarks.tag
       mode_name tag);
  let parts =
    Mcs_util.Listx.range 0 (Cdfg.n_partitions d.Benchmarks.cdfg + 1)
  in
  let cons_rows =
    List.map
      (fun rate ->
        match
          attempt (fun () ->
              Ok
                (match mode with
                | C.Unidir -> Benchmarks.constraints_for d ~rate
                | C.Bidir -> Benchmarks.constraints_for_bidir d ~rate))
        with
        | Error m -> [ string_of_int rate; "unavailable (" ^ m ^ ")" ]
        | Ok cons ->
        string_of_int rate
        :: List.map
             (fun p ->
               let fus =
                 List.filter_map
                   (fun ty ->
                     let n = Constraints.fu_count cons ~partition:p ~optype:ty in
                     if n > 0 then
                       Some
                         (Printf.sprintf "%d%s" n
                            (match ty with
                            | "add" -> "+"
                            | "mul" -> "*"
                            | t -> t))
                     else None)
                   [ "add"; "mul" ]
               in
               Printf.sprintf "%dP %s" (Constraints.pins cons p)
                 (String.concat " " fus))
             parts)
      rates
  in
  Report.table fmt
    ~title:"Resource constraints (cf. Tables 4.1 / 4.9 / 4.14 / 4.17)"
    ~header:("Rate" :: List.map (fun p -> "P" ^ string_of_int p) parts)
    cons_rows;
  Format.fprintf fmt "@.";
  let summary =
    List.map
      (fun rate ->
        match run_flow F.Ch4 d ~rate ~mode with
        | Error m ->
            Format.fprintf fmt "rate %d: FAILED (%s)@." rate m;
            [ string_of_int rate; "no schedule" ]
        | Ok r ->
            verify_or_die "ch4" r.F.schedule;
            (match r.F.connection with
            | A.Buses { conn; initial; assignment; allocation } ->
                Format.fprintf fmt
                  "-- Initiation rate %d: interchip connection (cf. Figs. \
                   4.8-4.10 / 4.14-4.16 / 4.21-4.26):@.%a@."
                  rate
                  (Report.connection d.Benchmarks.cdfg)
                  conn;
                Format.fprintf fmt "@.";
                Report.bus_assignment d.Benchmarks.cdfg fmt ~initial
                  ~final:assignment;
                Format.fprintf fmt "@.";
                Report.bus_allocation d.Benchmarks.cdfg ~rate fmt allocation
            | A.Bundles _ | A.Subbuses _ -> ());
            Format.fprintf fmt
              "@.Schedule (cf. Figs. 4.11-4.13 / 4.17-4.19 / \
               4.23-4.28):@.%a@.@."
              Report.schedule r.F.schedule;
            string_of_int rate
            :: (Report.pins_row r.F.pins
               @ [
                   pipe_or r.F.schedule;
                   (match
                      F.static_baseline
                        (F.spec_of_design ~mode ~flow:F.Ch4 d ~rate)
                        r
                    with
                   | Some n -> string_of_int n
                   | None -> "fail");
                 ]))
      rates
  in
  Report.table fmt
    ~title:
      "Summary (cf. Tables 4.2 / 4.10): pins used and control steps with / \
       without bus reassignment"
    ~header:
      ("Rate"
      :: (List.map (fun p -> "P" ^ string_of_int p) parts
         @ [ "w/ reass."; "w/o reass." ]))
    summary;
  Format.fprintf fmt "@."

let ch4 () =
  let ar = Benchmarks.ar_general () in
  ch4_design "4.1-4.8" ar C.Unidir ar.Benchmarks.rates;
  ch4_design "4.9-4.13" ar C.Bidir ar.Benchmarks.rates;
  let e = Benchmarks.elliptic () in
  ch4_design "4.14-4.16" e C.Unidir e.Benchmarks.rates;
  ch4_design "4.17-4.19" e C.Bidir e.Benchmarks.rates

(* ---- Chapter 5: Tables 5.1-5.4 ---- *)

let ch5_grid tag (d : Benchmarks.design) mode ~rates ~pls =
  section
    (Printf.sprintf "E5 - %s: FDS + clique partitioning (cf. Table %s)"
       d.Benchmarks.tag tag);
  let parts =
    Mcs_util.Listx.range 0 (Cdfg.n_partitions d.Benchmarks.cdfg + 1)
  in
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun pl ->
            match run_flow F.Ch5 d ~rate ~pipe_length:pl ~mode with
            | Error _ ->
                [ string_of_int rate; string_of_int pl; "infeasible" ]
            | Ok r ->
                verify_or_die "ch5" r.F.schedule;
                let fus ty =
                  String.concat "/"
                    (List.map
                       (fun p ->
                         match List.assoc_opt (p, ty) r.F.fus with
                         | Some n -> string_of_int n
                         | None -> "0")
                       (List.tl parts))
                in
                [ string_of_int rate; string_of_int pl ]
                @ Report.pins_row r.F.pins
                @ [ fus "add"; fus "mul" ])
          pls)
      rates
  in
  Report.table fmt
    ~title:"Resources required vs initiation rate and pipe length"
    ~header:
      ([ "Rate"; "PipeLen" ]
      @ List.map (fun p -> "P" ^ string_of_int p) parts
      @ [ "Adders"; "Multipliers" ])
    rows;
  Format.fprintf fmt "@."

let ch5_compare tag (d : Benchmarks.design) mode =
  section
    (Printf.sprintf
       "E5 - %s: Chapter 4 technique on the same points (cf. Table %s)"
       d.Benchmarks.tag tag);
  let parts =
    Mcs_util.Listx.range 0 (Cdfg.n_partitions d.Benchmarks.cdfg + 1)
  in
  (* A failed rate reads FAILED in the PipeLen column; its reason goes
     below the table, so it cannot widen a column. *)
  let failures = ref [] in
  let rows =
    List.map
      (fun rate ->
        match run_flow F.Ch4 d ~rate ~mode with
        | Error m ->
            failures := (rate, m) :: !failures;
            (string_of_int rate :: List.map (fun _ -> "") parts) @ [ "FAILED" ]
        | Ok r ->
            (* The paper's parenthesized figures: the same flow after the
               refinement loop's postponement/rerun improvement. *)
            let improved =
              let s = F.spec_of_design ~mode ~flow:F.Ch4 d ~rate in
              (Mcs_refine.Refine.improve ~max_iters:8 s r).result.F.pipe_length
            in
            string_of_int rate
            :: (Report.pins_row r.F.pins
               @ [ Printf.sprintf "%s (%d)" (pipe_or r.F.schedule) improved ]))
      d.Benchmarks.rates
  in
  Report.table fmt
    ~title:
      "Pipe length under the Chapter 4 flow (parenthesized: after \
       postponement improvement, cf. the paper's Table 5.2/5.4 notes)"
    ~header:
      ("Rate"
      :: (List.map (fun p -> "P" ^ string_of_int p) parts @ [ "PipeLen" ]))
    rows;
  List.iter
    (fun (rate, m) -> Format.fprintf fmt "rate %d FAILED: %s@." rate m)
    (List.rev !failures);
  Format.fprintf fmt "@."

let ch5 () =
  let ar = Benchmarks.ar_general () in
  ch5_grid "5.1" ar C.Bidir ~rates:[ 3; 4; 5 ] ~pls:[ 6; 7; 8; 9; 10 ];
  ch5_compare "5.2" ar C.Bidir;
  let e = Benchmarks.elliptic () in
  ch5_grid "5.3" e C.Unidir ~rates:[ 5; 6; 7 ] ~pls:[ 25; 26; 27; 28 ];
  ch5_compare "5.4" e C.Unidir

(* ---- Chapter 6: Tables 6.1-6.4, Figures 6.2-6.7 ---- *)

let ch6 () =
  section "E6 - sharing buses in a cycle (cf. Tables 6.1-6.4)";
  let d = Benchmarks.ar_general () in
  let comparison =
    List.filter_map
      (fun rate ->
        let nosharing =
          match run_flow F.Ch4 d ~rate ~mode:C.Bidir with
          | Ok r ->
              Some
                (Mcs_util.Listx.sum snd r.F.pins, Sched.pipe_length r.F.schedule)
          | Error _ -> None
        in
        match run_flow F.Ch6 d ~rate ~mode:C.Bidir with
        | Error m ->
            Format.fprintf fmt "rate %d: sharing flow FAILED (%s)@." rate m;
            None
        | Ok t ->
            verify_or_die "ch6" t.F.schedule;
            let buses, assignment =
              match t.F.connection with
              | A.Subbuses { buses; assignment; _ } -> (buses, assignment)
              | A.Bundles _ | A.Buses _ -> ([], [])
            in
            Format.fprintf fmt
              "-- Initiation rate %d: bus structure (cf. Figs. 6.2-6.4; ' \
               and '' mark sub-bus slices):@.%a@."
              rate
              (Report.real_buses d.Benchmarks.cdfg)
              buses;
            (* Bus assignment with slices (cf. Tables 6.1-6.3). *)
            Report.table fmt
              ~title:"I/O operation to bus assignment (cf. Tables 6.1-6.3)"
              ~header:[ "Operation"; "Bus.slice" ]
              (List.map
                 (fun (op, (bus, slice)) ->
                   [
                     Cdfg.name d.Benchmarks.cdfg op;
                     Printf.sprintf "C%d%s" (bus + 1)
                       (match slice with
                       | Subbus.Lo -> "'"
                       | Subbus.Hi -> "''"
                       | Subbus.Whole -> "");
                   ])
                 assignment);
            Format.fprintf fmt "@.Schedule (cf. Figs. 6.5-6.7):@.%a@.@."
              Report.schedule t.F.schedule;
            let sh_pins = Mcs_util.Listx.sum snd t.F.pins in
            Some
              [
                string_of_int rate;
                (match nosharing with
                | Some (p, _) -> string_of_int p
                | None -> "-");
                (match nosharing with
                | Some (_, l) -> string_of_int l
                | None -> "-");
                string_of_int sh_pins;
                pipe_or t.F.schedule;
              ])
      d.Benchmarks.rates
  in
  Report.table fmt
    ~title:
      "Comparison (cf. Table 6.4): total pins and pipe length, bidirectional \
       ports"
    ~header:
      [ "Rate"; "Pins (no shr)"; "Pipe (no shr)"; "Pins (shr)"; "Pipe (shr)" ]
    comparison;
  Format.fprintf fmt "@.";
  let demo = Benchmarks.subbus_demo () in
  let ch4r =
    match run_flow F.Ch4 demo ~rate:3 ~mode:C.Bidir with
    | Ok r ->
        Printf.sprintf "feasible (%d pins)" (Mcs_util.Listx.sum snd r.F.pins)
    | Error _ -> "infeasible"
  in
  match run_flow F.Ch6 demo ~rate:3 ~mode:C.Bidir with
  | Ok t ->
      verify_or_die "ch6-demo" t.F.schedule;
      let buses =
        match t.F.connection with
        | A.Subbuses { buses; _ } -> buses
        | A.Bundles _ | A.Buses _ -> []
      in
      Format.fprintf fmt
        "Sub-bus demo (one 32-bit + four 8-bit transfers, 40-pin budget): \
         without sharing: %s; with sharing: feasible (%d pins, pipe %s)@.%a@."
        ch4r
        (Mcs_util.Listx.sum snd t.F.pins)
        (pipe_or t.F.schedule)
        (Report.real_buses demo.Benchmarks.cdfg)
        buses
  | Error m -> Format.fprintf fmt "sub-bus demo FAILED: %s@." m

(* ---- Chapter 7 ---- *)

let ch7 () =
  section "E7 - extensions (Chapter 7)";
  let yes =
    Extensions.Recursion.theorem71_instance ~tasks:3
      ~precedence:[ (1, 2); (2, 3) ]
      ~machines:1 ~deadline:3
  in
  let no =
    Extensions.Recursion.theorem71_instance ~tasks:4
      ~precedence:[ (1, 2); (2, 3); (3, 4) ]
      ~machines:1 ~deadline:3
  in
  let run (cdfg, cons, mlib, rate) =
    ( Extensions.Recursion.schedulable_sharing_one_bus cdfg cons mlib ~rate,
      Extensions.Recursion.schedulable_with_two_buses cdfg cons mlib ~rate )
  in
  let y1, y2 = run yes and n1, n2 = run no in
  Report.table fmt
    ~title:
      "Theorem 7.1: forcing two I/O operations onto one bus encodes \
       precedence-constrained scheduling"
    ~header:[ "PCS instance"; "one bus"; "two buses" ]
    [
      [ "3-chain, deadline 3 (yes)"; string_of_bool y1; string_of_bool y2 ];
      [ "4-chain, deadline 3 (no)"; string_of_bool n1; string_of_bool n2 ];
    ];
  Format.fprintf fmt "@.";
  let d = Benchmarks.cond_demo () in
  let groups =
    Extensions.Cond_share.run d.cdfg d.mlib ~rate:2 ~pipe_length:8 ()
  in
  Report.table fmt
    ~title:
      "Conditional I/O sharing (Fig. 7.7 heuristic) on the conditional demo"
    ~header:[ "Shared slot group"; "Frame" ]
    (List.map
       (fun (g : Extensions.Cond_share.group) ->
         [
           String.concat " " (List.map (Cdfg.name d.cdfg) g.members);
           Printf.sprintf "[%d, %d]" (fst g.frame) (snd g.frame);
         ])
       groups);
  Format.fprintf fmt "Pins saved by conditional sharing: %d@.@."
    (Extensions.Cond_share.pins_saved d.cdfg groups);
  let ar = Benchmarks.ar_general () in
  let before, after =
    Extensions.Tdm.pin_effect ar.cdfg ~value:"a24" ~dst:3 ~parts:2
  in
  let cdfg' =
    Extensions.Tdm.apply ar.cdfg ~value:"a24" ~dst:3 ~parts:2
      ~split_optype:"split" ~merge_optype:"merge"
  in
  Format.fprintf fmt
    "TDM (Fig. 7.8): splitting the 16-bit transfer X1 into 2 parts: %d -> %d \
     pins on that path; CDFG grows %d -> %d nodes (split/merge glue).@.@."
    before after (Cdfg.n_ops ar.cdfg) (Cdfg.n_ops cdfg');
  let bad, good = Extensions.Multicycle.fragmentation_demo () in
  Format.fprintf fmt
    "Allocation wheel (Fig. 7.10): three 2-cycle ops on one wheel of rate 6 \
     - Eq. 7.5 bound = %d FU; placement at groups {0,3} leaves no two \
     adjacent free cells (third op fits: %b), placement at groups {0,2} does \
     (fits: %b).@.@."
    (Extensions.Multicycle.lower_bound ~ops:3 ~rate:6 ~cycles:2)
    bad good

(* ---- Data-path binding and functional verification ---- *)

let rtl_and_verify () =
  section "E-RTL - data-path binding and functional verification";
  let rows = ref [] in
  let add_design (d : Benchmarks.design) ~rate ~mode =
    match run_flow F.Ch4 d ~rate ~mode with
    | Error m ->
        Format.fprintf fmt "%s rate %d: flow failed (%s)@." d.Benchmarks.tag
          rate m
    | Ok r ->
        let cons =
          match mode with
          | C.Unidir -> Benchmarks.constraints_for d ~rate
          | C.Bidir -> Benchmarks.constraints_for_bidir d ~rate
        in
        let conn, assignment =
          match r.F.connection with
          | A.Buses { conn; assignment; _ } -> (conn, assignment)
          | A.Bundles _ | A.Subbuses _ ->
              failwith "rtl: the Chapter 4 flow produces shared buses"
        in
        let sim =
          match
            Mcs_sim.Simulate.check_equivalent r.F.schedule
              ~bus_of:(fun op -> [ List.assoc op assignment ])
              ~bus_capable:(fun bus op ->
                C.capable conn d.Benchmarks.cdfg ~bus op)
              ~seed:2026 ~instances:8
          with
          | Ok () -> "machine == reference"
          | Error m -> "MISMATCH: " ^ m
        in
        (match Mcs_rtl.Datapath.build r.F.schedule cons with
        | Error m ->
            Format.fprintf fmt "%s rate %d: binding failed (%s)@."
              d.Benchmarks.tag rate m
        | Ok rtl ->
            let parts =
              Mcs_util.Listx.range 1 (Cdfg.n_partitions d.Benchmarks.cdfg + 1)
            in
            rows :=
              !rows
              @ [
                  [
                    d.Benchmarks.tag;
                    string_of_int rate;
                    String.concat "/"
                      (List.map
                         (fun p ->
                           string_of_int (Mcs_rtl.Datapath.register_count rtl p))
                         parts);
                    String.concat "/"
                      (List.map
                         (fun p ->
                           string_of_int (Mcs_rtl.Datapath.mux_input_total rtl p))
                         parts);
                    sim;
                  ];
                ])
  in
  add_design (Benchmarks.ar_general ()) ~rate:3 ~mode:C.Unidir;
  add_design (Benchmarks.ar_general ()) ~rate:4 ~mode:C.Unidir;
  add_design (Benchmarks.ar_general ()) ~rate:5 ~mode:C.Unidir;
  add_design (Benchmarks.elliptic ()) ~rate:6 ~mode:C.Unidir;
  add_design (Benchmarks.elliptic ()) ~rate:7 ~mode:C.Unidir;
  Report.table fmt
    ~title:
      "Registers and multiplexer fan-in per chip (cyclic left-edge binding), \
       plus an 8-instance functional simulation against the CDFG semantics"
    ~header:[ "Design"; "Rate"; "Registers"; "Mux fan-in"; "Simulation" ]
    !rows;
  Format.fprintf fmt "@."

(* ---- Scaling study ---- *)

let scaling () =
  section
    "E-scale - heuristic connection synthesis at sizes beyond the ILP \
     (the paper's motivation for Fig. 4.3)";
  let rows =
    List.map
      (fun (sections, chips) ->
        let d = Benchmarks.ar_scaled ~sections ~chips in
        let rate = List.hd d.Benchmarks.rates in
        let t0 = Unix.gettimeofday () in
        match run_flow F.Ch4 d ~rate ~mode:C.Unidir with
        | Error m ->
            [ d.Benchmarks.tag; "-"; "-"; "-"; "FAILED: " ^ m ]
        | Ok r ->
            verify_or_die "scale" r.F.schedule;
            [
              d.Benchmarks.tag;
              string_of_int (Cdfg.n_ops d.Benchmarks.cdfg);
              string_of_int (Mcs_util.Listx.sum snd r.F.pins);
              pipe_or r.F.schedule;
              Printf.sprintf "%.2f s" (Unix.gettimeofday () -. t0);
            ])
      [ (4, 4); (8, 4); (16, 8); (32, 8); (48, 12) ]
  in
  Report.table fmt
    ~title:
      "Connection-first flow on scaled lattice filters (rate 4): the \
       heuristic stays tractable where \"the run time to solve the ILP ... \
       will grow drastically\" (1.3)"
    ~header:[ "Design"; "Ops"; "Total pins"; "Pipe"; "Wall time" ]
    rows;
  Format.fprintf fmt "@."

(* ---- Warm-started ILP core ---- *)

(* The two fixed pin-ILP instances the pivot budgets of test/budgets.ml
   are pinned to; both searches are deterministic, so the pivot and node
   counts below are exact machine-independent numbers. *)
let ilp_cases () =
  [
    ("ar-general", Benchmarks.ar_general (), 3);
    ("elliptic", Benchmarks.elliptic (), 6);
  ]

let m_pivots = Mcs_obs.Metrics.counter "simplex.pivots"
let m_fpivots = Mcs_obs.Metrics.counter "fsimplex.pivots"
let m_nodes = Mcs_obs.Metrics.counter "bb.nodes"

(* Under the default float-certified arithmetic most pivots land in
   [fsimplex.pivots]; experiments that run whatever arith the flow picks
   (the serve grid) count both so the numbers survive either mode. *)
let all_pivots () = Mcs_obs.Metrics.count m_pivots + Mcs_obs.Metrics.count m_fpivots

let ilp_measure (d : Benchmarks.design) rate =
  let cons = Benchmarks.constraints_for d ~rate in
  let m = Simple_part.Pin_ilp.model d.Benchmarks.cdfg cons ~rate ~fixed:[] in
  let p, integer = Mcs_ilp.Model.to_problem m in
  let counted f =
    let p0 = Mcs_obs.Metrics.count m_pivots
    and n0 = Mcs_obs.Metrics.count m_nodes in
    (* Model building just allocated heavily; flush that GC debt now so
       the timed region pays only for its own work — it otherwise lands
       as a near-constant tax that swamps the fast solver's wall. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    ( r,
      Mcs_obs.Metrics.count m_pivots - p0,
      Mcs_obs.Metrics.count m_nodes - n0,
      Unix.gettimeofday () -. t0 )
  in
  let warm, wp, wn, wt =
    counted (fun () -> Mcs_ilp.Branch_bound.solve ~integer p)
  in
  let cold, cp, cn, ct =
    counted (fun () -> Mcs_ilp.Branch_bound.solve_cold ~integer p)
  in
  let agree =
    match (warm, cold) with
    | Mcs_ilp.Branch_bound.Optimal a, Mcs_ilp.Branch_bound.Optimal b ->
        Mcs_util.Ratio.equal a.Mcs_ilp.Simplex.value b.Mcs_ilp.Simplex.value
    | Mcs_ilp.Branch_bound.Infeasible, Mcs_ilp.Branch_bound.Infeasible -> true
    | _ -> false
  in
  (wp, wn, wt, cp, cn, ct, agree)

(* ---- Hybrid arithmetic: float-first certified vs exact rational ---- *)

let m_fpivots = Mcs_obs.Metrics.counter "fsimplex.pivots"
let m_certify_ok = Mcs_obs.Metrics.counter "ilp.certify.ok"
let m_certify_fail = Mcs_obs.Metrics.counter "ilp.certify.fail"

(* The same pin-ILP instance down the float-first path: float pivots,
   certification verdicts, wall, and agreement of the (exact, certified)
   objective with the rational reference.  The warm registry is cleared
   on both sides so the measurement stands alone. *)
let ilp_measure_float (d : Benchmarks.design) rate =
  let cons = Benchmarks.constraints_for d ~rate in
  let m = Simple_part.Pin_ilp.model d.Benchmarks.cdfg cons ~rate ~fixed:[] in
  let p, integer = Mcs_ilp.Model.to_problem m in
  Mcs_ilp.Warm.clear ();
  let fp0 = Mcs_obs.Metrics.count m_fpivots
  and ok0 = Mcs_obs.Metrics.count m_certify_ok
  and fail0 = Mcs_obs.Metrics.count m_certify_fail in
  Gc.full_major () (* same timing hygiene as [ilp_measure] *);
  let t0 = Unix.gettimeofday () in
  let fl, _ = Mcs_ilp.Branch_bound.solve_float ~integer p in
  let fwall = Unix.gettimeofday () -. t0 in
  let ra = Mcs_ilp.Branch_bound.solve ~integer p in
  let agree =
    match (fl, ra) with
    | Mcs_ilp.Branch_bound.Optimal a, Mcs_ilp.Branch_bound.Optimal b ->
        Mcs_util.Ratio.equal a.Mcs_ilp.Simplex.value b.Mcs_ilp.Simplex.value
    | Mcs_ilp.Branch_bound.Infeasible, Mcs_ilp.Branch_bound.Infeasible -> true
    | _ -> false
  in
  ( Mcs_obs.Metrics.count m_fpivots - fp0,
    Mcs_obs.Metrics.count m_certify_ok - ok0,
    Mcs_obs.Metrics.count m_certify_fail - fail0,
    fwall,
    agree )

(* Cross-grid warm starts: the pin ILP swept over ascending rates, once
   with the registry cleared before every point (cold) and once letting
   neighboring points chain bases through the rate-independent Warm
   site key. *)
let ilp_grid_rates = [ 3; 4; 5 ]

let ilp_grid_measure (d : Benchmarks.design) ~chained =
  Mcs_ilp.Warm.clear ();
  let fp0 = Mcs_obs.Metrics.count m_fpivots in
  Gc.full_major () (* same timing hygiene as [ilp_measure] *);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun rate ->
      if not chained then Mcs_ilp.Warm.clear ();
      let cons = Benchmarks.constraints_for d ~rate in
      ignore
        (Simple_part.Pin_ilp.feasible ~arith:Mcs_ilp.Fsimplex.Float_certified
           d.Benchmarks.cdfg cons ~rate ~fixed:[]))
    ilp_grid_rates;
  let r =
    (Mcs_obs.Metrics.count m_fpivots - fp0, Unix.gettimeofday () -. t0)
  in
  Mcs_ilp.Warm.clear ();
  r

let ilp () =
  section "E-ILP - warm-started branch & bound vs cold re-solve (pin ILPs)";
  let rows =
    List.map
      (fun (name, d, rate) ->
        let wp, wn, wt, cp, cn, ct, agree = ilp_measure d rate in
        [
          name;
          string_of_int rate;
          string_of_int cp;
          string_of_int cn;
          Printf.sprintf "%.3f s" ct;
          string_of_int wp;
          string_of_int wn;
          Printf.sprintf "%.3f s" wt;
          Printf.sprintf "%.0fx" (float_of_int cp /. float_of_int (max 1 wp));
          string_of_bool agree;
        ])
      (ilp_cases ())
  in
  Report.table fmt
    ~title:
      "Pivots and nodes to decide the Chapter 3 pin ILP: cold re-solve at \
       every node vs dual-simplex warm start"
    ~header:
      [
        "Design"; "Rate"; "Cold piv"; "Cold nodes"; "Cold wall"; "Warm piv";
        "Warm nodes"; "Warm wall"; "Pivot ratio"; "Agree";
      ]
    rows;
  Format.fprintf fmt "@.";
  let hrows =
    List.map
      (fun (name, d, rate) ->
        let _, _, rwall, _, _, _, _ = ilp_measure d rate in
        let fp, ok, fail, fwall, agree = ilp_measure_float d rate in
        [
          name;
          string_of_int rate;
          Printf.sprintf "%.3f s" rwall;
          string_of_int fp;
          Printf.sprintf "%.3f s" fwall;
          Printf.sprintf "%.1fx" (rwall /. Float.max 1e-9 fwall);
          Printf.sprintf "%d/%d" ok fail;
          string_of_bool agree;
        ])
      (ilp_cases ())
  in
  Report.table fmt
    ~title:
      "Hybrid arithmetic on the same warm search: float64 pivots with \
       exact rational certification of every accepted basis"
    ~header:
      [
        "Design"; "Rate"; "Rational wall"; "Float piv"; "Float wall";
        "Speedup"; "Cert ok/fail"; "Agree";
      ]
    hrows;
  let d = Benchmarks.ar_general () in
  let cold_p, cold_w = ilp_grid_measure d ~chained:false in
  let ch_p, ch_w = ilp_grid_measure d ~chained:true in
  Format.fprintf fmt
    "Cross-grid warm start (ar-general pin ILP, rates %s): cold %d \
     pivots / %.3f s, chained %d pivots / %.3f s@.@."
    (String.concat "," (List.map string_of_int ilp_grid_rates))
    cold_p cold_w ch_p ch_w

(* ---- Design-space exploration through the engine ---- *)

module E_job = Mcs_engine.Job
module E_pool = Mcs_engine.Pool
module E_outcome = Mcs_engine.Outcome

(* The paper's AR-filter table sweeps (Tables 4.2, 4.10, 5.1 and the
   Chapter 6 comparison) as one batch, run with one worker (the caller)
   and then with four: same results, measured wall-clock speedup. *)
let dse () =
  section "E-DSE - the paper's table sweeps as engine batch jobs";
  let ar = E_job.Named "ar-general" in
  let jobs =
    E_job.grid ~designs:[ ar ]
      ~flows:[ E_job.Ch4_unidir; E_job.Ch4_bidir ]
      ~rates:[ 3; 4; 5 ] ()
    @ E_job.grid ~designs:[ ar ] ~flows:[ E_job.Ch5 ] ~rates:[ 3; 4; 5 ]
        ~pipe_lengths:[ 6; 7; 8; 9; 10 ] ()
    @ E_job.grid ~designs:[ ar ] ~flows:[ E_job.Ch6 ] ~rates:[ 3; 4; 5 ] ()
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, t_seq = timed (fun () -> E_pool.run ~jobs:1 jobs) in
  let par, t_par = timed (fun () -> E_pool.run ~jobs:4 jobs) in
  (* The answers, not the per-job solver effort: jobs share the
     process-wide warm-start registry, so effort depends on what ran
     before. *)
  let answer (o : E_outcome.t) =
    E_outcome.to_string { o with E_outcome.solver = None }
  in
  let identical =
    List.for_all2 (fun a b -> answer a = answer b) seq par
  in
  let front = Mcs_engine.Pareto.frontier par in
  Report.table fmt
    ~title:
      "Sweep results (pins / pipe length / functional units per point, * = \
       Pareto-optimal)"
    ~header:[ "Flow"; "Rate"; "PL req"; "Status"; "Pins"; "Pipe"; "FUs"; "" ]
    (List.map
       (fun (o : E_outcome.t) ->
         let j = o.E_outcome.job in
         let feas = E_outcome.is_feasible o in
         [
           E_job.flow_to_string j.E_job.flow;
           string_of_int j.E_job.rate;
           (match j.E_job.pipe_length with
           | Some pl -> string_of_int pl
           | None -> "-");
           E_outcome.status_label o.E_outcome.status;
           (if feas then string_of_int (E_outcome.pins_total o) else "-");
           (if feas then string_of_int o.E_outcome.pipe_length else "-");
           (if feas then string_of_int o.E_outcome.fu_count else "-");
           (if List.memq o front then "*" else "");
         ])
       par);
  Format.fprintf fmt
    "@.%d jobs: sequential %.2f s, 4 workers %.2f s (speedup %.2fx); \
     parallel results identical to sequential: %b@.@."
    (List.length jobs) t_seq t_par
    (t_seq /. Float.max 1e-9 t_par)
    identical

(* ---- Synthesis-as-a-service: warm daemon vs cold CLI ---- *)

module S_server = Mcs_server.Server
module S_client = Mcs_server.Client
module S_proto = Mcs_server.Protocol
module Jx = Mcs_obs.Report_json

(* The 10 unique points of the serve grid; the session submits every
   one twice (20 jobs), the shape of an iterative exploration where the
   second pass is pure rework.  A cold CLI pays for all 20; the warm
   daemon's coalescing and cache pay for each unique point once.  The
   two ch3 points go through the pin ILP, so solver pivots are part of
   what deduplication saves. *)
let serve_uniq () =
  let ar = E_job.Named "ar-general" in
  E_job.grid ~designs:[ ar ] ~flows:[ E_job.Ch4_unidir ] ~rates:[ 3; 4; 5 ] ()
  @ E_job.grid ~designs:[ ar ] ~flows:[ E_job.Ch4_bidir ] ~rates:[ 3; 4 ] ()
  @ E_job.grid ~designs:[ ar ] ~flows:[ E_job.Ch5 ] ~rates:[ 4 ]
      ~pipe_lengths:[ 8; 9 ] ()
  @ E_job.grid ~designs:[ ar ] ~flows:[ E_job.Ch6 ] ~rates:[ 3 ] ()
  @ E_job.grid
      ~designs:
        [
          E_job.Named "ar-simple";
          E_job.Random_simple { seed = 3; n_partitions = 2; ops_per_chip = 4 };
        ]
      ~flows:[ E_job.Ch3 ] ~rates:[ 2 ] ()

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

type serve_numbers = {
  n_jobs : int;
  cold_wall : float;
  warm_wall : float;
  cold_pivots : int;
  warm_pivots : int;
  cache_hits : int;
  cache_misses : int;
  coalesced : int;
  warm_replied : int; (* warm replies that carried an outcome *)
}

let rm_rf dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

(* A daemon in this process: the server loop on a domain of its own, with
   the caller as its client.  The daemon shares this process's counters,
   so everything it reports is a delta over their values at start. *)
let with_daemon (config : S_server.config) f =
  let t = S_server.create ~config () in
  let d = Domain.spawn (fun () -> S_server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      S_server.request_shutdown t;
      Domain.join d)
    (fun () ->
      let c = S_client.connect_unix config.S_server.socket_path in
      Fun.protect
        ~finally:(fun () ->
          (match S_client.shutdown c with
          | Ok _ -> ()
          | Error m -> Format.eprintf "bench daemon shutdown: %s@." m);
          S_client.close c)
        (fun () -> f c))

(* Cold side: each job as its own fresh run (what 20 CLI invocations
   cost, minus process startup — charitable to cold).  Warm side: a
   daemon with one worker domain, a warm cache and a batching window; its
   solver work is read back from the mcs-serve/1 stats. *)
let serve_numbers () =
  let uniq = serve_uniq () in
  (* Wave 1 repeats half the grid while it is still in flight (those
     duplicates coalesce); wave 2 repeats the other half after wave 1
     has settled (those are warm-cache hits).  20 jobs in all. *)
  let wave1 = uniq @ take 5 uniq in
  let wave2 = drop 5 uniq in
  let jobs = wave1 @ wave2 in
  let p0 = all_pivots () in
  let t0 = Unix.gettimeofday () in
  let cold = List.concat_map (fun j -> E_pool.run ~jobs:1 [ j ]) jobs in
  let cold_wall = Unix.gettimeofday () -. t0 in
  let cold_pivots = all_pivots () - p0 in
  assert (List.length cold = List.length jobs);
  let sock =
    Printf.sprintf "%s/mcs-bench-serve-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  let cache_dir =
    Printf.sprintf "%s/mcs-bench-serve-cache-%d"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  let config =
    {
      S_server.default_config with
      S_server.socket_path = sock;
      (* One worker domain on purpose: this experiment isolates what the
         daemon's deduplication (coalescing + warm cache) saves, not SMP
         scaling.  The historical two-domain slowdown on this grid (4.7 s
         vs 2.9 s) was diagnosed as stop-the-world minor-GC
         synchronisation — under the default 256k-word minor heap the
         allocation-heavy flows barrier every other domain every few ms;
         with >= 1M words the wall is flat in the domain count.  The
         mcs-serve binary fixes it by re-exec'ing with OCAMLRUNPARAM=s=4M
         (see Supervisor.recommended_minor_heap_words); this in-process
         daemon can't re-exec, one more reason to keep domains = 1 here. *)
      domains = 1;
      cache_dir = Some cache_dir;
      window_ms = 25.0;
    }
  in
  let p_start = all_pivots () in
  (* The in-process daemon reports process-wide counters: count from
     here, so a second session in the same bench run reads its own. *)
  let counted name = Mcs_obs.Metrics.(count (counter name)) in
  let hits0 = counted "engine.cache.hits"
  and misses0 = counted "engine.cache.misses"
  and coalesced0 = counted "server.coalesced" in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir) @@ fun () ->
  with_daemon config (fun c ->
      let subs js =
        List.map
          (fun j ->
            { S_proto.id = ""; job = j; deadline_ms = None; fallback = true })
          js
      in
      let t1 = Unix.gettimeofday () in
      let wave js =
        match S_client.submit_all c (subs js) with
        | Ok rs -> rs
        | Error m -> failwith ("serve bench: " ^ m)
      in
      let r1 = wave wave1 in
      let r2 = wave wave2 in
      let replies = r1 @ r2 in
      let warm_wall = Unix.gettimeofday () -. t1 in
      let stats =
        match S_client.stats c with
        | Ok j -> j
        | Error m -> failwith ("serve bench stats: " ^ m)
      in
      let stat name =
        Option.value ~default:0 (Option.bind (Jx.member name stats) Jx.to_int)
      in
      let metric name =
        Option.value ~default:0
          (Option.bind
             (Option.bind (Jx.member "metrics" stats) (Jx.member name))
             Jx.to_int)
      in
      {
        n_jobs = List.length jobs;
        cold_wall;
        warm_wall;
        cold_pivots;
        warm_pivots =
          metric "simplex.pivots" + metric "fsimplex.pivots" - p_start;
        cache_hits = stat "cache_hits" - hits0;
        cache_misses = stat "cache_misses" - misses0;
        coalesced = stat "coalesced" - coalesced0;
        warm_replied =
          List.length
            (List.filter
               (fun (r : S_proto.reply) -> r.S_proto.outcome <> None)
               replies);
      })

let serve () =
  section
    "E-serve - warm daemon vs 20 cold CLI runs on a repeated DSE grid";
  let n = serve_numbers () in
  Report.table fmt
    ~title:
      "Same 20-job grid (10 unique points, submitted twice): cold \
       per-job runs vs one daemon with coalescing and a warm cache"
    ~header:
      [ "Mode"; "Jobs"; "Wall"; "Simplex pivots"; "Cache hits"; "Coalesced" ]
    [
      [
        "cold CLI";
        string_of_int n.n_jobs;
        Printf.sprintf "%.2f s" n.cold_wall;
        string_of_int n.cold_pivots;
        "-";
        "-";
      ];
      [
        "warm daemon";
        string_of_int n.n_jobs;
        Printf.sprintf "%.2f s" n.warm_wall;
        string_of_int n.warm_pivots;
        string_of_int n.cache_hits;
        string_of_int n.coalesced;
      ];
    ];
  Format.fprintf fmt
    "@.all %d daemon replies carried outcomes: %b; duplicates deduplicated \
     (coalesced + cache hits): %d; warm pivots %d < cold pivots %d: %b@.@."
    n.n_jobs
    (n.warm_replied = n.n_jobs)
    (n.coalesced + n.cache_hits)
    n.warm_pivots n.cold_pivots
    (n.warm_pivots < n.cold_pivots)

(* ---- E-chaos: crash-safe serving under injected faults ---- *)

module S_wal = Mcs_server.Wal

type chaos_numbers = {
  x_clean_sent : int;  (* clean jobs in the burst *)
  x_clean_answered : int;  (* ... that came back with outcomes *)
  x_poisoned : int;  (* jobs quarantined by the supervisor *)
  x_requeued : int;  (* entries requeued after domain deaths *)
  x_respawns : int;  (* worker domains respawned *)
  x_burst_wall : float;
  x_owed : int;  (* admits journaled before the simulated crash *)
  x_recovered : int;  (* ... replayed by --recover *)
  x_recover_wall : float;  (* daemon start to last owed reply *)
}

let chaos_job seed =
  E_job.make
    ~design:(E_job.Random_simple { seed; n_partitions = 2; ops_per_chip = 3 })
    ~flow:E_job.Ch3 ~rate:2 ()

(* Two phases, both with deterministic counters.

   Burst: a daemon under MCS_FAULT=kill-domain:2 gets one victim job
   (both kills land on it — nothing else is in flight — so it takes two
   strikes and is quarantined: poisoned = 1, requeued = 1 after the
   first death, respawns = 2) followed by a clean burst that must all
   be answered by the respawned pool.

   Recovery: a journal owing [x_owed] admits (written directly — the
   "crash" happened before any dispatch) is replayed by a fresh daemon
   with recover = true; the wall from daemon start to the last owed
   reply is the recovery cost a restart pays. *)
let chaos_numbers () =
  let tmp = Filename.get_temp_dir_name () in
  let sock = Printf.sprintf "%s/mcs-bench-chaos-%d.sock" tmp (Unix.getpid ()) in
  let wal = Printf.sprintf "%s/mcs-bench-chaos-%d.wal" tmp (Unix.getpid ()) in
  (try Sys.remove wal with Sys_error _ -> ());
  let stat stats name =
    Option.value ~default:0 (Option.bind (Jx.member name stats) Jx.to_int)
  in
  let stats_of c =
    match S_client.stats c with
    | Ok j -> j
    | Error m -> failwith ("chaos bench stats: " ^ m)
  in
  (* The daemon shares this process's counters; everything it reports is
     read as a delta over their values before it started. *)
  let parent_count name = Mcs_obs.Metrics.count (Mcs_obs.Metrics.counter name) in
  let with_daemon ~fault ~recover f =
    Unix.putenv "MCS_FAULT" fault;
    Fun.protect ~finally:(fun () -> Unix.putenv "MCS_FAULT" "") @@ fun () ->
    with_daemon
      {
        S_server.default_config with
        S_server.socket_path = sock;
        domains = 2;
        window_ms = 5.0;
        wal_path = Some wal;
        recover;
      }
      f
  in
  (* Phase 1: the kill-domain burst. *)
  let respawns0 = parent_count "server.respawns" in
  let requeued0 = parent_count "server.requeued" in
  let poisoned0 = parent_count "server.poisoned" in
  let n_clean = 8 in
  let burst =
    with_daemon ~fault:"kill-domain:2" ~recover:false (fun c ->
        let t0 = Unix.gettimeofday () in
        let submit js =
          match
            S_client.submit_all c
              (List.map
                 (fun j ->
                   {
                     S_proto.id = "";
                     job = j;
                     deadline_ms = None;
                     fallback = true;
                   })
                 js)
          with
          | Ok rs -> rs
          | Error m -> failwith ("chaos bench: " ^ m)
        in
        (* The victim rides alone so both kill shots hit it. *)
        let victim_replies = submit [ chaos_job 91 ] in
        let clean_replies =
          submit (List.init n_clean (fun i -> chaos_job (100 + i)))
        in
        let burst_wall = Unix.gettimeofday () -. t0 in
        let poisoned_replies =
          List.length
            (List.filter
               (fun (r : S_proto.reply) ->
                 match r.S_proto.diag with
                 | Some d -> d.S_proto.code = "poisoned"
                 | None -> false)
               victim_replies)
        in
        (* Both deaths respawn shortly after the replies (backoff). *)
        let deadline = Unix.gettimeofday () +. 10.0 in
        let rec settle stats =
          if
            stat stats "respawns" - respawns0 >= 2
            || Unix.gettimeofday () > deadline
          then stats
          else begin
            Unix.sleepf 0.05;
            settle (stats_of c)
          end
        in
        let stats = settle (stats_of c) in
        ( poisoned_replies,
          List.length
            (List.filter
               (fun (r : S_proto.reply) -> r.S_proto.outcome <> None)
               clean_replies),
          burst_wall,
          stat stats "poisoned" - poisoned0,
          stat stats "requeued" - requeued0,
          stat stats "respawns" - respawns0 ))
  in
  let ( poisoned_replies,
        clean_answered,
        burst_wall,
        s_poisoned,
        s_requeued,
        s_respawns ) =
    burst
  in
  assert (poisoned_replies = s_poisoned);
  (* Phase 2: crash-recovery replay.  Write the owed journal directly:
     the simulated daemon died after fsync'ing the admits, before any
     dispatch. *)
  (try Sys.remove wal with Sys_error _ -> ());
  let owed = 6 in
  let w = S_wal.open_ wal in
  List.iter
    (fun i ->
      S_wal.append w
        (S_wal.Admit
           {
             id = Printf.sprintf "owed%d" i;
             job = chaos_job (200 + i);
             deadline_ms = None;
             fallback = true;
           }))
    (List.init owed (fun i -> i));
  S_wal.close w;
  let served0 = parent_count "server.served" in
  let recovered0 = parent_count "server.wal.recovered" in
  let t1 = Unix.gettimeofday () in
  let recovered, recover_wall =
    with_daemon ~fault:"" ~recover:true (fun c ->
        let deadline = Unix.gettimeofday () +. 30.0 in
        let rec settle stats =
          if
            stat stats "served" - served0 >= owed
            || Unix.gettimeofday () > deadline
          then stats
          else begin
            Unix.sleepf 0.05;
            settle (stats_of c)
          end
        in
        let stats = settle (stats_of c) in
        (stat stats "wal_recovered" - recovered0, Unix.gettimeofday () -. t1))
  in
  (try Sys.remove wal with Sys_error _ -> ());
  {
    x_clean_sent = n_clean;
    x_clean_answered = clean_answered;
    x_poisoned = s_poisoned;
    x_requeued = s_requeued;
    x_respawns = s_respawns;
    x_burst_wall = burst_wall;
    x_owed = owed;
    x_recovered = recovered;
    x_recover_wall = recover_wall;
  }

let chaos () =
  section "E-chaos - crash-safe serving: poison quarantine and WAL replay";
  let n = chaos_numbers () in
  Report.table fmt
    ~title:
      "Daemon under injected faults: a lethal job plus a clean burst \
       (MCS_FAULT=kill-domain:2), then journal replay after a \
       simulated crash"
    ~header:
      [ "Phase"; "Requests"; "Answered"; "Respawns"; "Requeued"; "Poisoned"; "Wall" ]
    [
      [
        "kill-domain burst";
        string_of_int (1 + n.x_clean_sent);
        string_of_int (1 + n.x_clean_answered);
        (* the victim's poisoned reply is an answer *)
        string_of_int n.x_respawns;
        string_of_int n.x_requeued;
        string_of_int n.x_poisoned;
        Printf.sprintf "%.2f s" n.x_burst_wall;
      ];
      [
        "WAL recovery";
        string_of_int n.x_owed;
        string_of_int n.x_recovered;
        "-";
        "-";
        "-";
        Printf.sprintf "%.2f s" n.x_recover_wall;
      ];
    ];
  Format.fprintf fmt
    "@.every accepted request answered exactly once: %b; requests lost \
     across the crash: %d@.@."
    (n.x_clean_answered = n.x_clean_sent && n.x_poisoned = 1)
    (n.x_owed - n.x_recovered)

(* ---- E-refine: refinement recovers a forced degradation ---- *)

module Rf = Mcs_refine.Refine

type refine_numbers = {
  obj_exact : int;
  obj_degraded : int;
  obj_refined : int;
  r_iters : int;
  r_accepted : int;
  r_wall : float;
}

(* cond-demo / ch6 / rate 4 under MCS_FAULT=exhaust-heuristic:1: the one
   armed shot kills the sub-bus search at entry, the ladder degrades to
   one dedicated bus per value (objective 88003 = 1000*pins + pipe), and
   the refinement loop's re-climb — re-running the flow ladder-free now
   that the shot is spent — recovers the exact result (48008).  Every
   counter is deterministic: one shot, one accepted iteration. *)
let refine_numbers () =
  let design = Benchmarks.cond_demo () in
  let spec () = F.spec_of_design ~mode:C.Bidir ~flow:F.Ch6 design ~rate:4 in
  let run s =
    match Mcs_check.run F.Ch6 s with
    | Ok r -> r
    | Error d -> failwith (Diag.message d)
  in
  let exact = run (spec ()) in
  let old_fault = Sys.getenv_opt "MCS_FAULT" in
  Unix.putenv "MCS_FAULT" "exhaust-heuristic:1";
  Mcs_resilience.Fault.reset ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MCS_FAULT" (Option.value old_fault ~default:"");
      Mcs_resilience.Fault.reset ())
    (fun () ->
      let degraded = run (spec ()) in
      let t0 = Unix.gettimeofday () in
      let out = Rf.improve ~max_iters:3 (spec ()) degraded in
      {
        obj_exact = Rf.objective exact;
        obj_degraded = Rf.objective degraded;
        obj_refined = Rf.objective out.Rf.result;
        r_iters = List.length out.Rf.iterations;
        r_accepted =
          List.length
            (List.filter
               (fun (it : Rf.iteration) -> it.Rf.accepted)
               out.Rf.iterations);
        r_wall = Unix.gettimeofday () -. t0;
      })

let refine () =
  section "E-refine - feedback-guided refinement vs a forced degradation";
  let n = refine_numbers () in
  Report.table fmt
    ~title:
      "cond-demo, ch6, rate 4: exhaust-heuristic:1 forces the dedicated-bus \
       rung; --refine re-climbs the ladder (objective = 1000*pins + pipe)"
    ~header:[ "Stage"; "Objective"; "Iterations"; "Accepted"; "Wall" ]
    [
      [ "exact (no fault)"; string_of_int n.obj_exact; "-"; "-"; "-" ];
      [ "degraded"; string_of_int n.obj_degraded; "-"; "-"; "-" ];
      [
        "refined";
        string_of_int n.obj_refined;
        string_of_int n.r_iters;
        string_of_int n.r_accepted;
        Printf.sprintf "%.2f s" n.r_wall;
      ];
    ];
  Format.fprintf fmt
    "@.refined objective equals the exact flow's: %b; strictly better than \
     degraded: %b@.@."
    (n.obj_refined = n.obj_exact)
    (n.obj_refined < n.obj_degraded)

(* ---- Bechamel timing ---- *)

let bechamel () =
  section "Timing (Bechamel, monotonic clock)";
  let open Bechamel in
  let ar = Benchmarks.ar_general () in
  let ewf = Benchmarks.elliptic () in
  let simple = Benchmarks.ar_simple () in
  let cons3 = Benchmarks.constraints_for ar ~rate:3 in
  let cons7 = Benchmarks.constraints_for ewf ~rate:7 in
  let cons_s = Benchmarks.constraints_for simple ~rate:2 in
  let tests =
    [
      Test.make ~name:"ch4-heuristic-search(ar,rate3)"
        (Staged.stage (fun () ->
             ignore
               (Mcs_connect.Heuristic.search ar.cdfg cons3 ~rate:3
                  ~mode:C.Unidir ())));
      Test.make ~name:"ch3-pin-ilp-feasibility(ar-simple)"
        (Staged.stage (fun () ->
             ignore
               (Simple_part.Pin_ilp.feasible ~arith:F.default_policy.arith
                  simple.cdfg cons_s ~rate:2 ~fixed:[])));
      Test.make ~name:"ch5-fds(ewf,rate6,pl25)"
        (Staged.stage (fun () ->
             ignore
               (Mcs_sched.Fds.run ewf.cdfg ewf.mlib ~rate:6 ~pipe_length:25 ())));
      Test.make ~name:"list-sched(ewf,rate7)"
        (Staged.stage (fun () ->
             ignore
               (Mcs_sched.List_sched.run ewf.cdfg ewf.mlib cons7 ~rate:7 ())));
      Test.make ~name:"hungarian(40x40)"
        (Staged.stage (fun () ->
             let n = 40 in
             let cost =
               Array.init n (fun i ->
                   Array.init n (fun j -> ((i * 7919) + (j * 104729)) mod 1000))
             in
             ignore (Mcs_graph.Hungarian.assignment cost)));
      Test.make ~name:"ch5-clique-partitioning(ar,rate4,pl9)"
        (Staged.stage (fun () ->
             ignore
               (run_flow F.Ch5 ar ~rate:4 ~pipe_length:9 ~mode:C.Bidir)));
      Test.make ~name:"simplex(20x40,rational)"
        (Staged.stage (fun () ->
             let module R = Mcs_util.Ratio in
             let n = 40 and m = 20 in
             let rows =
               List.init m (fun i ->
                   ( Array.init n (fun j -> R.of_int (((i + j) mod 7) + 1)),
                     Mcs_ilp.Simplex.Le,
                     R.of_int 100 ))
             in
             let p =
               {
                 Mcs_ilp.Simplex.n_vars = n;
                 objective = Array.init n (fun j -> R.of_int ((j mod 5) + 1));
                 rows;
               }
             in
             ignore (Mcs_ilp.Simplex.solve p)));
    ]
  in
  let grouped = Test.make_grouped ~name:"mcs" tests in
  let cfg = Benchmark.cfg ~limit:60 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let time =
        match Analyze.OLS.estimates est with
        | Some (t :: _) ->
            if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
            else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
            else Printf.sprintf "%.0f ns" t
        | _ -> "n/a"
      in
      rows := [ name; time ] :: !rows)
    results;
  Report.table fmt ~title:"Estimated execution time per run"
    ~header:[ "Algorithm"; "time" ]
    (List.sort compare !rows)

(* ---- Machine-readable benchmark mode ---- *)

module J = Mcs_obs.Report_json

(* One representative configuration per flow; counters are reset before
   each so every record's metrics are that flow's own. *)
let json_report path =
  let record name design rate run =
    Mcs_obs.Metrics.reset ();
    let t0 = Unix.gettimeofday () in
    let r = attempt run in
    let wall = Unix.gettimeofday () -. t0 in
    let status, fields =
      match r with
      | Ok fields -> ([ ("status", J.Str "ok") ], fields)
      | Error m -> ([ ("status", J.Str "error"); ("error", J.Str m) ], [])
    in
    J.Obj
      ([
         ("flow", J.Str name);
         ("design", J.Str design);
         ("rate", J.Int rate);
       ]
      @ status
      @ [ ("wall_s", J.Float wall) ]
      @ fields
      @ [ ("metrics", J.metrics ()) ])
  in
  let result sched pins =
    [
      ("pins_total", J.Int (Mcs_util.Listx.sum snd pins));
      ("pipe_length", J.Int (Sched.pipe_length sched));
    ]
  in
  let flows =
    (if not (want "ch3") then []
     else
       [
         record "ch3" "ar-simple" 2 (fun () ->
             match
               run_flow F.Ch3 (Benchmarks.ar_simple ()) ~rate:2 ~mode:C.Unidir
             with
             | Error m -> Error m
             | Ok r -> Ok (result r.F.schedule r.F.pins));
       ])
    @ (if not (want "ch4") then []
       else
         [
           record "ch4" "ar-general" 3 (fun () ->
               match
                 run_flow F.Ch4 (Benchmarks.ar_general ()) ~rate:3
                   ~mode:C.Unidir
               with
               | Error m -> Error m
               | Ok r -> Ok (result r.F.schedule r.F.pins));
         ])
    @ (if not (want "ch5") then []
       else
         [
           record "ch5" "ar-general" 4 (fun () ->
               match
                 run_flow F.Ch5
                   (Benchmarks.ar_general ())
                   ~rate:4 ~pipe_length:9 ~mode:C.Bidir
               with
               | Error m -> Error m
               | Ok r -> Ok (result r.F.schedule r.F.pins));
         ])
    @ (if not (want "ch6") then []
       else
         [
           record "ch6" "ar-general" 3 (fun () ->
               match
                 run_flow F.Ch6 (Benchmarks.ar_general ()) ~rate:3
                   ~mode:C.Bidir
               with
               | Error m -> Error m
               | Ok t -> Ok (result t.F.schedule t.F.pins));
         ])
    @ (if not (want "ilp") then []
       else
         List.map
           (fun (name, d, rate) ->
             record "ilp-warm-vs-cold" name rate (fun () ->
                 let wp, wn, wt, cp, cn, ct, agree = ilp_measure d rate in
                 let fp, ok, fail, fwall, fagree = ilp_measure_float d rate in
                 Ok
                   [
                     ("cold_pivots", J.Int cp);
                     ("warm_pivots", J.Int wp);
                     ("cold_nodes", J.Int cn);
                     ("warm_nodes", J.Int wn);
                     ("cold_wall_s", J.Float ct);
                     ("warm_wall_s", J.Float wt);
                     ("agree", J.Bool agree);
                     ("float_pivots", J.Int fp);
                     ("certify_ok", J.Int ok);
                     ("certify_fail", J.Int fail);
                     ("float_wall_s", J.Float fwall);
                     ("float_agree", J.Bool fagree);
                   ]))
           (ilp_cases ())
         @ [
             record "ilp-grid-warm" "ar-general" 0 (fun () ->
                 let d = Benchmarks.ar_general () in
                 let cold_p, cold_w = ilp_grid_measure d ~chained:false in
                 let ch_p, ch_w = ilp_grid_measure d ~chained:true in
                 Ok
                   [
                     ("grid_cold_pivots", J.Int cold_p);
                     ("grid_chained_pivots", J.Int ch_p);
                     ("grid_cold_wall_s", J.Float cold_w);
                     ("grid_chained_wall_s", J.Float ch_w);
                     ("chained_lt_cold", J.Bool (ch_p < cold_p));
                   ]);
           ])
    @
    if not (want "serve") then []
    else
      [
        record "serve-warm-vs-cold" "grid20" 0 (fun () ->
            let n = serve_numbers () in
            Ok
              [
                ("jobs", J.Int n.n_jobs);
                ("cold_wall_s", J.Float n.cold_wall);
                ("warm_wall_s", J.Float n.warm_wall);
                ("cold_pivots", J.Int n.cold_pivots);
                ("warm_pivots", J.Int n.warm_pivots);
                ("cache_hits", J.Int n.cache_hits);
                ("cache_misses", J.Int n.cache_misses);
                ("coalesced", J.Int n.coalesced);
                ( "cache_hit_rate",
                  J.Float
                    (float_of_int n.cache_hits
                    /. float_of_int (max 1 (n.cache_hits + n.cache_misses))) );
                ("warm_lt_cold_pivots", J.Bool (n.warm_pivots < n.cold_pivots));
              ]);
      ]
    @
    if not (want "chaos") then []
    else
      [
        record "chaos-kill-and-recover" "random-burst" 0 (fun () ->
            let n = chaos_numbers () in
            Ok
              [
                ("clean_sent", J.Int n.x_clean_sent);
                ("clean_answered", J.Int n.x_clean_answered);
                ("poisoned", J.Int n.x_poisoned);
                ("requeued", J.Int n.x_requeued);
                ("respawns", J.Int n.x_respawns);
                ("burst_wall_s", J.Float n.x_burst_wall);
                ("owed", J.Int n.x_owed);
                ("recovered", J.Int n.x_recovered);
                ("lost", J.Int (n.x_owed - n.x_recovered));
                ("recover_wall_s", J.Float n.x_recover_wall);
              ]);
      ]
  in
  let report =
    J.Obj [ ("schema", J.Str "mcs-bench/1"); ("flows", J.Arr flows) ]
  in
  match J.write_file path report with
  | Ok () ->
      Format.fprintf fmt "wrote %s@." path;
      0
  | Error m ->
      Format.eprintf "cannot write %s: %s@." path m;
      1

(* ---- Baseline measurement and CI gating (mcs-bench-baseline/1) ---- *)

module B = Mcs_prof.Baseline

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s -> List.nth s (List.length s / 2)

(* The same measurements json_report takes, reduced to baseline records:
   deterministic counters and result metrics are hard gates, wall times
   (median of [reps] repetitions, to shave scheduler noise) are soft. *)
let baseline_records ~reps () =
  let reps = max 1 reps in
  let recs = ref [] in
  let add experiment metric value hard =
    recs := { B.experiment; metric; value; hard } :: !recs
  in
  (* [counters]: effort counters recorded as hard records; the searches
     are deterministic, so every rep counts the same. *)
  let flow_case ?(counters = []) tag design_name rate run =
    if want tag then begin
      let experiment = Printf.sprintf "%s.%s.r%d" tag design_name rate in
      let runs =
        List.init reps (fun _ ->
            Mcs_obs.Metrics.reset ();
            let t0 = Unix.gettimeofday () in
            let r = attempt run in
            let wall = Unix.gettimeofday () -. t0 in
            let counts =
              List.map
                (fun c -> (c, Mcs_obs.Metrics.(count (counter c))))
                counters
            in
            (r, wall, counts))
      in
      match List.hd runs with
      | Error m, _, _ ->
          Format.eprintf "baseline: %s FAILED (%s)@." experiment m
      | Ok (pins, pipe), _, counts ->
          add experiment "pins" (float_of_int pins) true;
          add experiment "pipe" (float_of_int pipe) true;
          List.iter
            (fun (c, n) -> add experiment c (float_of_int n) true)
            counts;
          add experiment "wall_s"
            (median (List.map (fun (_, w, _) -> w) runs))
            false
    end
  in
  let totals (r : F.result) =
    (Mcs_util.Listx.sum snd r.F.pins, Sched.pipe_length r.F.schedule)
  in
  (* The hook must ask the same questions; it may answer more of them
     from its refutations and witness, and solve fewer. *)
  flow_case
    ~counters:
      [
        "pin_ilp.questions";
        "pin_ilp.solves";
        "pin_ilp.refuted_hits";
        "pin_ilp.witness_hits";
      ]
    "ch3" "ar-simple" 2 (fun () ->
      Result.map totals
        (run_flow F.Ch3 (Benchmarks.ar_simple ()) ~rate:2 ~mode:C.Unidir));
  flow_case ~counters:[ "heuristic.nodes" ] "ch4" "ar-general" 3 (fun () ->
      Result.map totals
        (run_flow F.Ch4 (Benchmarks.ar_general ()) ~rate:3 ~mode:C.Unidir));
  (* The scheduler must make the same placements; it may compute fewer
     forces (memoized while their windows and graphs stay put), never
     more. *)
  flow_case ~counters:[ "fds.force_evals"; "fds.placements" ] "ch5"
    "ar-general" 4 (fun () ->
      Result.map totals
        (run_flow F.Ch5
           (Benchmarks.ar_general ())
           ~rate:4 ~pipe_length:9 ~mode:C.Bidir));
  (* The scheduler must ask the same I/O questions; the hook may answer
     them with fewer repacks, never more. *)
  flow_case
    ~counters:
      [
        "subbus.search_nodes";
        "subbus.node_limit";
        "subbus.refuted";
        "ls.io_feasibility_tests";
        "subbus.repacks";
      ]
    "ch6" "ar-general" 3 (fun () ->
      Result.map totals
        (run_flow F.Ch6 (Benchmarks.ar_general ()) ~rate:3 ~mode:C.Bidir));
  if want "ilp" then begin
    List.iter
      (fun (name, d, rate) ->
        let experiment = Printf.sprintf "ilp.%s.r%d" name rate in
        let runs = List.init reps (fun _ -> ilp_measure d rate) in
        let wp, wn, _, cp, cn, _, _ = List.hd runs in
        add experiment "warm_pivots" (float_of_int wp) true;
        add experiment "warm_nodes" (float_of_int wn) true;
        add experiment "cold_pivots" (float_of_int cp) true;
        add experiment "cold_nodes" (float_of_int cn) true;
        let rational_wall =
          median (List.map (fun (_, _, wt, _, _, _, _) -> wt) runs)
        in
        add experiment "warm_wall_s" rational_wall false;
        add experiment "cold_wall_s"
          (median (List.map (fun (_, _, _, _, _, ct, _) -> ct) runs))
          false;
        (* The float-first path on the same instance.  Pivot and
           certification counts are deterministic (IEEE float64 plus
           Bland's rule pin the pivot sequence), so they gate hard; the
           issue's <= 0.5x-of-rational wall requirement gates through a
           same-run ratio, which cancels machine speed out of the
           comparison.  0 is the good value of the derived booleans —
           hard records fail on any increase. *)
        let fruns = List.init reps (fun _ -> ilp_measure_float d rate) in
        let fp, ok, fail, _, _ = List.hd fruns in
        let float_wall =
          median (List.map (fun (_, _, _, w, _) -> w) fruns)
        in
        add experiment "float_pivots" (float_of_int fp) true;
        add experiment "certify_ok" (float_of_int ok) true;
        add experiment "certify_ok_is_zero" (if ok = 0 then 1.0 else 0.0)
          true;
        add experiment "certify_fail" (float_of_int fail) true;
        add experiment "float_wall_over_half_rational"
          (if float_wall > 0.5 *. rational_wall then 1.0 else 0.0)
          true;
        add experiment "float_pivot_wall_s" float_wall false)
      (ilp_cases ());
    (* Cross-grid warm starts: chained grid solves must never pivot more
       than cold ones. *)
    let d = Benchmarks.ar_general () in
    let cold = List.init reps (fun _ -> ilp_grid_measure d ~chained:false) in
    let chained =
      List.init reps (fun _ -> ilp_grid_measure d ~chained:true)
    in
    let cold_p = fst (List.hd cold)
    and ch_p = fst (List.hd chained) in
    add "ilp.grid-warm" "grid_cold_pivots" (float_of_int cold_p) true;
    add "ilp.grid-warm" "grid_chained_pivots" (float_of_int ch_p) true;
    add "ilp.grid-warm" "chained_exceeds_cold"
      (if ch_p >= cold_p then 1.0 else 0.0)
      true;
    add "ilp.grid-warm" "grid_cold_wall_s" (median (List.map snd cold)) false;
    add "ilp.grid-warm" "grid_chained_wall_s"
      (median (List.map snd chained))
      false
  end;
  (* One measured session, not [reps]: the counters are deterministic
     (every unique point solved exactly once behind the daemon's
     coalescing and cache) and the session itself is the expensive
     part.  Wall times stay soft. *)
  if want "serve" then begin
    let n = serve_numbers () in
    add "serve.grid20" "cold_pivots" (float_of_int n.cold_pivots) true;
    add "serve.grid20" "warm_pivots" (float_of_int n.warm_pivots) true;
    add "serve.grid20" "cache_misses" (float_of_int n.cache_misses) true;
    add "serve.grid20" "cold_wall_s" n.cold_wall false;
    add "serve.grid20" "warm_wall_s" n.warm_wall false
  end;
  (* Hard chaos gates encode their good state as 0 (hard gates fail on
     any increase): a missing quarantine, a lost clean reply or a
     request lost across the crash all flip a 0 to a positive count.
     The raw churn counters (respawns, requeued, poisoned) are hard
     too, so the faults injected can't silently grow either. *)
  if want "chaos" then begin
    let n = chaos_numbers () in
    let e = "chaos.kill2" in
    add e "poisoned" (float_of_int n.x_poisoned) true;
    add e "requeued" (float_of_int n.x_requeued) true;
    add e "respawns" (float_of_int n.x_respawns) true;
    add e "quarantine_missed" (if n.x_poisoned = 1 then 0.0 else 1.0) true;
    add e "clean_unanswered"
      (float_of_int (n.x_clean_sent - n.x_clean_answered))
      true;
    add e "burst_wall_s" n.x_burst_wall false;
    let r = "chaos.recover" in
    add r "recovered" (float_of_int n.x_recovered) true;
    add r "lost" (float_of_int (n.x_owed - n.x_recovered)) true;
    add r "recover_wall_s" n.x_recover_wall false
  end;
  (* Hard gates fail on any increase, so the booleans encode their good
     state as 0: recovery_missed flips to 1 if refinement ever stops
     recovering the exact objective, no_accepted_iteration flips to 1 if
     the re-climb stops being accepted. *)
  if want "refine" then begin
    let n = refine_numbers () in
    let e = "refine.cond-demo.ch6.r4" in
    add e "objective_degraded" (float_of_int n.obj_degraded) true;
    add e "objective_refined" (float_of_int n.obj_refined) true;
    add e "recovery_missed"
      (if n.obj_refined = n.obj_exact then 0.0 else 1.0)
      true;
    add e "refine_iterations" (float_of_int n.r_iters) true;
    add e "no_accepted_iteration" (if n.r_accepted >= 1 then 0.0 else 1.0) true;
    add e "refine_wall_s" n.r_wall false
  end;
  List.rev !recs

let baseline_mode path reps =
  let recs = baseline_records ~reps () in
  if recs = [] then begin
    Format.eprintf "baseline: no experiments selected@.";
    2
  end
  else
    match B.save path recs with
    | Ok () ->
        Format.fprintf fmt "wrote %s (%d records)@." path (List.length recs);
        0
    | Error m ->
        Format.eprintf "cannot write %s: %s@." path m;
        2

let compare_mode path reps noise =
  match B.load path with
  | Error m ->
      Format.eprintf "cannot load baseline %s: %s@." path m;
      2
  | Ok baseline ->
      (* Honour --only symmetrically: gate only the baseline records
         whose experiment the current invocation re-measures. *)
      let baseline = List.filter (fun r -> want r.B.experiment) baseline in
      let current = baseline_records ~reps () in
      let cs = B.compare ~noise ~baseline ~current () in
      List.iter (fun c -> Format.fprintf fmt "%a@." B.pp_comparison c) cs;
      let hard = B.failures cs in
      let soft = B.soft_regressions cs in
      if soft <> [] then
        Format.fprintf fmt
          "warning: %d wall-time regression(s) beyond the %.0f%% noise \
           threshold (soft, not gating)@."
          (List.length soft) (noise *. 100.);
      if hard <> [] then begin
        Format.fprintf fmt
          "FAIL: %d hard regression(s) against %s@."
          (List.length hard) path;
        1
      end
      else begin
        Format.fprintf fmt "baseline OK: %d record(s) compared against %s@."
          (List.length cs) path;
        0
      end

let () =
  let args = Array.to_list Sys.argv in
  let json_file = ref None in
  let baseline_file = ref None in
  let compare_file = ref None in
  let trace_out = ref None in
  let reps = ref 3 in
  let noise = ref 0.25 in
  List.iteri
    (fun i a ->
      let arg_of k = if a = k && i + 1 < List.length args then
          Some (List.nth args (i + 1)) else None in
      (match arg_of "--only" with Some v -> only := v | None -> ());
      (match arg_of "--json" with Some v -> json_file := Some v | None -> ());
      (match arg_of "--baseline" with
      | Some v -> baseline_file := Some v
      | None -> ());
      (match arg_of "--compare" with
      | Some v -> compare_file := Some v
      | None -> ());
      (match arg_of "--trace-out" with
      | Some v -> trace_out := Some v
      | None -> ());
      (match Option.bind (arg_of "--reps") int_of_string_opt with
      | Some n when n > 0 -> reps := n
      | Some _ | None -> ());
      (match Option.bind (arg_of "--noise") float_of_string_opt with
      | Some p when p > 0. -> noise := p /. 100.
      | Some _ | None -> ());
      if a = "--skip-bechamel" then skip_bechamel := true)
    args;
  (match !trace_out with
  | Some _ ->
      Mcs_obs.Events.clear ();
      Mcs_prof.Chrome_trace.start ()
  | None -> ());
  let finish code =
    (match !trace_out with
    | Some path -> (
        match Mcs_prof.Chrome_trace.write path with
        | Ok () -> Format.fprintf fmt "wrote %s@." path
        | Error m -> Format.eprintf "cannot write %s: %s@." path m)
    | None -> ());
    exit code
  in
  match (!json_file, !baseline_file, !compare_file) with
  | None, None, None ->
      if want "ch3" then ch3 ();
      if want "ch4" then ch4 ();
      if want "ch5" then ch5 ();
      if want "ch6" then ch6 ();
      if want "ch7" then ch7 ();
      if want "rtl" then rtl_and_verify ();
      if want "scale" then scaling ();
      if want "ilp" then ilp ();
      if want "dse" then dse ();
      if want "serve" then serve ();
      if want "chaos" then chaos ();
      if want "refine" then refine ();
      if not !skip_bechamel then bechamel ();
      Format.fprintf fmt "@.All experiments completed.@.";
      finish 0
  | _ ->
      let json_code =
        match !json_file with Some p -> json_report p | None -> 0
      in
      let baseline_code =
        match !baseline_file with
        | Some p -> baseline_mode p !reps
        | None -> 0
      in
      let compare_code =
        match !compare_file with
        | Some p -> compare_mode p !reps !noise
        | None -> 0
      in
      finish (max json_code (max baseline_code compare_code))
