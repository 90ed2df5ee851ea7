(* Comparing the three general-partitioning approaches on the AR filter:

   - Chapter 4: connection synthesis before scheduling (list scheduling with
     dynamic bus reassignment);
   - Chapter 5: force-directed scheduling first, then connection synthesis
     by clique partitioning;
   - Chapter 6: connection-first with intra-cycle sub-bus sharing.

   This regenerates the discussion of §5.3 and Table 6.4 in one table —
   expressed as batch jobs on the design-space exploration engine: the
   points run on the engine's worker domains and its Pareto module
   names the undominated (pins, pipe length, FU) points.

   Run with:  dune exec examples/compare_approaches.exe *)

open Mcs_cdfg
module Job = Mcs_engine.Job
module Pool = Mcs_engine.Pool
module Outcome = Mcs_engine.Outcome
module Pareto = Mcs_engine.Pareto

let () =
  let d = Benchmarks.ar_general () in
  let ar = Job.Named "ar-general" in
  let rates = d.Benchmarks.rates in
  (* Round 1: the flows that choose their own pipe length. *)
  let round1 =
    Pool.run ~jobs:2
      (Job.grid ~designs:[ ar ] ~flows:[ Job.Ch4_bidir; Job.Ch6 ] ~rates ())
  in
  let find flow rate =
    List.find_opt
      (fun (o : Outcome.t) ->
        o.Outcome.job.Job.flow = flow && o.Outcome.job.Job.rate = rate)
      round1
  in
  (* Round 2: schedule-first at the pipe length the Chapter 4 flow
     reached per rate, for a like-for-like comparison (§5.3). *)
  let ch5_jobs =
    List.map
      (fun rate ->
        let pipe_length =
          match find Job.Ch4_bidir rate with
          | Some o when Outcome.is_feasible o -> o.Outcome.pipe_length
          | _ -> 10
        in
        Job.make ~pipe_length ~design:ar ~flow:Job.Ch5 ~rate ())
      rates
  in
  let round2 = Pool.run ~jobs:2 ch5_jobs in
  let all = round1 @ round2 in
  let cell rate flow =
    let o =
      match flow with
      | Job.Ch5 ->
          List.find_opt
            (fun (o : Outcome.t) -> o.Outcome.job.Job.rate = rate)
            round2
      | _ -> find flow rate
    in
    match o with
    | Some o when Outcome.is_feasible o ->
        [
          string_of_int (Outcome.pins_total o);
          string_of_int o.Outcome.pipe_length;
        ]
    | _ -> [ "-"; "-" ]
  in
  let rows =
    List.map
      (fun rate ->
        string_of_int rate
        :: (cell rate Job.Ch4_bidir @ cell rate Job.Ch5 @ cell rate Job.Ch6))
      rates
  in
  Mcs_core.Report.table Format.std_formatter
    ~title:
      "AR filter, bidirectional ports: total pins and pipe length per \
       approach"
    ~header:
      [
        "Rate";
        "Ch4 pins"; "Ch4 pipe";
        "Ch5 pins"; "Ch5 pipe";
        "Ch6 pins"; "Ch6 pipe";
      ]
    rows;
  Format.printf "@.Pareto-optimal (pins, pipe, FUs) points across all runs:@.";
  List.iter
    (fun (o : Outcome.t) ->
      (* Every job ran through the unified Mcs_flow pipeline; with
         MCS_CHECK=warn or strict in the environment the static
         analyzer's verdict rides along on each outcome. *)
      Format.printf "  %a -> %d pins, pipe %d, %d FUs%s@." Job.pp o.Outcome.job
        (Outcome.pins_total o) o.Outcome.pipe_length o.Outcome.fu_count
        (match o.Outcome.check with
        | Some c -> ", check " ^ Outcome.check_label c
        | None -> ""))
    (Pareto.frontier all);
  Format.printf
    "@.Reading: connection-first (Ch4) fixes pins before scheduling; \
     schedule-first (Ch5) optimizes pins for one fixed schedule; sub-bus \
     sharing (Ch6) trades control complexity for pins.@."
