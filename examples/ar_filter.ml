(* The AR lattice filter, both partitionings.

   The simple partitioning (Fig. 3.5) goes through the Chapter 3 flow: list
   scheduling with the ILP pin-allocation feasibility checker, then the
   constructive Theorem 3.1 connection.  The general partitioning (Fig. 4.7)
   goes through the Chapter 4 flow at several initiation rates.

   Run with:  dune exec examples/ar_filter.exe *)

open Mcs_cdfg
open Mcs_core
module F = Mcs_flow.Flow
module A = Mcs_flow.Artifact

let fmt = Format.std_formatter

(* Both flows run through the unified checked pipeline; the static
   analyzer audits every phase ([Pass.Warn]: violations are reported on
   [result.diags] without aborting). *)
let run flow d ~rate =
  Mcs_check.run ~level:Mcs_flow.Pass.Warn flow
    (F.spec_of_design ~flow d ~rate)

let () =
  (* --- Simple partitioning, Chapter 3 --- *)
  Format.printf "== AR filter, simple partitioning (Chapter 3) ==@.@.";
  let simple = Benchmarks.ar_simple () in
  (match run F.Ch3 simple ~rate:2 with
  | Error dg -> Format.printf "failed: %s@." (Mcs_flow.Diag.message dg)
  | Ok r ->
      Format.printf "Schedule:@.%a@.@." Report.schedule r.F.schedule;
      (match r.F.connection with
      | A.Bundles links ->
          Format.printf "Theorem 3.1 wire bundles:@.%a@." Report.bundles links
      | A.Buses _ | A.Subbuses _ -> ());
      Report.table fmt ~title:"Pins used (paper: 112/48/48/32/32)"
        ~header:[ "P0"; "P1"; "P2"; "P3"; "P4" ]
        [ Report.pins_row r.F.pins ]);

  (* --- General partitioning, Chapter 4 --- *)
  Format.printf "@.== AR filter, general partitioning (Chapter 4) ==@.";
  let general = Benchmarks.ar_general () in
  List.iter
    (fun rate ->
      Format.printf "@.-- initiation rate %d --@." rate;
      match run F.Ch4 general ~rate with
      | Error dg -> Format.printf "failed: %s@." (Mcs_flow.Diag.message dg)
      | Ok r ->
          (match r.F.connection with
          | A.Buses { conn; initial; assignment; _ } ->
              Format.printf "%a@.@."
                (Report.connection general.Benchmarks.cdfg)
                conn;
              Report.bus_assignment general.Benchmarks.cdfg fmt ~initial
                ~final:assignment
          | A.Bundles _ | A.Subbuses _ -> ());
          Format.printf
            "@.pipe length %d with reassignment, %s without@."
            r.F.pipe_length
            (match
               F.static_baseline (F.spec_of_design ~flow:F.Ch4 general ~rate) r
             with
            | Some n -> string_of_int n
            | None -> "unschedulable"))
    general.Benchmarks.rates
