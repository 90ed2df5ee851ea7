(* Golden records of the two connection searches: [Heuristic.search]
   (Ch. 4, §4.1.2) and [Subbus.search] (Ch. 6).  Each record holds the
   node count, the backtrack count, and digests of the tentative
   assignment and of the bus structure the search returned.  Both searches
   are deterministic, so any change that claims to visit the same nodes in
   the same order must reproduce every record exactly.

   The cases cover every slot cap of every connection search behind the
   paper grid points (the Ch. 4 points in their port mode, the Ch. 6
   points), plus fixed-seed generated designs: general ([random:]) and
   simple ([rsimple:]) partitionings at rates 2-4, both port modes for
   Ch. 4, each under the generous budgets the engine gives generated
   designs and under tight budgets that force backtracking and pruning,
   and a few generated designs whose Ch. 6 compaction phase backtracks.

   The committed records live in [golden_connect.txt]; regenerate them
   with [dune exec test/golden/gen_golden.exe > test/golden_connect.txt]
   only when a change is meant to alter search results. *)

open Mcs_cdfg
module C = Mcs_connect.Connection
module H = Mcs_connect.Heuristic
module SB = Mcs_core.Subbus
module M = Mcs_obs.Metrics

type kind = Ch4 of C.mode | Ch6

type case = {
  key : string;
  kind : kind;
  cdfg : Cdfg.t;
  cons : Constraints.t;
  rate : int;
  cap : int;
}

let h_nodes = M.counter "heuristic.nodes"
let h_backtracks = M.counter "heuristic.backtracks"
let sb_nodes = M.counter "subbus.search_nodes"
let sb_backtracks = M.counter "subbus.backtracks"
(* 48 bits of MD5: ample to tell two renderings apart. *)
let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let partitions cdfg = Mcs_util.Listx.range 0 (Cdfg.n_partitions cdfg + 1)

let render_heuristic cdfg (r : H.result) =
  let assign =
    String.concat ";"
      (List.map (fun (op, h) -> Printf.sprintf "%d:%d" op h) r.H.assign)
  in
  let buses =
    String.concat ";"
      (List.map
         (fun h ->
           String.concat ","
             (List.map
                (fun p ->
                  Printf.sprintf "%d/%d"
                    (C.out_width r.H.conn ~bus:h ~partition:p)
                    (C.in_width r.H.conn ~bus:h ~partition:p))
                (partitions cdfg)))
         (Mcs_util.Listx.range 0 (C.n_buses r.H.conn)))
  in
  (assign, buses)

let sub_tag = function SB.Lo -> "L" | SB.Hi -> "H" | SB.Whole -> "W"

let render_subbus (real, assignment) =
  let assign =
    String.concat ";"
      (List.map
         (fun (op, (i, s)) -> Printf.sprintf "%d:%d%s" op i (sub_tag s))
         assignment)
  in
  let buses =
    String.concat ";"
      (List.map
         (fun (rb : SB.real_bus) ->
           Printf.sprintf "%d|%s|%s|%s" rb.SB.width
             (match rb.SB.split_at with
             | None -> "-"
             | Some lo -> string_of_int lo)
             (String.concat ","
                (List.map
                   (fun (p, w) -> Printf.sprintf "%d=%d" p w)
                   rb.SB.ports))
             (String.concat ","
                (List.map
                   (fun (op, s) -> Printf.sprintf "%d%s" op (sub_tag s))
                   rb.SB.carried)))
         real)
  in
  (assign, buses)

(* One record: "<nodes> <backtracks> <outcome>". *)
let record c =
  let nodes, backtracks =
    match c.kind with
    | Ch4 _ -> (h_nodes, h_backtracks)
    | Ch6 -> (sb_nodes, sb_backtracks)
  in
  let n0 = M.count nodes and b0 = M.count backtracks in
  let outcome =
    match c.kind with
    | Ch4 mode -> (
        match H.search c.cdfg c.cons ~rate:c.rate ~mode ~slot_cap:c.cap () with
        | Ok r ->
            let a, b = render_heuristic c.cdfg r in
            Printf.sprintf "ok %s %s" (digest a) (digest b)
        | Error H.Infeasible -> "infeasible"
        | Error (H.Exhausted _) -> "exhausted")
    | Ch6 -> (
        match SB.search c.cdfg c.cons ~rate:c.rate ~slot_cap:c.cap () with
        | Ok ra ->
            let a, b = render_subbus ra in
            Printf.sprintf "ok %s %s" (digest a) (digest b)
        | Error _ -> "no-connection")
  in
  Printf.sprintf "%d %d %s" (M.count nodes - n0) (M.count backtracks - b0)
    outcome

let kind_tag = function
  | Ch4 C.Unidir -> "ch4-unidir"
  | Ch4 C.Bidir -> "ch4-bidir"
  | Ch6 -> "ch6"

(* Every slot cap the flows may try, loosest first. *)
let caps ~tag ~kind ~cdfg ~cons ~rate =
  List.map
    (fun cap ->
      {
        key = Printf.sprintf "%s %s r%d cap%d" tag (kind_tag kind) rate cap;
        kind;
        cdfg;
        cons;
        rate;
        cap;
      })
    (List.rev (Mcs_util.Listx.range 1 (rate + 1)))

let constraints (d : Benchmarks.design) kind ~rate =
  match kind with
  | Ch4 C.Unidir -> Benchmarks.constraints_for d ~rate
  | Ch4 C.Bidir | Ch6 -> Benchmarks.constraints_for_bidir d ~rate

(* The Ch. 4 and Ch. 6 grid points of the paper sweep, plus one generated
   design the engine runs at its default rate. *)
let paper_points =
  [
    ("ar-general", Ch4 C.Unidir, [ 3; 4; 5 ]);
    ("ar-general", Ch4 C.Bidir, [ 3; 4; 5 ]);
    ("ar-general", Ch6, [ 3; 4; 5 ]);
    ("elliptic", Ch4 C.Unidir, [ 6; 7 ]);
    ("elliptic", Ch4 C.Bidir, [ 6; 7 ]);
    ("elliptic", Ch6, [ 6; 7 ]);
    ("cond-demo", Ch4 C.Unidir, [ 2; 3 ]);
    ("cond-demo", Ch4 C.Bidir, [ 3 ]);
    ("cond-demo", Ch6, [ 2; 3 ]);
    ("subbus-demo", Ch4 C.Unidir, [ 3 ]);
    ("subbus-demo", Ch6, [ 3 ]);
    (* Sensitive to the load term of split candidates (read on the
       unsplit bus). *)
    ("random:111172108:3:24", Ch6, [ 4 ]);
  ]

let resolve name =
  match
    Result.bind (Mcs_engine.Job.design_of_string name) Mcs_engine.Job.resolve
  with
  | Ok d -> d
  | Error m -> invalid_arg m

let paper_cases () =
  List.concat_map
    (fun (name, kind, rates) ->
      let d = resolve name in
      List.concat_map
        (fun rate ->
          caps ~tag:name ~kind ~cdfg:d.Benchmarks.cdfg
            ~cons:(constraints d kind ~rate) ~rate)
        rates)
    paper_points

(* Tight budgets: each chip gets [pct]% of the pins a dedicated bus per
   distinct value would take (rounded down to a multiple of 8), so the
   searches must share ports, prune, and backtrack. *)
let tight_constraints cdfg cons ~pct =
  let dedicated = Array.make (Cdfg.n_partitions cdfg + 1) 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun w ->
      let v = Cdfg.io_value cdfg w and width = Cdfg.io_width cdfg w in
      let charge p =
        if not (Hashtbl.mem seen (v, p)) then begin
          Hashtbl.add seen (v, p) ();
          dedicated.(p) <- dedicated.(p) + width
        end
      in
      charge (Cdfg.io_src cdfg w);
      charge (Cdfg.io_dst cdfg w))
    (Cdfg.io_ops cdfg);
  Constraints.with_pins cons
    (List.map
       (fun p -> (p, max 8 (dedicated.(p) * pct / 100 / 8 * 8)))
       (partitions cdfg))

(* Fixed-seed generated designs: 140 general and 70 simple partitionings. *)
let random_names =
  List.init 140 (fun i ->
      Printf.sprintf "random:%d:%d:%d" (1009 + (7919 * i))
        (2 + (i mod 3))
        (12 + (4 * (i / 3 mod 4))))
  @ List.init 70 (fun i ->
        Printf.sprintf "rsimple:%d:%d:%d" (2003 + (6151 * i))
          (2 + (i mod 2))
          (4 + (i / 2 mod 3)))

let random_cases () =
  List.concat
    (List.mapi
       (fun i name ->
         let d = resolve name in
         let rate = 2 + (i mod 3) in
         let cdfg = d.Benchmarks.cdfg in
         List.concat_map
           (fun kind ->
             let cons = constraints d kind ~rate in
             caps ~tag:name ~kind ~cdfg ~cons ~rate
             @ caps ~tag:(name ^ " tight") ~kind ~cdfg
                 ~cons:(tight_constraints cdfg cons ~pct:60)
                 ~rate)
           [ Ch4 C.Unidir; Ch4 C.Bidir; Ch6 ])
       random_names)

(* The committed records, keyed like [case.key]. *)
let load path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.index_opt line '\t' with
        | Some i ->
            let rest = String.length line - i - 1 in
            go ((String.sub line 0 i, String.sub line (i + 1) rest) :: acc)
        | None -> go acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Generated designs whose compaction phase (bus retirement) backtracks
   under tight budgets: their records change if the pending widths stop
   following the search's assignment table there. *)
let compaction_points =
  [
    ("random:733108:3:20", 50, 4);
    ("random:1989856:3:20", 70, 3);
    ("random:4293894:4:16", 70, 5);
    ("random:9006699:4:12", 70, 4);
    ("random:10787092:3:20", 70, 3);
    ("random:209463:4:12", 70, 5);
    ("random:3560791:3:24", 70, 4);
    ("random:11206008:4:24", 50, 5);
    ("random:12358027:3:24", 50, 5);
  ]

let compaction_cases () =
  List.concat_map
    (fun (name, pct, rate) ->
      let d = resolve name in
      let cdfg = d.Benchmarks.cdfg in
      caps ~tag:(Printf.sprintf "%s tight%d" name pct) ~kind:Ch6 ~cdfg
        ~cons:(tight_constraints cdfg (constraints d Ch6 ~rate) ~pct)
        ~rate)
    compaction_points

let cases () = paper_cases () @ random_cases () @ compaction_cases ()

let print_all oc =
  List.iter
    (fun c -> Printf.fprintf oc "%s\t%s\n%!" c.key (record c))
    (cases ())

(* [(key, committed, recomputed)] for every selected case whose record
   differs from (or is missing in) the committed fixture. *)
let mismatches select =
  let golden = Hashtbl.of_seq (List.to_seq (load "golden_connect.txt")) in
  List.filter_map
    (fun c ->
      if not (select c.kind) then None
      else
        let got = record c in
        match Hashtbl.find_opt golden c.key with
        | Some want when String.equal want got -> None
        | want -> Some (c.key, Option.value ~default:"(missing)" want, got))
    (cases ())

(* Fails the current test, naming the first few differing records. *)
let check what select =
  match mismatches select with
  | [] -> ()
  | ms ->
      Alcotest.failf "%d golden %s search record(s) differ:\n%s"
        (List.length ms) what
        (String.concat "\n"
           (List.map
              (fun (k, want, got) ->
                Printf.sprintf "  %s\n    want %s\n    got  %s" k want got)
              (Mcs_util.Listx.take 5 ms)))
