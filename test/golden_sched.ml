(* Golden records of the I/O-constrained list schedules: Chapter 3's
   pin-allocation checker ([Simple_part.hook], Fig. 3.4; see the Ch. 3
   section below), Chapter 4's dynamic bus reassignment ([Reassign.hook],
   §4.2) and its static baseline, and Chapter 6's sub-slot scheduling
   ([Subbus.schedule_over], §6.2), dynamic and static.  Each Ch. 4/6
   record holds the number of I/O feasibility tests the scheduler asked
   ([ls.io_feasibility_tests]) and, on success, digests of the
   per-operation control steps, of the final assignment and of the
   allocation table; on failure, the failing control step and a digest of
   the reason.  The hooks are deterministic, so a change that claims to
   answer the same questions the same way must reproduce every record
   exactly.

   The cases schedule over every connection [Golden_connect] pins whose
   search succeeds: every slot cap of the Ch. 4 (both port modes) and
   Ch. 6 searches behind the paper grid points, and the fixed-seed
   [random:] and [rsimple:] designs at rates 2-4 under the engine's
   generous budgets and under tight ones.

   The committed records live in [golden_sched.txt]; regenerate them with
   [dune exec test/golden/gen_golden_sched.exe > test/golden_sched.txt]
   only when a change is meant to alter schedules. *)

open Mcs_cdfg
module G = Golden_connect
module H = Mcs_connect.Heuristic
module R = Mcs_connect.Reassign
module SB = Mcs_core.Subbus
module LS = Mcs_sched.List_sched
module Sched = Mcs_sched.Schedule
module M = Mcs_obs.Metrics

type case = { conn : G.case; mlib : Module_lib.t }

let io_tests = M.counter "ls.io_feasibility_tests"
let digest = G.digest

let render_csteps sched =
  String.concat ";"
    (List.map
       (fun op ->
         if Sched.is_scheduled sched op then string_of_int (Sched.cstep sched op)
         else "-")
       (Cdfg.ops (Sched.cdfg sched)))

let render_rows render rows = String.concat ";" (List.map render rows)

let render_entry (value, cstep, ops) =
  Printf.sprintf "%s@%d[%s]" value cstep
    (String.concat "," (List.map string_of_int ops))

let ok sched ~assign ~alloc =
  Printf.sprintf "ok %s %s %s"
    (digest (render_csteps sched))
    (digest assign) (digest alloc)

let failed reason = "fail " ^ digest reason

(* "<io tests> <outcome>" for one scheduling run. *)
let counted run =
  let t0 = M.count io_tests in
  let outcome =
    try run () with Invalid_argument m -> "invalid " ^ digest m
  in
  Printf.sprintf "%d %s" (M.count io_tests - t0) outcome

let ch4 c mlib (r : H.result) ~dynamic =
  counted (fun () ->
      let t =
        R.create c.G.cdfg r.H.conn ~rate:c.G.rate ~initial:r.H.assign ~dynamic
      in
      match
        LS.run c.G.cdfg mlib c.G.cons ~rate:c.G.rate ~io_hook:(R.hook t) ()
      with
      | Error f ->
          failed (Printf.sprintf "cstep %d: %s" f.LS.at_cstep f.LS.reason)
      | Ok sched ->
          ok sched
            ~assign:
              (render_rows
                 (fun (op, h) -> Printf.sprintf "%d:%d" op h)
                 (R.final_assignment t))
            ~alloc:
              (render_rows
                 (fun ((h, g), e) ->
                   Printf.sprintf "%d/%d=%s" h g (render_entry e))
                 (R.allocation_table t)))

let ch6 c mlib ra ~dynamic =
  counted (fun () ->
      match
        SB.schedule_over c.G.cdfg mlib c.G.cons ~rate:c.G.rate ~dynamic ra
      with
      | Error m -> failed m
      | Ok t ->
          ok t.SB.schedule
            ~assign:
              (render_rows
                 (fun (op, (i, s)) ->
                   Printf.sprintf "%d:%d%s" op i (G.sub_tag s))
                 t.SB.final_assignment)
            ~alloc:
              (render_rows
                 (fun ((i, s, g), e) ->
                   Printf.sprintf "%d%s/%d=%s" i (G.sub_tag s) g
                     (render_entry e))
                 t.SB.allocation))

(* One record: "<dynamic> | <static>", or [None] when the connection
   search behind the case fails (nothing to schedule). *)
let record { conn = c; mlib } =
  let both f x =
    Some (Printf.sprintf "%s | %s" (f x ~dynamic:true) (f x ~dynamic:false))
  in
  match c.G.kind with
  | G.Ch4 mode -> (
      match
        H.search c.G.cdfg c.G.cons ~rate:c.G.rate ~mode ~slot_cap:c.G.cap ()
      with
      | Ok r -> both (ch4 c mlib) r
      | Error _ -> None)
  | G.Ch6 -> (
      match
        SB.search c.G.cdfg c.G.cons ~rate:c.G.rate ~slot_cap:c.G.cap ()
      with
      | Ok ra -> both (ch6 c mlib) ra
      | Error _ -> None)

(* --- Chapter 3: the pin-allocation hook ----------------------------------

   One record per Ch. 3 schedule: the number of I/O feasibility questions
   [Simple_part.hook] was asked, a digest of the [(op, cstep, answer)]
   sequence, and the schedule (control-step digest) or the failure.  The
   hook decides its ILP exactly in either arithmetic, so both must
   reproduce the committed record (see [float_only] for the one
   exception).  The cases are the simple bundled designs at rates 2-5
   (ar-simple) and 2-4 (subbus-demo), and 50 fixed-seed [rsimple:]
   designs at rates 2-4.  The records were taken before the hook kept
   its refutations and witness. *)

module SP = Mcs_core.Simple_part

let ch3_points = [ ("ar-simple", [ 2; 3; 4; 5 ]); ("subbus-demo", [ 2; 3; 4 ]) ]

let ch3_random =
  List.init 50 (fun i ->
      ( Printf.sprintf "rsimple:%d:%d:%d" (3001 + (7717 * i)) (2 + (i mod 2))
          (4 + (i / 2 mod 3)),
        [ 2; 3; 4 ] ))

(* [(key, design, rate)], keyed like "<design> ch3 r<rate>". *)
let ch3_cases () =
  List.concat_map
    (fun (name, rates) ->
      let d = G.resolve name in
      List.map
        (fun rate -> (Printf.sprintf "%s ch3 r%d" name rate, d, rate))
        rates)
    (ch3_points @ ch3_random)

let ch3_record ~arith (d : Benchmarks.design) ~rate =
  let cdfg = d.Benchmarks.cdfg in
  let cons = Benchmarks.constraints_for d ~rate in
  let hook = SP.hook ~arith cdfg cons ~rate in
  let asked = Buffer.create 512 and n = ref 0 in
  let io_can sched op ~cstep =
    let yes = hook.LS.io_can sched op ~cstep in
    incr n;
    Printf.bprintf asked "%d@%d:%c;" op cstep (if yes then 'y' else 'n');
    yes
  in
  let outcome =
    let io_hook = { hook with LS.io_can } in
    match LS.run cdfg d.Benchmarks.mlib cons ~rate ~io_hook () with
    | Error f ->
        failed (Printf.sprintf "cstep %d: %s" f.LS.at_cstep f.LS.reason)
    | Ok sched -> "ok " ^ digest (render_csteps sched)
  in
  Printf.sprintf "%d %s %s" !n (digest (Buffer.contents asked)) outcome

(* The paper and generated connection cases of [Golden_connect] (not its
   compaction points, which pin the search only), each with its design's
   module library: a key starts with the design name. *)
let cases () =
  let mlibs = Hashtbl.create 256 in
  let mlib_of (c : G.case) =
    let name = List.hd (String.split_on_char ' ' c.G.key) in
    match Hashtbl.find_opt mlibs name with
    | Some m -> m
    | None ->
        let m = (G.resolve name).Benchmarks.mlib in
        Hashtbl.add mlibs name m;
        m
  in
  List.map
    (fun c -> { conn = c; mlib = mlib_of c })
    (G.paper_cases () @ G.random_cases ())

let print_all oc =
  List.iter
    (fun c ->
      match record c with
      | Some r -> Printf.fprintf oc "%s\t%s\n%!" c.conn.G.key r
      | None -> ())
    (cases ());
  List.iter
    (fun (key, d, rate) ->
      Printf.fprintf oc "%s\t%s\n%!" key
        (ch3_record ~arith:Mcs_ilp.Fsimplex.Float_certified d ~rate))
    (ch3_cases ())

(* [(key, committed, recomputed)] for every Ch. 4/6 case whose record
   differs from (or is missing in) the committed fixture, and every
   committed record no case reproduces. *)
let mismatches () =
  let golden = Hashtbl.of_seq (List.to_seq (G.load "golden_sched.txt")) in
  let seen = Hashtbl.create 4096 in
  List.iter (fun (key, _, _) -> Hashtbl.replace seen key ()) (ch3_cases ());
  let differing =
    List.filter_map
      (fun c ->
        let key = c.conn.G.key in
        Hashtbl.replace seen key ();
        match (record c, Hashtbl.find_opt golden key) with
        | None, None -> None
        | Some got, Some want when String.equal want got -> None
        | got, want ->
            Some
              ( key,
                Option.value ~default:"(missing)" want,
                Option.value ~default:"(no connection)" got ))
      (cases ())
  in
  differing
  @ Hashtbl.fold
      (fun key want acc ->
        if Hashtbl.mem seen key then acc else (key, want, "(no case)") :: acc)
      golden []

(* The exact search alone takes ~12 s on this case's hardest questions
   (at rate 5 the Bland-rule trees of the rational branch and bound grow
   far beyond the float search's), so only the float arithmetic replays
   it here. *)
let float_only = [ "ar-simple ch3 r5" ]

(* The same for the Ch. 3 records, recomputed in each arithmetic; a key
   names the arithmetic that missed. *)
let ch3_mismatches () =
  let golden = G.load "golden_sched.txt" in
  List.concat_map
    (fun (key, d, rate) ->
      let want =
        Option.value ~default:"(missing)" (List.assoc_opt key golden)
      in
      List.filter_map
        (fun arith ->
          let got = ch3_record ~arith d ~rate in
          if String.equal want got then None
          else
            Some
              ( Printf.sprintf "%s [%s]" key
                  (Mcs_ilp.Fsimplex.arith_to_string arith),
                want,
                got ))
        (Mcs_ilp.Fsimplex.Float_certified
        ::
        (if List.mem key float_only then []
         else [ Mcs_ilp.Fsimplex.Rational ])))
    (ch3_cases ())

(* Fails the current test, naming the first few differing records. *)
let report = function
  | [] -> ()
  | ms ->
      Alcotest.failf "%d golden schedule record(s) differ:\n%s"
        (List.length ms)
        (String.concat "\n"
           (List.map
              (fun (k, want, got) ->
                Printf.sprintf "  %s\n    want %s\n    got  %s" k want got)
              (Mcs_util.Listx.take 5 ms)))

let check () = report (mismatches ())
let check_ch3 () = report (ch3_mismatches ())
