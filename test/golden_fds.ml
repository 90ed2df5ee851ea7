(* Golden records of Chapter 5's force-directed scheduler ([Fds.run],
   §5.1).  Each record holds the ordered [(op, cstep)] placements the
   scheduler committed (as a digest), its [fds.placements] and
   [fds.rejected_fixes] counts, the [fds.force_evals] it spent, and the
   outcome: a digest of the final control steps, or the error.  A change
   that claims to schedule the same way must reproduce the placements,
   the counts and the outcome exactly; [fds.force_evals] may only fall
   (reusing an unchanged candidate's force is allowed, computing more is
   not).

   The cases are the ten Ch. 5 paper points at their default pipe length
   (plus elliptic at rate 4, which its recursive edges make infeasible),
   fixed-seed [random:] and [rsimple:] designs at rates 2-4, each at the
   default pipe length and at three steps more, and the paper points and
   a few generated designs under tight pass budgets, so the points where
   the budget runs out are pinned too.

   The committed records live in [golden_fds.txt]; regenerate them with
   [dune exec test/golden/gen_golden_fds.exe > test/golden_fds.txt] only
   when a change is meant to alter schedules. *)

open Mcs_cdfg
module Fds = Mcs_sched.Fds
module Sched = Mcs_sched.Schedule
module Budget = Mcs_resilience.Budget
module M = Mcs_obs.Metrics
module E = Mcs_obs.Events
module G = Golden_connect

type case = {
  key : string;
  design : Benchmarks.design;
  rate : int;
  pipe_length : int;
  passes : int option;  (** pass budget; [None] = unlimited *)
}

let placements = M.counter "fds.placements"
let rejected = M.counter "fds.rejected_fixes"
let force_evals = M.counter "fds.force_evals"

let paper_points =
  [
    ("ar-simple", [ 2 ]);
    ("ar-general", [ 3; 4; 5 ]);
    ("elliptic", [ 5; 6; 7 ]);
    ("cond-demo", [ 2; 3 ]);
    ("subbus-demo", [ 3 ]);
  ]

(* A rate the recursive edges rule out: pins the infeasibility path. *)
let infeasible_points = [ ("elliptic", [ 4 ]) ]

let random_names =
  List.init 40 (fun i ->
      Printf.sprintf "random:%d:%d:%d" (5003 + (9173 * i))
        (2 + (i mod 3))
        (12 + (4 * (i / 3 mod 4))))
  @ List.init 20 (fun i ->
        Printf.sprintf "rsimple:%d:%d:%d" (7001 + (4421 * i))
          (2 + (i mod 2))
          (4 + (i / 2 mod 3)))

let critical_path (d : Benchmarks.design) =
  Timing.critical_path_csteps d.Benchmarks.cdfg d.Benchmarks.mlib

let case ?passes name d ~rate ~pipe_length =
  let budget =
    match passes with None -> "" | Some p -> Printf.sprintf " passes%d" p
  in
  {
    key = Printf.sprintf "%s ch5 r%d pl%d%s" name rate pipe_length budget;
    design = d;
    rate;
    pipe_length;
    passes;
  }

(* Tight pass budgets: small enough that most of these runs stop
   part-way through their placements. *)
let tight = [ 150; 600 ]

let cases () =
  let paper =
    List.concat_map
      (fun (name, rates) ->
        let d = G.resolve name in
        let pl = critical_path d in
        List.concat_map
          (fun rate ->
            case name d ~rate ~pipe_length:pl
            :: List.map
                 (fun p -> case ~passes:p name d ~rate ~pipe_length:pl)
                 tight)
          rates)
      (paper_points @ infeasible_points)
  in
  let random =
    List.concat
      (List.mapi
         (fun i name ->
           let d = G.resolve name in
           let pl = critical_path d in
           List.concat_map
             (fun rate ->
               let base =
                 [
                   case name d ~rate ~pipe_length:pl;
                   case name d ~rate ~pipe_length:(pl + 3);
                 ]
               in
               if i mod 8 = 0 then
                 base
                 @ List.map
                     (fun p -> case ~passes:p name d ~rate ~pipe_length:(pl + 3))
                     tight
               else base)
             [ 2; 3; 4 ])
         random_names)
  in
  paper @ random

let render_csteps sched =
  String.concat ";"
    (List.map
       (fun op -> string_of_int (Sched.cstep sched op))
       (Cdfg.ops (Sched.cdfg sched)))

(* The placements journaled by one run, in order, as "op@cstep;...". *)
let with_placements f =
  let was_on = E.on () and cap = E.capacity () in
  E.set_capacity (1 lsl 16);
  E.set_enabled true;
  let restore () =
    E.set_enabled was_on;
    E.set_capacity cap
  in
  match f () with
  | exception ex ->
      restore ();
      raise ex
  | r ->
      if E.dropped () > 0 then begin
        restore ();
        invalid_arg "Golden_fds: event ring overflowed"
      end;
      let buf = Buffer.create 256 in
      List.iter
        (fun (e : E.t) ->
          if e.E.cat = "fds" && e.E.name = "placement" then
            match (List.assoc_opt "op" e.E.args, List.assoc_opt "cstep" e.E.args) with
            | Some (E.Int op), Some (E.Int s) -> Printf.bprintf buf "%d@%d;" op s
            | _ -> ())
        (E.recent ());
      restore ();
      (r, Buffer.contents buf)

type record = {
  placed : int;
  rejects : int;
  evals : int;
  sequence : string;  (** digest of the ordered placements *)
  outcome : string;
}

let run c =
  let d = c.design in
  let budget =
    match c.passes with
    | None -> Budget.unlimited
    | Some p -> Budget.make ~passes:p ()
  in
  let p0 = M.count placements
  and r0 = M.count rejected
  and e0 = M.count force_evals in
  let result, seq =
    with_placements (fun () ->
        Fds.run ~budget d.Benchmarks.cdfg d.Benchmarks.mlib ~rate:c.rate
          ~pipe_length:c.pipe_length ())
  in
  let outcome =
    match result with
    | Ok sched -> "ok " ^ G.digest (render_csteps sched)
    | Error (Fds.Exhausted _) -> "exhausted"
    | Error e -> "error " ^ G.digest (Fds.error_message d.Benchmarks.cdfg e)
  in
  {
    placed = M.count placements - p0;
    rejects = M.count rejected - r0;
    evals = M.count force_evals - e0;
    sequence = G.digest seq;
    outcome;
  }

let to_string r =
  Printf.sprintf "%d %d %d %s %s" r.placed r.rejects r.evals r.sequence
    r.outcome

let of_string s =
  match String.split_on_char ' ' s with
  | placed :: rejects :: evals :: sequence :: outcome ->
      {
        placed = int_of_string placed;
        rejects = int_of_string rejects;
        evals = int_of_string evals;
        sequence;
        outcome = String.concat " " outcome;
      }
  | _ -> invalid_arg ("Golden_fds.of_string: " ^ s)

let print_all oc =
  List.iter
    (fun c -> Printf.fprintf oc "%s\t%s\n%!" c.key (to_string (run c)))
    (cases ())

(* [(key, committed, recomputed)] for every case whose placements, counts
   or outcome differ from the committed record, or whose force
   evaluations exceed it, and every committed record no case
   reproduces. *)
let mismatches () =
  let golden = Hashtbl.of_seq (List.to_seq (G.load "golden_fds.txt")) in
  let seen = Hashtbl.create 1024 in
  let differing =
    List.filter_map
      (fun c ->
        Hashtbl.replace seen c.key ();
        let got = run c in
        match Hashtbl.find_opt golden c.key with
        | None -> Some (c.key, "(missing)", to_string got)
        | Some want_s ->
            let want = of_string want_s in
            if
              want.placed = got.placed && want.rejects = got.rejects
              && String.equal want.sequence got.sequence
              && String.equal want.outcome got.outcome
              && got.evals <= want.evals
            then None
            else Some (c.key, want_s, to_string got))
      (cases ())
  in
  differing
  @ Hashtbl.fold
      (fun key want acc ->
        if Hashtbl.mem seen key then acc else (key, want, "(no case)") :: acc)
      golden []

let check () =
  match mismatches () with
  | [] -> ()
  | ms ->
      Alcotest.failf "%d golden FDS record(s) differ:\n%s" (List.length ms)
        (String.concat "\n"
           (List.map
              (fun (k, want, got) ->
                Printf.sprintf "  %s\n    want %s\n    got  %s" k want got)
              (Mcs_util.Listx.take 5 ms)))
