(* Golden records of the branch-and-bound searches: the exact warm search
   ([Branch_bound.solve]), the float-first certified search
   ([Branch_bound.solve_float]) and the cold reference
   ([Branch_bound.solve_cold]).  Each record holds the result (status,
   exact objective and witness point), the float search's root basis,
   the deltas of every [bb.*], [simplex.*], [fsimplex.*] and
   [ilp.certify.*] counter, and a digest of the solver event journal
   (node opens and closes, incumbents, simplex solves, certification
   verdicts) in emission order.  All three searches are deterministic,
   so a change that claims to run the same search must reproduce every
   record exactly.

   The cases are 600 seeded random (M)ILPs with 2-6 variables, [Le]/[Ge]/
   [Eq] rows, mixed integer masks, a 3-node limit on every 7th problem, a
   pivot budget on every 11th and no variable box on every 13th (so some
   relaxations are unbounded); an ill-conditioned LP that float64 cannot
   tell from a feasible one; an unbounded ILP; and the pin ILPs of the paper
   benchmarks (ar-general r2-5, elliptic r4-6, ar-simple r2-4) through
   both searches and through a rate sweep of [Pin_ilp.feasible] in both
   arithmetic modes.

   The committed records live in [golden_ilp.txt]; regenerate them with
   [dune exec test/golden/gen_golden_ilp.exe > test/golden_ilp.txt] only
   when a change is meant to alter the searches. *)

open Mcs_ilp
module R = Mcs_util.Ratio
module M = Mcs_obs.Metrics
module E = Mcs_obs.Events
module Budget = Mcs_resilience.Budget

type limits = { max_nodes : int option; pivots : int option }

type case = {
  key : string;
  problem : Simplex.problem;
  integer : bool array;
  limits : limits;
}

let counters =
  List.map M.counter
    [
      "bb.solves";
      "bb.nodes";
      "bb.prune_infeasible";
      "bb.prune_bound";
      "bb.incumbents";
      "bb.node_limit";
      "bb.warm_restores";
      "bb.child_unbounded";
      "bb.arith_fallbacks";
      "simplex.solves";
      "simplex.pivots";
      "simplex.degenerate_pivots";
      "simplex.primal_steps";
      "simplex.dual_steps";
      "fsimplex.solves";
      "fsimplex.pivots";
      "fsimplex.steered_pivots";
      "fsimplex.stuck";
      "ilp.certify.ok";
      "ilp.certify.fail";
    ]

(* 48 bits of MD5: ample to tell two renderings apart. *)
let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let render_event (e : E.t) =
  String.concat ","
    ((e.E.cat ^ "." ^ e.E.name)
    :: List.map (fun (k, a) -> k ^ "=" ^ E.arg_to_string a) e.E.args)

(* Runs [f] with counters and the event journal watched; returns
   [f]'s value, the counter deltas and the journal digest. *)
let observe f =
  let cap = E.capacity () and was_on = E.on () in
  E.set_capacity (1 lsl 16);
  E.set_enabled true;
  let before = List.map M.count counters in
  let finally () =
    E.set_enabled was_on;
    E.set_capacity cap
  in
  Fun.protect ~finally @@ fun () ->
  let v = f () in
  let deltas = List.map2 (fun c b -> M.count c - b) counters before in
  if E.dropped () > 0 then failwith "Golden_ilp: event journal overflowed";
  let journal =
    digest (String.concat "\n" (List.map render_event (E.recent ())))
  in
  (v, String.concat " " (List.map string_of_int deltas), journal)

let render_result = function
  | Branch_bound.Optimal s | Branch_bound.Limit_feasible s as r ->
      Printf.sprintf "%s %s [%s]"
        (match r with Branch_bound.Optimal _ -> "optimal" | _ -> "limit-feasible")
        (R.to_string s.Simplex.value)
        (String.concat "," (Array.to_list (Array.map R.to_string s.Simplex.x)))
  | Branch_bound.Infeasible -> "infeasible"
  | Branch_bound.Unbounded -> "unbounded"
  | Branch_bound.Node_limit -> "node-limit"
  | Branch_bound.Exhausted e ->
      Printf.sprintf "exhausted %s %d %d"
        (Budget.resource_to_string e.Budget.resource)
        e.Budget.limit e.Budget.spent

let budget_of l =
  match l.pivots with
  | None -> Budget.unlimited
  | Some pivots -> Budget.make ~pivots ()

let basis_string b = String.concat "," (List.map string_of_int b)

(* The three records of one problem: "<solver>\t<result> | <basis> |
   <counter deltas> | <journal digest>". *)
let solver_records c =
  let max_nodes = c.limits.max_nodes and integer = c.integer in
  let line solver f =
    let (r, basis), deltas, journal = observe f in
    ( Printf.sprintf "%s %s" c.key solver,
      Printf.sprintf "%s | %s | %s | %s" (render_result r) basis deltas journal
    )
  in
  [
    line "rational" (fun () ->
        ( Branch_bound.solve ~budget:(budget_of c.limits) ?max_nodes ~integer
            c.problem,
          "-" ));
    line "float" (fun () ->
        let r, basis =
          Branch_bound.solve_float ~budget:(budget_of c.limits) ?max_nodes
            ~integer c.problem
        in
        (r, basis_string basis));
    line "cold" (fun () ->
        ( Branch_bound.solve_cold ~budget:(budget_of c.limits) ?max_nodes
            ~integer c.problem,
          "-" ));
  ]

let no_limits = { max_nodes = None; pivots = None }

(* --- Seeded random (M)ILPs ------------------------------------------------ *)

let random_case i =
  let st = Random.State.make [| 0x1b0; i |] in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let n = 2 + (i mod 5) in
  let row () =
    let coefs = Array.init n (fun _ -> R.of_int (int (-4) 4)) in
    match int 0 19 with
    | k when k < 12 -> (coefs, Simplex.Le, R.of_int (int 0 14))
    | k when k < 17 -> (coefs, Simplex.Ge, R.of_int (int (-4) 6))
    | _ -> (coefs, Simplex.Eq, R.of_int (int (-2) 6))
  in
  let rows = List.init (int 1 5) (fun _ -> row ()) in
  let box =
    if i mod 13 = 5 then []
    else
      List.init n (fun j ->
          let coefs = Array.make n R.zero in
          coefs.(j) <- R.one;
          (coefs, Simplex.Le, R.of_int (int 4 8)))
  in
  let objective = Array.init n (fun _ -> R.of_int (int (-4) 4)) in
  let integer =
    if i mod 3 = 0 then Array.make n true
    else Array.init n (fun _ -> Random.State.bool st)
  in
  {
    key = Printf.sprintf "rand%03d" i;
    problem = { Simplex.n_vars = n; objective; rows = rows @ box };
    integer;
    limits =
      {
        max_nodes = (if i mod 7 = 6 then Some 3 else None);
        pivots = (if i mod 11 = 10 then Some (3 + (i mod 23)) else None);
      };
  }

(* x <= 1 and x >= 1 + 2^-60: infeasible, but float64 cannot see the gap.
   Its objective sits on the continuous x, so the float search hands the
   whole problem to the exact search at the root. *)
let ill_conditioned =
  let tiny = R.make 1 1152921504606846976 in
  {
    key = "ill-conditioned";
    problem =
      {
        Simplex.n_vars = 1;
        objective = [| R.one |];
        rows =
          [
            ([| R.one |], Simplex.Le, R.one);
            ([| R.one |], Simplex.Ge, R.add R.one tiny);
          ];
      };
    integer = [| false |];
    limits = no_limits;
  }

(* max x0 + x1 s.t. x0 - x1 <= 3, integer: the root relaxation is
   unbounded. *)
let unbounded =
  {
    key = "unbounded";
    problem =
      {
        Simplex.n_vars = 2;
        objective = [| R.one; R.one |];
        rows = [ ([| R.one; R.minus_one |], Simplex.Le, R.of_int 3) ];
      };
    integer = [| true; true |];
    limits = no_limits;
  }

(* --- Pin ILPs of the paper benchmarks ------------------------------------- *)

let pin_designs =
  [
    ("ar-general", Mcs_cdfg.Benchmarks.ar_general, [ 2; 3; 4; 5 ]);
    ("elliptic", Mcs_cdfg.Benchmarks.elliptic, [ 4; 5; 6 ]);
    ("ar-simple", Mcs_cdfg.Benchmarks.ar_simple, [ 2; 3; 4 ]);
  ]

let pin_case d name rate =
  let cons = Mcs_cdfg.Benchmarks.constraints_for d ~rate in
  let m =
    Mcs_core.Simple_part.Pin_ilp.model d.Mcs_cdfg.Benchmarks.cdfg cons ~rate
      ~fixed:[]
  in
  let problem, integer = Model.to_problem m in
  { key = Printf.sprintf "pin %s r%d" name rate; problem; integer;
    limits = no_limits }

(* One rate sweep of [Pin_ilp.feasible] per arithmetic, in one process.
   No solve may carry state over to the next: {!check} also asserts that
   each sweep record's effort (counter deltas and journal) equals that of
   the same rate's stand-alone [pin] record. *)
let chain_records d name rates =
  List.concat_map
    (fun arith ->
      List.map
        (fun rate ->
          let cons = Mcs_cdfg.Benchmarks.constraints_for d ~rate in
          let ok, deltas, journal =
            observe (fun () ->
                Mcs_core.Simple_part.Pin_ilp.feasible ~arith
                  d.Mcs_cdfg.Benchmarks.cdfg cons ~rate ~fixed:[])
          in
          ( Printf.sprintf "chain %s %s r%d" name
              (Fsimplex.arith_to_string arith)
              rate,
            Printf.sprintf "%b | %s | %s" ok deltas journal ))
        rates)
    [ Fsimplex.Float_certified; Fsimplex.Rational ]

let records () =
  List.concat_map solver_records
    (List.init 600 random_case @ [ ill_conditioned; unbounded ])
  @ List.concat_map
      (fun (name, mk, rates) ->
        let d = mk () in
        List.concat_map (fun r -> solver_records (pin_case d name r)) rates
        @ chain_records d name rates)
      pin_designs

let print_all oc =
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n%!" k v) (records ())

(* The committed records, keyed like the first column. *)
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

(* Fails the current test, naming the first few differing records. *)
let check () =
  let golden = load "golden_ilp.txt" in
  let got = records () in
  let effort v =
    match List.rev (String.split_on_char '|' v) with
    | journal :: deltas :: _ -> (deltas, journal)
    | _ -> failwith ("Golden_ilp: malformed record " ^ v)
  in
  List.iter
    (fun (k, v) ->
      match String.split_on_char ' ' k with
      | [ "chain"; name; arith; r ] ->
          let solver = if arith = "rational" then "rational" else "float" in
          let alone =
            List.assoc (String.concat " " [ "pin"; name; r; solver ]) got
          in
          if effort v <> effort alone then
            Alcotest.failf
              "%s depends on the sweep before it:\n  %s\n  alone: %s" k v
              alone
      | _ -> ())
    got;
  let table = Hashtbl.of_seq (List.to_seq golden) in
  let ms =
    List.filter_map
      (fun (k, v) ->
        match Hashtbl.find_opt table k with
        | Some want when String.equal want v -> None
        | want -> Some (k, Option.value ~default:"(missing)" want, v))
      got
  in
  if List.length golden <> List.length got then
    Alcotest.failf "golden ILP fixture has %d records, the searches produce %d"
      (List.length golden) (List.length got);
  match ms with
  | [] -> ()
  | ms ->
      Alcotest.failf "%d golden ILP record(s) differ:\n%s" (List.length ms)
        (String.concat "\n"
           (List.map
              (fun (k, want, got) ->
                Printf.sprintf "  %s\n    want %s\n    got  %s" k want got)
              (Mcs_util.Listx.take 5 ms)))
