(* Unit and property tests for the ILP substrate: exact simplex, Gomory
   cutting planes, branch & bound, and the model builder. *)

module R = Mcs_util.Ratio
open Mcs_ilp

(* The arithmetic the default flow policy runs ([MCS_ARITH] decides). *)
let arith = Mcs_flow.Flow.default_policy.Mcs_flow.Flow.arith

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let lp n_vars objective rows =
  {
    Simplex.n_vars;
    objective = Array.map R.of_int (Array.of_list objective);
    rows =
      List.map
        (fun (coefs, rel, b) ->
          (Array.map R.of_int (Array.of_list coefs), rel, R.of_int b))
        rows;
  }

let value = function
  | Simplex.Optimal s -> s.Simplex.value
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_basic () =
  (* max 3x+2y st x+y<=4, x+3y<=6 -> 12 at (4,0) *)
  let p = lp 2 [ 3; 2 ] [ ([ 1; 1 ], Simplex.Le, 4); ([ 1; 3 ], Simplex.Le, 6) ] in
  checkb "value 12" true (R.equal (value (Simplex.solve p)) (R.of_int 12))

let test_simplex_fractional_optimum () =
  (* max x+y st 2x+y<=3, x+2y<=3 -> optimum (1,1) value 2 *)
  let p = lp 2 [ 1; 1 ] [ ([ 2; 1 ], Simplex.Le, 3); ([ 1; 2 ], Simplex.Le, 3) ] in
  checkb "value 2" true (R.equal (value (Simplex.solve p)) (R.of_int 2))

let test_simplex_infeasible () =
  let p = lp 1 [ 1 ] [ ([ 1 ], Simplex.Le, 1); ([ 1 ], Simplex.Ge, 2) ] in
  checkb "infeasible" true (Simplex.solve p = Simplex.Infeasible)

let test_simplex_unbounded () =
  let p = lp 1 [ 1 ] [ ([ -1 ], Simplex.Le, 0) ] in
  checkb "unbounded" true (Simplex.solve p = Simplex.Unbounded)

let test_simplex_equality () =
  (* max x st x + y = 3, y >= 1 -> x = 2 *)
  let p = lp 2 [ 1; 0 ] [ ([ 1; 1 ], Simplex.Eq, 3); ([ 0; 1 ], Simplex.Ge, 1) ] in
  checkb "value 2" true (R.equal (value (Simplex.solve p)) (R.of_int 2))

let test_simplex_degenerate () =
  (* Redundant constraints should not cycle (Bland's rule). *)
  let p =
    lp 2 [ 1; 1 ]
      [
        ([ 1; 0 ], Simplex.Le, 1);
        ([ 1; 0 ], Simplex.Le, 1);
        ([ 0; 1 ], Simplex.Le, 1);
        ([ 1; 1 ], Simplex.Le, 2);
      ]
  in
  checkb "value 2" true (R.equal (value (Simplex.solve p)) (R.of_int 2))

let test_simplex_negative_rhs () =
  (* -x <= -2  <=>  x >= 2; max -x subject to x <= 5. *)
  let p = lp 1 [ -1 ] [ ([ -1 ], Simplex.Le, -2); ([ 1 ], Simplex.Le, 5) ] in
  checkb "value -2" true (R.equal (value (Simplex.solve p)) (R.of_int (-2)))

let test_gomory_knapsack () =
  (* max x+y st 2x+2y <= 5 integer -> 2. *)
  let p = lp 2 [ 1; 1 ] [ ([ 2; 2 ], Simplex.Le, 5) ] in
  match Gomory.solve p with
  | Gomory.Optimal s -> checkb "value 2" true (R.equal s.Simplex.value (R.of_int 2))
  | _ -> Alcotest.fail "gomory failed"

let test_gomory_infeasible () =
  (* 2x = 1 has no integer solution (x in [0,3]). *)
  let p =
    lp 1 [ 0 ] [ ([ 2 ], Simplex.Eq, 1); ([ 1 ], Simplex.Le, 3) ]
  in
  checkb "infeasible" true (Gomory.solve p = Gomory.Infeasible)

let test_bb_matches_gomory () =
  let p =
    lp 2 [ 5; 4 ]
      [ ([ 6; 4 ], Simplex.Le, 24); ([ 1; 2 ], Simplex.Le, 6) ]
  in
  let bb =
    match Branch_bound.solve ~integer:[| true; true |] p with
    | Branch_bound.Optimal s -> s.Simplex.value
    | _ -> Alcotest.fail "bb failed"
  in
  let gm =
    match Gomory.solve p with
    | Gomory.Optimal s -> s.Simplex.value
    | _ -> Alcotest.fail "gomory failed"
  in
  checkb "agree" true (R.equal bb gm)

let test_bb_mixed_integer () =
  (* y continuous: max x + y st x + y <= 5/2, x integer -> x=2, y=1/2. *)
  let p =
    {
      Simplex.n_vars = 2;
      objective = [| R.of_int 1; R.of_int 1 |];
      rows = [ ([| R.of_int 2; R.of_int 2 |], Simplex.Le, R.of_int 5) ];
    }
  in
  match Branch_bound.solve ~integer:[| true; false |] p with
  | Branch_bound.Optimal s ->
      checkb "value 5/2" true (R.equal s.Simplex.value (R.make 5 2))
  | _ -> Alcotest.fail "bb failed"

(* A pure feasibility model (zero objective): 2x = 1 has no integer
   point, 2x = 2 has one. *)
let test_bb_feasibility () =
  let p = lp 1 [ 0 ] [ ([ 2 ], Simplex.Eq, 1); ([ 1 ], Simplex.Le, 3) ] in
  checkb "infeasible" true
    (Branch_bound.solve ~integer:[| true |] p = Branch_bound.Infeasible);
  let q = lp 1 [ 0 ] [ ([ 2 ], Simplex.Eq, 2) ] in
  match Branch_bound.solve ~integer:[| true |] q with
  | Branch_bound.Optimal s -> checkb "x = 1" true (R.equal s.Simplex.x.(0) R.one)
  | _ -> Alcotest.fail "2x = 2 has the integer point x = 1"

let test_snapshot_restore () =
  let p =
    lp 2 [ 3; 2 ] [ ([ 1; 1 ], Simplex.Le, 4); ([ 1; 3 ], Simplex.Le, 6) ]
  in
  match Simplex.Tab.of_problem p with
  | `Solved tab ->
      let v () = (Simplex.Tab.solution tab).Simplex.value in
      checkb "root value 12" true (R.equal (v ()) (R.of_int 12));
      let snap = Simplex.Tab.snapshot tab in
      Simplex.Tab.add_row tab [| R.one; R.zero |] Simplex.Le (R.of_int 2);
      (match Simplex.Tab.reoptimize_dual tab with
      | `Ok -> checkb "with x<=2: 26/3" true (R.equal (v ()) (R.make 26 3))
      | `Infeasible -> Alcotest.fail "x<=2 should stay feasible"
      | `Exhausted _ -> Alcotest.fail "unlimited budget exhausted");
      Simplex.Tab.restore tab snap;
      checkb "restored value 12" true (R.equal (v ()) (R.of_int 12));
      (* Re-grow the restored tableau with a contradictory bound: the
         rows discarded by [restore] must not leak back in. *)
      Simplex.Tab.add_row tab [| R.one; R.one |] Simplex.Ge (R.of_int 5);
      checkb "x+y>=5 infeasible" true
        (Simplex.Tab.reoptimize_dual tab = `Infeasible)
  | _ -> Alcotest.fail "root LP should solve"

(* [add_row] + dual re-optimization must agree with a cold solve of the
   extended problem, for every relation kind. *)
let test_add_row_matches_cold () =
  let base =
    lp 2 [ 3; 2 ] [ ([ 1; 1 ], Simplex.Le, 4); ([ 1; 3 ], Simplex.Le, 6) ]
  in
  List.iter
    (fun (name, coefs, rel, b) ->
      let row = (Array.map R.of_int (Array.of_list coefs), rel, R.of_int b) in
      let warm =
        match Simplex.Tab.of_problem base with
        | `Solved tab ->
            let c, r, b = row in
            Simplex.Tab.add_row tab c r b;
            (match Simplex.Tab.reoptimize_dual tab with
            | `Ok -> Simplex.Optimal (Simplex.Tab.solution tab)
            | `Infeasible -> Simplex.Infeasible
            | `Exhausted _ -> Alcotest.fail "unlimited budget exhausted")
        | _ -> Alcotest.fail "base LP should solve"
      in
      let cold =
        Simplex.solve { base with Simplex.rows = base.Simplex.rows @ [ row ] }
      in
      match (warm, cold) with
      | Simplex.Optimal a, Simplex.Optimal b ->
          checkb (name ^ " value agrees") true
            (R.equal a.Simplex.value b.Simplex.value)
      | Simplex.Infeasible, Simplex.Infeasible -> ()
      | _ -> Alcotest.fail (name ^ ": warm and cold disagree"))
    [
      ("le", [ 1; 0 ], Simplex.Le, 2);
      ("ge", [ 0; 1 ], Simplex.Ge, 1);
      ("eq", [ 1; 1 ], Simplex.Eq, 3);
      ("infeasible ge", [ 1; 1 ], Simplex.Ge, 5);
    ]

let test_bb_limit_feasible () =
  (* max 5x+4y st 6x+4y<=24, x+2y<=6: fractional root, integer optimum 20.
     Node counts are deterministic: one node cannot reach an integer
     point, three nodes find one without proving optimality, and the full
     search proves 20. *)
  let p =
    lp 2 [ 5; 4 ] [ ([ 6; 4 ], Simplex.Le, 24); ([ 1; 2 ], Simplex.Le, 6) ]
  in
  let integer = [| true; true |] in
  (match Branch_bound.solve ~max_nodes:1 ~integer p with
  | Branch_bound.Node_limit -> ()
  | _ -> Alcotest.fail "expected Node_limit at 1 node");
  (match Branch_bound.solve ~max_nodes:3 ~integer p with
  | Branch_bound.Limit_feasible s ->
      checkb "integral point" true (Array.for_all R.is_integer s.Simplex.x);
      checkb "at most the optimum" true
        (R.compare s.Simplex.value (R.of_int 20) <= 0)
  | _ -> Alcotest.fail "expected Limit_feasible at 3 nodes");
  (match Branch_bound.solve_cold ~max_nodes:3 ~integer p with
  | Branch_bound.Limit_feasible s ->
      checkb "cold integral point" true
        (Array.for_all R.is_integer s.Simplex.x)
  | _ -> Alcotest.fail "expected cold Limit_feasible at 3 nodes");
  match Branch_bound.solve ~integer p with
  | Branch_bound.Optimal s ->
      checkb "unlimited optimum 20" true (R.equal s.Simplex.value (R.of_int 20))
  | _ -> Alcotest.fail "expected Optimal without a limit"

(* Random small integer programs: BB and Gomory must agree, and the BB
   optimum must satisfy every constraint. *)
let random_ilp_arb =
  let open QCheck in
  let coef = int_range (-4) 4 in
  map
    (fun (c1, c2, rows) ->
      let rows =
        List.map (fun (a, b, r) -> ([ a; b ], Simplex.Le, abs r + 1)) rows
      in
      (* Bound the box so everything is finite. *)
      lp 2 [ c1; c2 ]
        (rows
        @ [ ([ 1; 0 ], Simplex.Le, 7); ([ 0; 1 ], Simplex.Le, 7) ]))
    (triple coef coef
       (list_of_size (Gen.int_range 1 4) (triple coef coef (int_bound 12))))

let prop_bb_gomory_agree =
  QCheck.Test.make ~name:"branch&bound and Gomory agree on small ILPs"
    ~count:150 random_ilp_arb (fun p ->
      let bb = Branch_bound.solve ~integer:[| true; true |] p in
      let gm = Gomory.solve p in
      match (bb, gm) with
      | Branch_bound.Optimal a, Gomory.Optimal b ->
          R.equal a.Simplex.value b.Simplex.value
      | Branch_bound.Infeasible, Gomory.Infeasible -> true
      | Branch_bound.Optimal _, Gomory.Gave_up -> true (* budget; rare *)
      | _ -> false)

let prop_bb_solution_feasible =
  QCheck.Test.make ~name:"BB optimum satisfies all constraints & integrality"
    ~count:150 random_ilp_arb (fun p ->
      match Branch_bound.solve ~integer:[| true; true |] p with
      | Branch_bound.Optimal s ->
          Array.for_all R.is_integer s.Simplex.x
          && List.for_all
               (fun (coefs, rel, b) ->
                 let lhs = ref R.zero in
                 Array.iteri
                   (fun i c -> lhs := R.add !lhs (R.mul c s.Simplex.x.(i)))
                   coefs;
                 match rel with
                 | Simplex.Le -> R.compare !lhs b <= 0
                 | Simplex.Ge -> R.compare !lhs b >= 0
                 | Simplex.Eq -> R.equal !lhs b)
               p.Simplex.rows
      | Branch_bound.Infeasible -> true
      | _ -> false)

let prop_lp_bounds_ilp =
  QCheck.Test.make ~name:"LP relaxation bounds the ILP optimum" ~count:150
    random_ilp_arb (fun p ->
      match (Simplex.solve p, Branch_bound.solve ~integer:[| true; true |] p) with
      | Simplex.Optimal lp_sol, Branch_bound.Optimal ilp_sol ->
          R.compare ilp_sol.Simplex.value lp_sol.Simplex.value <= 0
      | Simplex.Infeasible, Branch_bound.Infeasible -> true
      | Simplex.Optimal _, Branch_bound.Infeasible -> true
      | _ -> false)

(* Warm-started and cold branch & bound are different searches over the
   same problem: statuses must agree and optima must be equal (the
   witness points may differ when the optimum is not unique). *)
let same_bb_result a b =
  match (a, b) with
  | Branch_bound.Optimal x, Branch_bound.Optimal y ->
      R.equal x.Simplex.value y.Simplex.value
  | Branch_bound.Infeasible, Branch_bound.Infeasible -> true
  | Branch_bound.Unbounded, Branch_bound.Unbounded -> true
  | Branch_bound.Node_limit, Branch_bound.Node_limit -> true
  | Branch_bound.Limit_feasible _, Branch_bound.Limit_feasible _ -> true
  | _ -> false

let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm-started BB matches cold BB" ~count:150
    random_ilp_arb (fun p ->
      same_bb_result
        (Branch_bound.solve ~integer:[| true; true |] p)
        (Branch_bound.solve_cold ~integer:[| true; true |] p))

let prop_warm_matches_cold_mixed =
  QCheck.Test.make ~name:"warm-started BB matches cold BB (mixed integer)"
    ~count:150 random_ilp_arb (fun p ->
      same_bb_result
        (Branch_bound.solve ~integer:[| true; false |] p)
        (Branch_bound.solve_cold ~integer:[| true; false |] p))

(* --- Pivot budgets --- *)

module Obs = Mcs_obs.Metrics

let m_pivots = Obs.counter "simplex.pivots"

let pivots_of f =
  let before = Obs.count m_pivots in
  let r = f () in
  (r, Obs.count m_pivots - before)

(* Perf regression test without timers: solving a fixed paper benchmark's
   pin ILP is deterministic, so the pivot count is an exact number.  The
   warm solver must stay inside the budget of [Budgets] and beat the cold
   reference by at least the 2x the issue demands (measured: 20x and
   49x). *)
let test_pivot_budget () =
  let bench name design rate budget =
    let d = design () in
    let cons = Mcs_cdfg.Benchmarks.constraints_for d ~rate in
    let m =
      Mcs_core.Simple_part.Pin_ilp.model d.Mcs_cdfg.Benchmarks.cdfg cons ~rate
        ~fixed:[]
    in
    let p, integer = Model.to_problem m in
    let warm, warm_pivots =
      pivots_of (fun () -> Branch_bound.solve ~integer p)
    in
    let cold, cold_pivots =
      pivots_of (fun () -> Branch_bound.solve_cold ~integer p)
    in
    (match (warm, cold) with
    | Branch_bound.Optimal a, Branch_bound.Optimal b ->
        checkb (name ^ ": warm and cold objectives equal") true
          (R.equal a.Simplex.value b.Simplex.value)
    | Branch_bound.Infeasible, Branch_bound.Infeasible -> ()
    | _ -> Alcotest.fail (name ^ ": warm and cold disagree"));
    checkb
      (Printf.sprintf "%s: warm pivots %d within budget %d" name warm_pivots
         budget)
      true
      (warm_pivots <= budget);
    checkb
      (Printf.sprintf "%s: warm pivots %d at least 2x under cold %d" name
         warm_pivots cold_pivots)
      true
      (warm_pivots * 2 <= cold_pivots)
  in
  bench "ar-general rate 3" Mcs_cdfg.Benchmarks.ar_general 3
    Budgets.ar_general_rate3_pivots;
  bench "elliptic rate 6" Mcs_cdfg.Benchmarks.elliptic 6
    Budgets.elliptic_rate6_pivots

(* --- Hybrid arithmetic: float-first simplex with exact certification --- *)

let m_certify_fail = Obs.counter "ilp.certify.fail"
let m_arith_fallbacks = Obs.counter "bb.arith_fallbacks"
let m_fpivots = Obs.counter "fsimplex.pivots"

let prop_float_matches_rational =
  QCheck.Test.make ~name:"float-certified BB matches rational BB" ~count:150
    random_ilp_arb (fun p ->
      same_bb_result
        (fst (Branch_bound.solve_float ~integer:[| true; true |] p))
        (Branch_bound.solve ~integer:[| true; true |] p))

(* Both arithmetic modes on the pin-allocation ILP of every paper
   benchmark at every rate the paper evaluates: same status, same
   objective.  (The certified float path is only ever allowed to return
   exact solutions, so equality here is [R.equal], not approximate.) *)
let test_arith_modes_agree_benchmarks () =
  List.iter
    (fun (name, mk) ->
      let d = mk () in
      List.iter
        (fun rate ->
          let cons = Mcs_cdfg.Benchmarks.constraints_for d ~rate in
          let m =
            Mcs_core.Simple_part.Pin_ilp.model d.Mcs_cdfg.Benchmarks.cdfg cons
              ~rate ~fixed:[]
          in
          let p, integer = Model.to_problem m in
          let fl, _ = Branch_bound.solve_float ~integer p in
          let ra = Branch_bound.solve ~integer p in
          checkb
            (Printf.sprintf "%s rate %d: float and rational agree" name rate)
            true (same_bb_result fl ra))
        d.Mcs_cdfg.Benchmarks.rates)
    [
      ("ar-simple", Mcs_cdfg.Benchmarks.ar_simple);
      ("ar-general", Mcs_cdfg.Benchmarks.ar_general);
      ("elliptic", Mcs_cdfg.Benchmarks.elliptic);
      ("cond-demo", Mcs_cdfg.Benchmarks.cond_demo);
      ("subbus-demo", Mcs_cdfg.Benchmarks.subbus_demo);
    ]

(* Whole ch3 flow under each arithmetic (a policy field), strict
   checking: both must come out checker-clean with the same schedule
   footprint, and each must have run its own arithmetic. *)
let test_arith_modes_checker_clean () =
  let module F = Mcs_flow.Flow in
  let d = Mcs_cdfg.Benchmarks.ar_simple () in
  let certified = Obs.counter "ilp.certify.ok" in
  let run arith =
    Warm.clear ();
    let ok0 = Obs.count certified in
    let spec = F.spec_of_design ~flow:F.Ch3 d ~rate:2 in
    match
      Mcs_check.run ~level:Mcs_flow.Pass.Strict
        ~policy:{ F.default_policy with F.arith } F.Ch3 spec
    with
    | Ok r -> (r, Obs.count certified - ok0)
    | Error dg ->
        Alcotest.failf "ch3 under %s arithmetic failed: %s"
          (Fsimplex.arith_to_string arith)
          (Mcs_flow.Diag.message dg)
  in
  let a, certified_float = run Fsimplex.Float_certified
  and b, certified_rational = run Fsimplex.Rational in
  checkb "float run certified its answers" true (certified_float > 0);
  checki "rational run certified nothing" 0 certified_rational;
  checkb "pins equal across modes" true (a.F.pins = b.F.pins);
  checkb "pipe length equal across modes" true
    (a.F.pipe_length = b.F.pipe_length)

(* Seeded ill-conditioned LP: x <= 1 and x >= 1 + 2^-60 is infeasible,
   but float64 cannot see the gap, so the float path reaches an
   "optimal" basis whose exact refactorization rejects it — forcing the
   certification-failure fallback to the rational path, which proves
   infeasibility.  The objective is zero: a nonzero coefficient on the
   continuous x would send the whole problem to the exact search before
   any float pivot. *)
let test_certification_failure_falls_back () =
  let tiny = R.make 1 1152921504606846976 (* 2^-60 *) in
  let p =
    {
      Simplex.n_vars = 1;
      objective = [| R.zero |];
      rows =
        [
          ([| R.one |], Simplex.Le, R.one);
          ([| R.one |], Simplex.Ge, R.add R.one tiny);
        ];
    }
  in
  let fail0 = Obs.count m_certify_fail and fb0 = Obs.count m_arith_fallbacks in
  (match Branch_bound.solve_float ~integer:[| false |] p with
  | Branch_bound.Infeasible, _ -> ()
  | _ -> Alcotest.fail "ill-conditioned LP must still come out infeasible");
  checkb "certification failed at least once" true
    (Obs.count m_certify_fail > fail0);
  checkb "fell back to the rational path" true
    (Obs.count m_arith_fallbacks > fb0)

(* No problem from [random_ilp_arb] is unbounded (every one is boxed), so
   this drives the float search's root fallback directly: an unbounded
   relaxation has no certificate, so the whole problem goes to the exact
   search, which reports [Unbounded] and no basis. *)
let test_float_root_unbounded_falls_back () =
  let p = lp 2 [ 1; 1 ] [ ([ 1; -1 ], Simplex.Le, 3) ] in
  let fb0 = Obs.count m_arith_fallbacks in
  let r, basis = Branch_bound.solve_float ~integer:[| true; true |] p in
  checkb "unbounded" true (r = Branch_bound.Unbounded);
  checkb "no root basis" true (basis = []);
  checki "one arith fallback" 1 (Obs.count m_arith_fallbacks - fb0)

(* --- Certificates by reconstruction --- *)

(* Small LPs with 2-4 variables, [Le]/[Ge]/[Eq] rows and (usually) a box,
   over small integers: enough infeasible, degenerate and fractional
   cases to exercise both certificates. *)
let random_lp_arb =
  let open QCheck in
  let gen =
    let open Gen in
    int_range 2 4 >>= fun n ->
    let coefs = array_size (return n) (int_range (-4) 4) in
    let row =
      triple coefs (int_range 0 9) (int_range (-4) 12) >|= fun (c, k, b) ->
      let rel =
        if k < 5 then Simplex.Le else if k < 8 then Simplex.Ge else Simplex.Eq
      in
      (Array.map R.of_int c, rel, R.of_int b)
    in
    let box =
      List.init n (fun j ->
          let c = Array.make n R.zero in
          c.(j) <- R.one;
          (c, Simplex.Le, R.of_int 6))
    in
    quad coefs (list_size (int_range 1 5) row) bool (int_range 0 9)
    >|= fun (obj, rows, boxed, zero_obj) ->
    {
      Simplex.n_vars = n;
      objective =
        (if zero_obj < 3 then Array.make n R.zero else Array.map R.of_int obj);
      rows = (rows @ if boxed then box else []);
    }
  in
  make gen

(* Every certified float verdict matches the exact simplex, and the exact
   checks reject a perturbed certificate: one positive Farkas multiplier
   negated, or one basic value moved by 1/7 either way. *)
let prop_certificates_sound =
  QCheck.Test.make ~name:"reconstructed certificates match the exact simplex"
    ~count:300 random_lp_arb (fun p ->
      let t = Fsimplex.create p in
      let exact = Simplex.solve p in
      let sound =
        match Fsimplex.solve_lp t with
        | `Infeasible r -> (
            match Fsimplex.farkas_multipliers t r with
            | Some z when Fsimplex.farkas_holds t z ->
                exact = Simplex.Infeasible
                && Array.for_all
                     (fun i ->
                       R.sign z.(i) <= 0
                       ||
                       let z' = Array.copy z in
                       z'.(i) <- R.neg z.(i);
                       not (Fsimplex.farkas_holds t z'))
                     (Array.init (Array.length z) Fun.id)
            | _ -> true)
        | `Optimal -> (
            match (Fsimplex.certify_optimal t, exact) with
            | None, _ -> true
            | Some s, Simplex.Optimal e ->
                R.equal s.Simplex.value e.Simplex.value
                && Fsimplex.primal_holds t s.Simplex.x
                && List.for_all
                     (fun j ->
                       List.for_all
                         (fun d ->
                           let x' = Array.copy s.Simplex.x in
                           x'.(j) <- R.add x'.(j) d;
                           not (Fsimplex.primal_holds t x'))
                         [ R.make 1 7; R.make (-1) 7 ])
                     (Fsimplex.basic_structurals t)
            | Some _, _ -> false)
        | `Unbounded | `Stuck -> true
      in
      Fsimplex.dispose t;
      sound)

(* The float search's proven verdicts on the unlimited (M)ILPs of the
   golden fixture match the exact search's: every infeasibility and every
   optimum.  (The float bound test prunes a node whose bound does not
   clear the incumbent by half a unit, which assumes an objective that is
   integral at integer points; a mixed program whose objective is not
   goes to the exact search whole.) *)
let test_golden_ilp_verdicts_exact () =
  for i = 0 to 599 do
    let c = Golden_ilp.random_case i in
    if c.Golden_ilp.limits = Golden_ilp.no_limits then
      let integer = c.Golden_ilp.integer and p = c.Golden_ilp.problem in
      let f = fst (Branch_bound.solve_float ~integer p) in
      let proven =
        match f with
        | Branch_bound.Infeasible | Branch_bound.Optimal _ -> true
        | _ -> false
      in
      if proven then
        checkb
          (Printf.sprintf "%s: float verdict is exact" c.Golden_ilp.key)
          true
          (same_bb_result f (Branch_bound.solve ~integer p))
  done

(* x + y <= 2 against x + y >= 3: the multipliers (1, 1) refute it.
   Dropping either one leaves no refutation, and (3/2, 1) combines the
   rows to 0 <= 0, which refutes nothing. *)
let test_farkas_perturbed_rejected () =
  let p =
    lp 2 [ 0; 0 ] [ ([ 1; 1 ], Simplex.Le, 2); ([ 1; 1 ], Simplex.Ge, 3) ]
  in
  let t = Fsimplex.create p in
  (match Fsimplex.solve_lp t with
  | `Infeasible r -> (
      match Fsimplex.farkas_multipliers t r with
      | None -> Alcotest.fail "no multipliers reconstructed"
      | Some z ->
          checkb "reconstructed multipliers refute" true
            (Fsimplex.farkas_holds t z);
          Array.iteri
            (fun i zi ->
              if R.sign zi > 0 then begin
                let z' = Array.copy z in
                z'.(i) <- R.zero;
                checkb
                  (Printf.sprintf "multiplier %d dropped is rejected" i)
                  false (Fsimplex.farkas_holds t z')
              end)
            z;
          checkb "multipliers summing to 0 <= 0 are rejected" false
            (Fsimplex.farkas_holds t [| R.make 3 2; R.one |]))
  | _ -> Alcotest.fail "expected an infeasible LP");
  Fsimplex.dispose t

(* Every record of the golden fixture: the three searches over seeded
   random ILPs (node limits, pivot budgets, unbounded relaxations), the
   ill-conditioned fallback LP and the paper pin ILPs. *)
let test_golden_ilp () = Golden_ilp.check ()

(* Float pivots charge the same Budget pivot axis as rational ones, so a
   deadline holds whichever arithmetic runs. *)
let test_float_pivots_budgeted () =
  let d = Mcs_cdfg.Benchmarks.ar_general () in
  let cons = Mcs_cdfg.Benchmarks.constraints_for d ~rate:3 in
  let m =
    Mcs_core.Simple_part.Pin_ilp.model d.Mcs_cdfg.Benchmarks.cdfg cons ~rate:3
      ~fixed:[]
  in
  let p, integer = Model.to_problem m in
  let budget = Mcs_resilience.Budget.make ~pivots:5 () in
  match fst (Branch_bound.solve_float ~budget ~integer p) with
  | Branch_bound.Exhausted e ->
      checkb "the pivot axis was the one exhausted" true
        (e.Mcs_resilience.Budget.resource = Mcs_resilience.Budget.Pivots)
  | Branch_bound.Limit_feasible _ -> ()
  | _ -> Alcotest.fail "a 5-pivot budget must exhaust the float path"

(* Cross-grid warm starts: the pin ILP at neighboring rates shares a
   rate-independent Warm site key, so solving rate 3 then rate 4 in one
   chain must pivot less in total than solving each cold. *)
let test_grid_warm_chain () =
  let d = Mcs_cdfg.Benchmarks.ar_general () in
  let solve rate =
    let cons = Mcs_cdfg.Benchmarks.constraints_for d ~rate in
    ignore
      (Mcs_core.Simple_part.Pin_ilp.feasible ~arith:Fsimplex.Float_certified
         d.Mcs_cdfg.Benchmarks.cdfg cons ~rate ~fixed:[])
  in
  let pivots f =
    let before = Obs.count m_fpivots in
    f ();
    Obs.count m_fpivots - before
  in
  let cold =
    pivots (fun () ->
        List.iter
          (fun r ->
            Warm.clear ();
            solve r)
          [ 3; 4 ])
  in
  Warm.clear ();
  let chained = pivots (fun () -> List.iter solve [ 3; 4 ]) in
  Warm.clear ();
  checkb
    (Printf.sprintf "chained pivots %d < cold pivots %d" chained cold)
    true (chained < cold)

(* --- Model builder --- *)

let test_model_knapsack () =
  let m = Model.create () in
  let a = Model.binary m "a" and b = Model.binary m "b" and c = Model.binary m "c" in
  Model.add_le m
    (Model.sum [ Model.term 2 a; Model.term 3 b; Model.v c ])
    (Model.const 4);
  Model.set_objective m
    (Model.sum [ Model.term 5 a; Model.term 4 b; Model.term 3 c ]);
  match Model.solve ~arith m with
  | Model.Optimal s ->
      checkb "objective 8" true (R.equal s.Model.objective (R.of_int 8));
      checki "a" 1 (Model.int_value s a);
      checki "b" 0 (Model.int_value s b);
      checki "c" 1 (Model.int_value s c)
  | _ -> Alcotest.fail "model solve failed"

let test_model_negative_lower_bound () =
  let m = Model.create () in
  let x = Model.int_var m ~lo:(-5) ~hi:5 "x" in
  Model.set_objective m (Model.scale (-1) (Model.v x));
  match Model.solve ~arith m with
  | Model.Optimal s ->
      checki "x at lower bound" (-5) (Model.int_value s x);
      checkb "objective 5" true (R.equal s.Model.objective (R.of_int 5))
  | _ -> Alcotest.fail "failed"

let test_model_max_bin () =
  let m = Model.create () in
  let x = Model.binary m "x" and y = Model.binary m "y" in
  let z = Model.binary m "z" in
  Model.eq_max_bin m z [ x; y ];
  Model.add_eq m (Model.v x) (Model.const 0);
  Model.add_eq m (Model.v y) (Model.const 1);
  Model.set_objective m (Model.const 0);
  match Model.solve ~arith m with
  | Model.Optimal s -> checki "z = max(0,1)" 1 (Model.int_value s z)
  | _ -> Alcotest.fail "failed"

let test_model_xor () =
  List.iter
    (fun (a, b, expect) ->
      let m = Model.create () in
      let x = Model.binary m "x" and y = Model.binary m "y" in
      let z = Model.binary m "z" in
      Model.eq_xor_bin m z x y;
      Model.add_eq m (Model.v x) (Model.const a);
      Model.add_eq m (Model.v y) (Model.const b);
      match Model.solve ~arith m with
      | Model.Optimal s ->
          checki (Printf.sprintf "%d xor %d" a b) expect (Model.int_value s z)
      | _ -> Alcotest.fail "failed")
    [ (0, 0, 0); (0, 1, 1); (1, 0, 1); (1, 1, 0) ]

let test_model_implication () =
  let m = Model.create () in
  let b = Model.binary m "b" in
  let x = Model.int_var m ~lo:0 ~hi:10 "x" in
  Model.implies_le m ~big_m:100 b (Model.v x) (Model.const 3);
  Model.add_eq m (Model.v b) (Model.const 1);
  Model.set_objective m (Model.v x);
  match Model.solve ~arith m with
  | Model.Optimal s -> checki "x forced <= 3" 3 (Model.int_value s x)
  | _ -> Alcotest.fail "failed"

let test_model_iff_positive () =
  let m = Model.create () in
  let b = Model.binary m "b" in
  let x = Model.int_var m ~lo:0 ~hi:10 "x" in
  Model.iff_positive m ~big_m:10 b (Model.v x);
  Model.add_eq m (Model.v b) (Model.const 0);
  Model.set_objective m (Model.v x);
  (match Model.solve ~arith m with
  | Model.Optimal s -> checki "x forced 0" 0 (Model.int_value s x)
  | _ -> Alcotest.fail "failed");
  let m2 = Model.create () in
  let b2 = Model.binary m2 "b" in
  let x2 = Model.int_var m2 ~lo:0 ~hi:10 "x" in
  Model.iff_positive m2 ~big_m:10 b2 (Model.v x2);
  Model.add_eq m2 (Model.v b2) (Model.const 1);
  Model.set_objective m2 (Model.scale (-1) (Model.v x2));
  match Model.solve ~arith m2 with
  | Model.Optimal s -> checki "x forced >= 1" 1 (Model.int_value s x2)
  | _ -> Alcotest.fail "failed"

let test_model_gomory_method () =
  let m = Model.create () in
  let x = Model.int_var m ~hi:10 "x" and y = Model.int_var m ~hi:10 "y" in
  Model.add_le m (Model.add (Model.term 2 x) (Model.term 2 y)) (Model.const 7);
  Model.set_objective m (Model.add (Model.v x) (Model.v y));
  match Model.solve ~arith ~method_:`Gomory m with
  | Model.Optimal s -> checkb "value 3" true (R.equal s.Model.objective (R.of_int 3))
  | _ -> Alcotest.fail "gomory method failed"

let test_model_pp_lp () =
  let m = Model.create () in
  let x = Model.binary m "x" in
  Model.add_le m (Model.term 2 x) (Model.const 1);
  Model.set_objective m (Model.v x);
  let s = Format.asprintf "%a" Model.pp_lp m in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions Maximize" true (contains s "Maximize");
  checkb "mentions variable" true (contains s "x")

let suite =
  ( "ilp",
    [
      Alcotest.test_case "simplex basic" `Quick test_simplex_basic;
      Alcotest.test_case "simplex fractional optimum" `Quick test_simplex_fractional_optimum;
      Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
      Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
      Alcotest.test_case "simplex equality rows" `Quick test_simplex_equality;
      Alcotest.test_case "simplex degenerate (no cycling)" `Quick test_simplex_degenerate;
      Alcotest.test_case "simplex negative rhs" `Quick test_simplex_negative_rhs;
      Alcotest.test_case "gomory knapsack" `Quick test_gomory_knapsack;
      Alcotest.test_case "gomory infeasible" `Quick test_gomory_infeasible;
      Alcotest.test_case "bb matches gomory" `Quick test_bb_matches_gomory;
      Alcotest.test_case "bb mixed integer" `Quick test_bb_mixed_integer;
      Alcotest.test_case "bb feasibility" `Quick test_bb_feasibility;
      Alcotest.test_case "tableau snapshot/restore" `Quick test_snapshot_restore;
      Alcotest.test_case "add_row matches cold solve" `Quick test_add_row_matches_cold;
      Alcotest.test_case "bb limit-feasible" `Quick test_bb_limit_feasible;
      Alcotest.test_case "warm BB pivot budgets" `Quick test_pivot_budget;
      Alcotest.test_case "arith modes agree on paper benchmarks" `Quick
        test_arith_modes_agree_benchmarks;
      Alcotest.test_case "arith modes checker-clean ch3" `Quick
        test_arith_modes_checker_clean;
      Alcotest.test_case "certification failure falls back" `Quick
        test_certification_failure_falls_back;
      Alcotest.test_case "float pivots charge the budget" `Quick
        test_float_pivots_budgeted;
      Alcotest.test_case "float root unbounded falls back" `Quick
        test_float_root_unbounded_falls_back;
      Alcotest.test_case "golden B&B records" `Quick test_golden_ilp;
      Alcotest.test_case "cross-grid warm chain pivots less" `Quick
        test_grid_warm_chain;
      Alcotest.test_case "model knapsack" `Quick test_model_knapsack;
      Alcotest.test_case "model negative lower bounds" `Quick test_model_negative_lower_bound;
      Alcotest.test_case "model max of binaries" `Quick test_model_max_bin;
      Alcotest.test_case "model xor linearization" `Quick test_model_xor;
      Alcotest.test_case "model implication" `Quick test_model_implication;
      Alcotest.test_case "model iff-positive" `Quick test_model_iff_positive;
      Alcotest.test_case "model via gomory" `Quick test_model_gomory_method;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_bb_gomory_agree;
          prop_bb_solution_feasible;
          prop_lp_bounds_ilp;
          prop_warm_matches_cold;
          prop_warm_matches_cold_mixed;
          prop_float_matches_rational;
          prop_certificates_sound;
        ]
    @ [
        Alcotest.test_case "golden float verdicts are exact" `Quick
          test_golden_ilp_verdicts_exact;
        Alcotest.test_case "perturbed Farkas multipliers rejected" `Quick
          test_farkas_perturbed_rejected;
      ] )
