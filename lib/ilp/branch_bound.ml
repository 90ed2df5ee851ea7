module R = Mcs_util.Ratio
module M = Mcs_obs.Metrics
module E = Mcs_obs.Events
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault

let m_solves = M.counter "bb.solves"
let m_nodes = M.counter "bb.nodes"
let m_prune_infeasible = M.counter "bb.prune_infeasible"
let m_prune_bound = M.counter "bb.prune_bound"
let m_incumbents = M.counter "bb.incumbents"
let m_node_limit = M.counter "bb.node_limit"
let m_warm_restores = M.counter "bb.warm_restores"
let m_child_unbounded = M.counter "bb.child_unbounded"
let g_depth_peak = M.gauge "bb.depth_peak"

(* Same instrument as Simplex's pivot counter (registration is
   idempotent): node.close journal events report the pivots each dual
   reoptimization cost as the delta across the node. *)
let m_pivots = M.counter "simplex.pivots"

type result =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded
  | Node_limit
  | Limit_feasible of Simplex.solution
  | Exhausted of Budget.exhausted

let first_fractional ~integer (sol : Simplex.solution) =
  let n = Array.length sol.x in
  let found = ref None in
  (try
     for i = 0 to n - 1 do
       if integer.(i) && not (R.is_integer sol.x.(i)) then begin
         found := Some i;
         raise Exit
       end
     done
   with Exit -> ());
  !found

let half = R.make 1 2

(* Most-fractional rule: branch on the integer variable whose fractional
   part is closest to 1/2 (smallest index breaks ties), the variable whose
   rounding the LP is least decided about.  Cheap now that a node costs a
   handful of dual pivots rather than a full re-solve. *)
let most_fractional ~integer (sol : Simplex.solution) =
  let best = ref None in
  Array.iteri
    (fun i xi ->
      if integer.(i) && not (R.is_integer xi) then begin
        let dist = R.abs (R.sub (R.frac xi) half) in
        match !best with
        | Some (_, d) when R.compare dist d <= 0 -> ()
        | _ -> best := Some (i, dist)
      end)
    sol.x;
  match !best with Some (i, _) -> Some i | None -> None

let unit_row n i coef =
  let row = Array.make n R.zero in
  row.(i) <- coef;
  row

(* Max-heap on the parent's LP bound (best-bound node ordering); among
   equal bounds the youngest node wins, so the search dives depth-first
   within a bound plateau.  The tie-break matters: pure feasibility
   models (zero objective, ubiquitous in the pin ILPs) make every bound
   equal, and a FIFO tie-break would degenerate into breadth-first
   search.  Either way the order — and therefore every pivot/node
   counter — is deterministic. *)
module Pq = struct
  type ('k, 'a) t = {
    cmp : 'k -> 'k -> int;
    mutable heap : ('k * int * 'a) array;
    mutable len : int;
    mutable seq : int;
  }

  let create cmp = { cmp; heap = [||]; len = 0; seq = 0 }

  let before q (b1, s1, _) (b2, s2, _) =
    let c = q.cmp b1 b2 in
    c > 0 || (c = 0 && s1 > s2)

  let swap q i j =
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(j);
    q.heap.(j) <- tmp

  let push q bound payload =
    let e = (bound, q.seq, payload) in
    q.seq <- q.seq + 1;
    if q.len = Array.length q.heap then begin
      let heap = Array.make (Stdlib.max 16 (2 * q.len)) e in
      Array.blit q.heap 0 heap 0 q.len;
      q.heap <- heap
    end;
    q.heap.(q.len) <- e;
    q.len <- q.len + 1;
    let i = ref (q.len - 1) in
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      if before q q.heap.(!i) q.heap.(p) then begin
        swap q !i p;
        i := p
      end
      else moving := false
    done

  let pop q =
    if q.len = 0 then None
    else begin
      let top = q.heap.(0) in
      q.len <- q.len - 1;
      if q.len > 0 then begin
        q.heap.(0) <- q.heap.(q.len);
        let i = ref 0 in
        let moving = ref true in
        while !moving do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let best = ref !i in
          if l < q.len && before q q.heap.(l) q.heap.(!best) then best := l;
          if r < q.len && before q q.heap.(r) q.heap.(!best) then best := r;
          if !best <> !i then begin
            swap q !i !best;
            i := !best
          end
          else moving := false
        done
      end;
      Some top
    end
end

type node = {
  snap : Simplex.Tab.snapshot; (* parent's optimal tableau *)
  var : int; (* branching variable *)
  dir : [ `Le of int | `Ge of int ]; (* the single bound this child adds *)
  depth : int;
}

(* Warm-started branch & bound: the root LP is solved once; every child
   restores its parent's optimal tableau, appends its one branching bound
   with [Tab.add_row] and re-optimizes with the dual simplex, so a node
   costs a few pivots instead of a two-phase solve from scratch.  A child
   can never be unbounded — its LP is the parent's (bounded, optimal) LP
   plus one constraint — so [Unbounded] is decided at the root alone. *)
let solve_rational ?(budget = Budget.unlimited) ?(max_nodes = 200_000) ~integer
    (p : Simplex.problem) =
  if Array.length integer <> p.n_vars then
    invalid_arg "Branch_bound.solve: integer mask length mismatch";
  M.incr m_solves;
  M.incr m_nodes;
  match Fault.exhaust_ilp () with
  | Some e -> Exhausted e
  | None -> (
  match Simplex.Tab.of_problem ~budget p with
  | `Infeasible ->
      M.incr m_prune_infeasible;
      Infeasible
  | `Unbounded -> Unbounded
  | `Exhausted e -> Exhausted e
  | `Solved tab ->
      let incumbent = ref None in
      let better value =
        match !incumbent with
        | None -> true
        | Some (v, _) -> R.compare value v > 0
      in
      let nodes = ref 1 in
      let hit_limit = ref false in
      let exhausted = ref None in
      let q = Pq.create R.compare in
      (* The LP optimum at a node: record it if integral, otherwise push
         both children carrying a snapshot of this node's tableau. *)
      let consider (sol : Simplex.solution) depth =
        if not (better sol.value) then M.incr m_prune_bound
        else
          match most_fractional ~integer sol with
          | None ->
              M.incr m_incumbents;
              if E.on () then
                E.emit ~cat:"bb" "incumbent"
                  ~args:[ ("node", E.Int !nodes); ("depth", E.Int depth) ];
              incumbent := Some (sol.value, sol)
          | Some i ->
              let snap = Simplex.Tab.snapshot tab in
              let f = R.floor sol.x.(i) in
              (* Pushed ceil-then-floor so the LIFO tie-break dives into
                 the floor branch first, like the cold reference. *)
              Pq.push q sol.value
                { snap; var = i; dir = `Ge (f + 1); depth = depth + 1 };
              Pq.push q sol.value
                { snap; var = i; dir = `Le f; depth = depth + 1 }
      in
      let rec drain () =
        match Pq.pop q with
        | None -> ()
        | Some (bound, _, node) ->
            if not (better bound) then begin
              (* Best-bound order makes this final: once the best open
                 bound cannot beat the incumbent, no open node can. *)
              M.incr m_prune_bound;
              drain ()
            end
            else if !nodes >= max_nodes then begin
              hit_limit := true;
              M.incr m_node_limit
            end
            else begin
              incr nodes;
              Budget.spend_node budget;
              M.incr m_nodes;
              M.incr m_warm_restores;
              M.set_max g_depth_peak (float_of_int node.depth);
              let journaling = E.on () in
              let pivots0 = if journaling then M.count_local m_pivots else 0 in
              if journaling then
                E.emit ~cat:"bb" "node.open"
                  ~args:
                    [
                      ("node", E.Int !nodes);
                      ("depth", E.Int node.depth);
                      ("var", E.Int node.var);
                      ( "branch",
                        E.Str
                          (match node.dir with
                          | `Le b -> Printf.sprintf "x%d<=%d" node.var b
                          | `Ge b -> Printf.sprintf "x%d>=%d" node.var b) );
                    ];
              let close outcome =
                if journaling then
                  E.emit ~cat:"bb" "node.close"
                    ~args:
                      [
                        ("node", E.Int !nodes);
                        ("outcome", E.Str outcome);
                        ("pivots", E.Int (M.count_local m_pivots - pivots0));
                      ]
              in
              Simplex.Tab.restore tab node.snap;
              let coefs = unit_row p.n_vars node.var R.one in
              (match node.dir with
              | `Le b -> Simplex.Tab.add_row tab coefs Simplex.Le (R.of_int b)
              | `Ge b -> Simplex.Tab.add_row tab coefs Simplex.Ge (R.of_int b));
              match Simplex.Tab.reoptimize_dual tab with
              | `Infeasible ->
                  M.incr m_prune_infeasible;
                  close "infeasible";
                  drain ()
              | `Exhausted e ->
                  close "exhausted";
                  exhausted := Some e
              | `Ok ->
                  close "solved";
                  consider (Simplex.Tab.solution tab) node.depth;
                  drain ()
            end
      in
      (try
         consider (Simplex.Tab.solution tab) 0;
         drain ()
       with Budget.Out_of_budget e -> exhausted := Some e);
      (match (!incumbent, !exhausted, !hit_limit) with
      | Some (_, sol), None, false -> Optimal sol
      | Some (_, sol), _, _ ->
          (* Optimality is unproven (node limit or budget), but the
             integer point is genuine: hand it to the caller instead of
             discarding it. *)
          Limit_feasible sol
      | None, Some e, _ -> Exhausted e
      | None, None, true -> Node_limit
      | None, None, false -> Infeasible))

(* --- Float-first search with exact certification ----------------------- *)

let m_fallbacks = M.counter "bb.arith_fallbacks"
let m_fpivots = M.counter "fsimplex.pivots"

(* Branching needs only a rough picture of the LP optimum — every value
   that becomes an incumbent is re-derived exactly by certification — so a
   generous near-integrality window is safe: a wrong call either branches
   once more or surfaces as an exactly-fractional certified point, which
   branches on the exact value below. *)
let int_tol = 1e-6

let float_most_fractional ~integer (x : float array) =
  let best = ref None in
  Array.iteri
    (fun i xi ->
      if integer.(i) then begin
        let fl = Float.floor xi in
        let frac = xi -. fl in
        if frac > int_tol && frac < 1.0 -. int_tol then begin
          let dist = Float.abs (frac -. 0.5) in
          match !best with
          | Some (_, _, d) when d <= dist -> ()
          | _ -> best := Some (i, int_of_float fl, dist)
        end
      end)
    x;
  match !best with Some (i, fl, _) -> Some (i, fl) | None -> None

type fnode = {
  fsnap : Fsimplex.snapshot; (* parent's optimal float tableau *)
  fvar : int;
  fdir : [ `Le of int | `Ge of int ];
  fdepth : int;
  fchain : (int * [ `Le of int | `Ge of int ]) list;
      (* every bound from the root to this node (own included), newest
         first — the exact subproblem a certification failure re-solves
         rationally *)
}

let bound_rows n_vars chain =
  List.rev_map
    (fun (var, dir) ->
      match dir with
      | `Le b -> (unit_row n_vars var R.one, Simplex.Le, R.of_int b)
      | `Ge b -> (unit_row n_vars var R.one, Simplex.Ge, R.of_int b))
    chain

(* Same warm node loop as [solve_rational], but every pivot is a float64
   row operation on the {!Fsimplex} tableau and exact arithmetic only runs
   at the leaves: candidate incumbents are certified (and re-derived) over
   rationals, infeasibility prunes carry a Farkas certificate, and a node
   whose certificate fails is re-solved — that node's subtree only, not
   the whole search — by the exact warm solver.  Bound pruning needs no
   certificate: every objective in this library has integer coefficients,
   so a child is useful only when its LP bound clears incumbent + 1, and
   the half-unit slack in [worth_float] absorbs any realistic roundoff.

   Returns the result plus the root LP basis (structural columns) for the
   cross-grid warm-start registry. *)
let solve_float ?(budget = Budget.unlimited) ?(max_nodes = 200_000)
    ?(warm = []) ~integer (p : Simplex.problem) =
  if Array.length integer <> p.n_vars then
    invalid_arg "Branch_bound.solve_float: integer mask length mismatch";
  M.incr m_solves;
  M.incr m_nodes;
  match Fault.exhaust_ilp () with
  | Some e -> (Exhausted e, [])
  | None -> (
      let ft = Fsimplex.create ~budget p in
      (* [dispose] recycles the tableau buffer even on an abandoned-queue
         exit; unreleased snapshots just fall to the GC. *)
      Fun.protect ~finally:(fun () -> Fsimplex.dispose ft) @@ fun () ->
      let incumbent = ref None in
      let better_exact v =
        match !incumbent with
        | None -> true
        | Some (v0, _) -> R.compare v v0 > 0
      in
      let worth_float fb =
        match !incumbent with
        | None -> true
        | Some (v0, _) -> fb > R.to_float v0 +. 0.5
      in
      let nodes = ref 1 in
      let hit_limit = ref false in
      let exhausted = ref None in
      let wholesale = ref None in
      let root_basis = ref [] in
      let q = Pq.create Float.compare in
      let rational_subtree chain =
        M.incr m_fallbacks;
        let p' = { p with Simplex.rows = p.rows @ bound_rows p.n_vars chain } in
        match solve_rational ~budget ~max_nodes ~integer p' with
        | (Optimal s | Limit_feasible s) as r ->
            (match r with Limit_feasible _ -> hit_limit := true | _ -> ());
            if better_exact s.Simplex.value then begin
              M.incr m_incumbents;
              incumbent := Some (s.Simplex.value, s)
            end
        | Infeasible -> M.incr m_prune_infeasible
        | Unbounded -> M.incr m_child_unbounded
        | Node_limit -> hit_limit := true
        | Exhausted e -> exhausted := Some e
      in
      let push_children fb i fl depth chain =
        (* one use per child; the second [release] recycles the buffer *)
        let snap = Fsimplex.snapshot ~uses:2 ft in
        (* Ceil-then-floor, like the rational twin: the LIFO plateau
           tie-break dives into the floor branch first. *)
        Pq.push q fb
          {
            fsnap = snap;
            fvar = i;
            fdir = `Ge (fl + 1);
            fdepth = depth + 1;
            fchain = (i, `Ge (fl + 1)) :: chain;
          };
        Pq.push q fb
          {
            fsnap = snap;
            fvar = i;
            fdir = `Le fl;
            fdepth = depth + 1;
            fchain = (i, `Le fl) :: chain;
          }
      in
      let consider depth chain =
        let fb = Fsimplex.value_float ft in
        if not (worth_float fb) then M.incr m_prune_bound
        else
          match float_most_fractional ~integer (Fsimplex.x_float ft) with
          | Some (i, fl) -> push_children fb i fl depth chain
          | None -> (
              match Fsimplex.certify_optimal ft with
              | None -> rational_subtree chain
              | Some sol -> (
                  match most_fractional ~integer sol with
                  | Some i ->
                      (* Float-integral but exactly fractional: branch on
                         the exact value rather than trusting the float. *)
                      push_children fb i (R.floor sol.Simplex.x.(i)) depth
                        chain
                  | None ->
                      if better_exact sol.Simplex.value then begin
                        M.incr m_incumbents;
                        if E.on () then
                          E.emit ~cat:"bb" "incumbent"
                            ~args:
                              [
                                ("node", E.Int !nodes);
                                ("depth", E.Int depth);
                              ];
                        incumbent := Some (sol.Simplex.value, sol)
                      end))
      in
      let rec drain () =
        match Pq.pop q with
        | None -> ()
        | Some (fbound, _, node) ->
            if not (worth_float fbound) then begin
              Fsimplex.release ft node.fsnap;
              M.incr m_prune_bound;
              drain ()
            end
            else if !nodes >= max_nodes then begin
              hit_limit := true;
              M.incr m_node_limit
            end
            else begin
              incr nodes;
              Budget.spend_node budget;
              M.incr m_nodes;
              M.incr m_warm_restores;
              M.set_max g_depth_peak (float_of_int node.fdepth);
              let journaling = E.on () in
              let pivots0 = if journaling then M.count_local m_fpivots else 0 in
              if journaling then
                E.emit ~cat:"bb" "node.open"
                  ~args:
                    [
                      ("node", E.Int !nodes);
                      ("depth", E.Int node.fdepth);
                      ("var", E.Int node.fvar);
                      ( "branch",
                        E.Str
                          (match node.fdir with
                          | `Le b -> Printf.sprintf "x%d<=%d" node.fvar b
                          | `Ge b -> Printf.sprintf "x%d>=%d" node.fvar b) );
                    ];
              let close outcome =
                if journaling then
                  E.emit ~cat:"bb" "node.close"
                    ~args:
                      [
                        ("node", E.Int !nodes);
                        ("outcome", E.Str outcome);
                        ("pivots", E.Int (M.count_local m_fpivots - pivots0));
                      ]
              in
              Fsimplex.restore ft node.fsnap;
              Fsimplex.release ft node.fsnap;
              let coefs = unit_row p.n_vars node.fvar R.one in
              (match node.fdir with
              | `Le b -> Fsimplex.add_row ft coefs Simplex.Le (R.of_int b)
              | `Ge b -> Fsimplex.add_row ft coefs Simplex.Ge (R.of_int b));
              (match Fsimplex.reoptimize_dual ft with
              | `Infeasible r ->
                  if Fsimplex.certify_infeasible ft r then begin
                    M.incr m_prune_infeasible;
                    close "infeasible"
                  end
                  else begin
                    close "fallback";
                    rational_subtree node.fchain
                  end
              | `Stuck ->
                  close "fallback";
                  rational_subtree node.fchain
              | `Ok ->
                  close "solved";
                  consider node.fdepth node.fchain);
              if !exhausted = None then drain ()
            end
      in
      (try
         match Fsimplex.solve_lp ~warm ft with
         | `Infeasible r ->
             if Fsimplex.certify_infeasible ft r then
               M.incr m_prune_infeasible
             else begin
               M.incr m_fallbacks;
               wholesale :=
                 Some (solve_rational ~budget ~max_nodes ~integer p)
             end
         | `Unbounded | `Stuck ->
             (* An unboundedness claim has no certificate in this scheme,
                and a stalled root has no basis worth saving: hand the
                whole problem to the exact path. *)
             M.incr m_fallbacks;
             wholesale := Some (solve_rational ~budget ~max_nodes ~integer p)
         | `Optimal ->
             root_basis := Fsimplex.basic_structurals ft;
             consider 0 [];
             drain ()
       with Budget.Out_of_budget e -> exhausted := Some e);
      let res =
        match !wholesale with
        | Some r -> r
        | None -> (
            match (!incumbent, !exhausted, !hit_limit) with
            | Some (_, sol), None, false -> Optimal sol
            | Some (_, sol), _, _ -> Limit_feasible sol
            | None, Some e, _ -> Exhausted e
            | None, None, true -> Node_limit
            | None, None, false -> Infeasible)
      in
      (res, !root_basis))

let solve ?budget ?max_nodes ?(arith = Fsimplex.Rational) ?warm ~integer p =
  match arith with
  | Fsimplex.Rational -> solve_rational ?budget ?max_nodes ~integer p
  | Fsimplex.Float_certified ->
      fst (solve_float ?budget ?max_nodes ?warm ~integer p)

(* Cold-start reference: re-solves the accumulated problem from scratch at
   every node (depth-first, first-fractional, floor branch first) — the
   pre-warm-start algorithm, kept as the baseline the budget regression
   test and the bench [ilp] experiment measure the warm solver against,
   and as an independent oracle for the property tests. *)
let solve_cold ?(budget = Budget.unlimited) ?(max_nodes = 200_000) ~integer
    (p : Simplex.problem) =
  if Array.length integer <> p.n_vars then
    invalid_arg "Branch_bound.solve_cold: integer mask length mismatch";
  M.incr m_solves;
  let incumbent = ref None in
  let nodes = ref 0 in
  let hit_limit = ref false in
  let exhausted = ref None in
  let better value =
    match !incumbent with
    | None -> true
    | Some (v, _) -> R.compare value v > 0
  in
  let root_unbounded = ref false in
  let rec explore extra depth =
    if !hit_limit || !exhausted <> None then ()
    else begin
      incr nodes;
      Budget.spend_node budget;
      M.incr m_nodes;
      M.set_max g_depth_peak (float_of_int depth);
      if !nodes > max_nodes then begin
        hit_limit := true;
        M.incr m_node_limit
      end
      else
        let problem = { p with Simplex.rows = p.rows @ extra } in
        match Simplex.solve ~budget problem with
        | Simplex.Exhausted e -> exhausted := Some e
        | Simplex.Infeasible -> M.incr m_prune_infeasible
        | Simplex.Unbounded ->
            if depth = 0 then root_unbounded := true
            else
              (* Unreachable: a child's LP is its parent's plus one more
                 constraint, and the parent was solved to a (bounded)
                 optimum before branching — adding constraints cannot
                 unbound a bounded LP.  Counted rather than asserted so a
                 latent simplex bug surfaces in metrics instead of
                 silently mislabeling the root as unbounded. *)
              M.incr m_child_unbounded
        | Simplex.Optimal sol ->
            if not (better sol.value) then M.incr m_prune_bound
            else begin
              match first_fractional ~integer sol with
              | None ->
                  M.incr m_incumbents;
                  incumbent := Some (sol.value, sol)
              | Some i ->
                  let f = R.floor sol.x.(i) in
                  let le =
                    (unit_row p.n_vars i R.one, Simplex.Le, R.of_int f)
                  in
                  let ge =
                    (unit_row p.n_vars i R.one, Simplex.Ge, R.of_int (f + 1))
                  in
                  explore (le :: extra) (depth + 1);
                  explore (ge :: extra) (depth + 1)
            end
    end
  in
  (match Fault.exhaust_ilp () with
  | Some e -> exhausted := Some e
  | None -> (
      try explore [] 0
      with Budget.Out_of_budget e -> exhausted := Some e));
  if !root_unbounded then Unbounded
  else
    match (!incumbent, !exhausted, !hit_limit) with
    | Some (_, sol), None, false -> Optimal sol
    | Some (_, sol), _, _ -> Limit_feasible sol
    | None, Some e, _ -> Exhausted e
    | None, None, true -> Node_limit
    | None, None, false -> Infeasible

let feasible ?budget ?max_nodes ?arith ?warm ~integer p =
  let p =
    { p with Simplex.objective = Array.make p.Simplex.n_vars R.zero }
  in
  match solve ?budget ?max_nodes ?arith ?warm ~integer p with
  | Optimal _ | Limit_feasible _ -> Some true
  | Infeasible -> Some false
  | Unbounded -> Some true
  | Node_limit | Exhausted _ -> None
