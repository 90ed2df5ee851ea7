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
let m_fallbacks = M.counter "bb.arith_fallbacks"
let g_depth_peak = M.gauge "bb.depth_peak"

(* Same instruments as the two simplexes' pivot counters (registration
   is idempotent): node.close journal events report the pivots each dual
   reoptimization cost as the delta across the node. *)
let m_pivots = M.counter "simplex.pivots"
let m_fpivots = M.counter "fsimplex.pivots"

type result =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded
  | Node_limit
  | Limit_feasible of Simplex.solution
  | Exhausted of Budget.exhausted

(* The result of a search, from its best integer point and why it
   stopped.  An incumbent found before a node limit or a budget ran out
   is genuine but unproven: it is handed back as [Limit_feasible]. *)
let assemble incumbent exhausted hit_limit =
  match (incumbent, exhausted, hit_limit) with
  | Some sol, None, false -> Optimal sol
  | Some sol, _, _ -> Limit_feasible sol
  | None, Some e, _ -> Exhausted e
  | None, None, true -> Node_limit
  | None, None, false -> Infeasible

let check_mask name ~integer (p : Simplex.problem) =
  if Array.length integer <> p.n_vars then
    invalid_arg (name ^ ": integer mask length mismatch")

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

type bound = int * [ `Le of int | `Ge of int ]

(* The branching bound [var <= b] or [var >= b] as a constraint row. *)
let bound_row n_vars ((var, dir) : bound) =
  let coefs = Array.make n_vars R.zero in
  coefs.(var) <- R.one;
  match dir with
  | `Le b -> (coefs, Simplex.Le, R.of_int b)
  | `Ge b -> (coefs, Simplex.Ge, R.of_int b)

(* One search over two LP backends.  ['k] is the backend's bound (the LP
   objective value the queue orders by), ['s] its tableau snapshot.  The
   backend reports on the LP optimum it holds; the search owns the queue,
   the incumbent, the counters, the journal, the limits and the exact
   fallback. *)
type ('k, 's) lp = {
  compare : 'k -> 'k -> int;
  beats : 'k -> R.t -> bool;  (* can a bound still improve on a value? *)
  examine :
    ('k -> bool) ->
    [ `Prune | `Branch of 'k * int * int | `Integral of Simplex.solution
    | `Fallback ];
      (* At the current optimum, given the bound test: prune, branch on
         (var, floor), an integral point, or "answer uncertified". *)
  snapshot : unit -> 's;  (* shared by both children *)
  release : 's -> unit;  (* one child is done with the snapshot *)
  restore : 's -> unit;
  add_row : R.t array -> Simplex.rel -> R.t -> unit;
  reoptimize :
    unit -> [ `Ok | `Infeasible | `Exhausted of Budget.exhausted | `Fallback ];
  basis : int list;  (* root basis, the next solve's warm hint *)
  pivots : M.counter;
}

(* [chain] holds every bound from the root to this node, its own first:
   the exact subproblem a fallback re-solves. *)
type 's node = { snap : 's; chain : bound list; depth : int }

(* Warm-started best-bound branch & bound: the root LP is solved once;
   every child restores its parent's optimal tableau, appends its one
   branching bound and re-optimizes with the dual simplex, so a node costs
   a few pivots instead of a two-phase solve from scratch.  A child can
   never be unbounded — its LP is the parent's (bounded, optimal) LP plus
   one constraint — so [Unbounded] is decided at the root alone.

   A backend answer it cannot vouch for ([`Fallback]) hands that node's
   subtree — or, at the root, the whole problem — to the exact search. *)
let rec search :
    type k s.
    budget:Budget.t ->
    max_nodes:int ->
    integer:bool array ->
    Simplex.problem ->
    (unit ->
    [ `Solved of (k, s) lp
    | `Infeasible
    | `Unbounded
    | `Exhausted of Budget.exhausted
    | `Fallback ]) ->
    result * int list =
 fun ~budget ~max_nodes ~integer p root ->
  M.incr m_solves;
  M.incr m_nodes;
  match Fault.exhaust_ilp () with
  | Some e -> (Exhausted e, [])
  | None ->
      let incumbent = ref None in
      let better v =
        match !incumbent with
        | None -> true
        | Some (s : Simplex.solution) -> R.compare v s.value > 0
      in
      let nodes = ref 1 in
      let hit_limit = ref false in
      let exhausted = ref None in
      let settled = ref None in
      let basis = ref [] in
      let exact p = solve ~budget ~max_nodes ~integer p in
      let exact_subtree chain =
        M.incr m_fallbacks;
        let adopt (s : Simplex.solution) =
          if better s.value then begin
            M.incr m_incumbents;
            incumbent := Some s
          end
        in
        match
          exact
            { p with rows = p.rows @ List.rev_map (bound_row p.n_vars) chain }
        with
        | Optimal s -> adopt s
        | Limit_feasible s ->
            hit_limit := true;
            adopt s
        | Infeasible -> M.incr m_prune_infeasible
        | Unbounded -> M.incr m_child_unbounded
        | Node_limit -> hit_limit := true
        | Exhausted e -> exhausted := Some e
      in
      let run lp =
        let worth k =
          match !incumbent with
          | None -> true
          | Some (s : Simplex.solution) -> lp.beats k s.value
        in
        (* Best-bound order: the highest parent LP bound first; among
           equal bounds the youngest node wins, so the search dives
           depth-first within a bound plateau.  The tie-break matters:
           pure feasibility models (zero objective, ubiquitous in the pin
           ILPs) make every bound equal, and a FIFO tie-break would
           degenerate into breadth-first search.  The order is total, so
           it — and every pivot/node counter — is deterministic. *)
        let module Q = Set.Make (struct
          type t = k * int * s node

          let compare (b1, s1, _) (b2, s2, _) =
            match lp.compare b2 b1 with 0 -> Int.compare s2 s1 | c -> c
        end) in
        let q = ref Q.empty and seq = ref 0 in
        let push k node =
          q := Q.add (k, !seq, node) !q;
          incr seq
        in
        (* The LP optimum at a node: record it if integral, otherwise push
           both children carrying a snapshot of this node's tableau. *)
        let consider depth chain =
          match lp.examine worth with
          | `Prune -> M.incr m_prune_bound
          | `Fallback -> exact_subtree chain
          | `Integral (sol : Simplex.solution) ->
              if better sol.value then begin
                M.incr m_incumbents;
                if E.on () then
                  E.emit ~cat:"bb" "incumbent"
                    ~args:[ ("node", E.Int !nodes); ("depth", E.Int depth) ];
                incumbent := Some sol
              end
          | `Branch (k, i, fl) ->
              let snap = lp.snapshot () in
              (* Pushed ceil-then-floor so the LIFO tie-break dives into
                 the floor branch first, like the cold reference. *)
              List.iter
                (fun dir ->
                  push k { snap; chain = (i, dir) :: chain; depth = depth + 1 })
                [ `Ge (fl + 1); `Le fl ]
        in
        let rec drain () =
          match Q.min_elt_opt !q with
          | None -> ()
          | Some ((k, _, node) as top) ->
              q := Q.remove top !q;
              if not (worth k) then begin
                (* Best-bound order makes this final: once the best open
                   bound cannot beat the incumbent, no open node can. *)
                lp.release node.snap;
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
                let ((var, dir) as b) = List.hd node.chain in
                let journaling = E.on () in
                let pivots0 = if journaling then M.count_local lp.pivots else 0 in
                if journaling then
                  E.emit ~cat:"bb" "node.open"
                    ~args:
                      [
                        ("node", E.Int !nodes);
                        ("depth", E.Int node.depth);
                        ("var", E.Int var);
                        ( "branch",
                          E.Str
                            (match dir with
                            | `Le b -> Printf.sprintf "x%d<=%d" var b
                            | `Ge b -> Printf.sprintf "x%d>=%d" var b) );
                      ];
                let close outcome =
                  if journaling then
                    E.emit ~cat:"bb" "node.close"
                      ~args:
                        [
                          ("node", E.Int !nodes);
                          ("outcome", E.Str outcome);
                          ("pivots", E.Int (M.count_local lp.pivots - pivots0));
                        ]
                in
                lp.restore node.snap;
                lp.release node.snap;
                let coefs, rel, rhs = bound_row p.n_vars b in
                lp.add_row coefs rel rhs;
                (match lp.reoptimize () with
                | `Infeasible ->
                    M.incr m_prune_infeasible;
                    close "infeasible"
                | `Fallback ->
                    close "fallback";
                    exact_subtree node.chain
                | `Exhausted e ->
                    close "exhausted";
                    exhausted := Some e
                | `Ok ->
                    close "solved";
                    consider node.depth node.chain);
                if !exhausted = None then drain ()
              end
        in
        consider 0 [];
        drain ()
      in
      (try
         match root () with
         | `Solved lp ->
             basis := lp.basis;
             run lp
         | `Infeasible -> M.incr m_prune_infeasible
         | `Unbounded -> settled := Some Unbounded
         | `Exhausted e -> exhausted := Some e
         | `Fallback ->
             M.incr m_fallbacks;
             settled := Some (exact p)
       with Budget.Out_of_budget e -> exhausted := Some e);
      ( Option.value !settled
          ~default:(assemble !incumbent !exhausted !hit_limit),
        !basis )

and solve ?(budget = Budget.unlimited) ?(max_nodes = 200_000) ~integer
    (p : Simplex.problem) =
  check_mask "Branch_bound.solve" ~integer p;
  fst
  @@ search ~budget ~max_nodes ~integer p
  @@ fun () ->
  match Simplex.Tab.of_problem ~budget p with
  | (`Infeasible | `Unbounded | `Exhausted _) as r -> r
  | `Solved tab ->
      `Solved
        {
          compare = R.compare;
          beats = (fun k v -> R.compare k v > 0);
          examine =
            (fun worth ->
              let sol = Simplex.Tab.solution tab in
              if not (worth sol.value) then `Prune
              else
                match most_fractional ~integer sol with
                | None -> `Integral sol
                | Some i -> `Branch (sol.value, i, R.floor sol.x.(i)));
          snapshot = (fun () -> Simplex.Tab.snapshot tab);
          release = ignore;
          restore = Simplex.Tab.restore tab;
          add_row = Simplex.Tab.add_row tab;
          reoptimize =
            (fun () ->
              (Simplex.Tab.reoptimize_dual tab
                :> [ `Ok | `Infeasible | `Exhausted of Budget.exhausted | `Fallback ]));
          basis = [];
          pivots = m_pivots;
        }

(* The float backend: every pivot is a float64 row operation on the
   {!Fsimplex} tableau and exact arithmetic only runs at the leaves:
   candidate incumbents are certified (and re-derived) over rationals,
   infeasibility prunes carry a Farkas certificate, and whatever fails
   certification — or stalls — falls back to the exact search.  Bound
   pruning needs no certificate when the objective is integral at integer
   points (integer coefficients, on integer variables only): a child is
   then useful only when its LP bound clears incumbent + 1, and the
   half-unit slack in [beats] absorbs any realistic roundoff.  Any other
   objective, an unboundedness claim (no certificate in this scheme) and
   a stalled root (no basis worth saving) hand the whole problem to the
   exact search. *)
let solve_float ?(budget = Budget.unlimited) ?(max_nodes = 200_000)
    ?(warm = []) ~integer (p : Simplex.problem) =
  check_mask "Branch_bound.solve_float" ~integer p;
  let integral_objective =
    Array.for_all2
      (fun c int -> R.is_zero c || (int && R.is_integer c))
      p.objective integer
  in
  let made = ref None in
  (* [dispose] recycles the tableau buffer even on an abandoned-queue
     exit; unreleased snapshots just fall to the GC. *)
  Fun.protect ~finally:(fun () -> Option.iter Fsimplex.dispose !made)
  @@ fun () ->
  search ~budget ~max_nodes ~integer p @@ fun () ->
  if not integral_objective then `Fallback
  else
    let ft = Fsimplex.create ~budget p in
    made := Some ft;
    match Fsimplex.solve_lp ~warm ft with
    | `Infeasible r when Fsimplex.certify_infeasible ft r -> `Infeasible
    | `Infeasible _ | `Unbounded | `Stuck -> `Fallback
    | `Optimal ->
        `Solved
          {
            compare = Float.compare;
            beats = (fun fb v -> fb > R.to_float v +. 0.5);
            examine =
              (fun worth ->
                let fb = Fsimplex.value_float ft in
                if not (worth fb) then `Prune
                else
                  match float_most_fractional ~integer (Fsimplex.x_float ft) with
                  | Some (i, fl) -> `Branch (fb, i, fl)
                  | None -> (
                      match Fsimplex.certify_optimal ft with
                      | None -> `Fallback
                      | Some sol -> (
                          match most_fractional ~integer sol with
                          (* Float-integral but exactly fractional: branch on
                             the exact value rather than trusting the float. *)
                          | Some i -> `Branch (fb, i, R.floor sol.x.(i))
                          | None -> `Integral sol)));
            (* one use per child; the second [release] recycles the buffer *)
            snapshot = (fun () -> Fsimplex.snapshot ~uses:2 ft);
            release = Fsimplex.release ft;
            restore = Fsimplex.restore ft;
            add_row = Fsimplex.add_row ft;
            reoptimize =
              (fun () ->
                match Fsimplex.reoptimize_dual ft with
                | `Ok -> `Ok
                | `Infeasible r when Fsimplex.certify_infeasible ft r ->
                    `Infeasible
                | `Infeasible _ | `Stuck -> `Fallback);
            basis = Fsimplex.basic_structurals ft;
            pivots = m_fpivots;
          }

(* Cold-start reference: re-solves the accumulated problem from scratch at
   every node (depth-first, first-fractional, floor branch first) — the
   pre-warm-start algorithm, kept as the baseline the budget regression
   test and the bench [ilp] experiment measure the warm solver against,
   and as an independent oracle for the property tests. *)
let solve_cold ?(budget = Budget.unlimited) ?(max_nodes = 200_000) ~integer
    (p : Simplex.problem) =
  check_mask "Branch_bound.solve_cold" ~integer p;
  M.incr m_solves;
  let incumbent = ref None in
  let nodes = ref 0 in
  let hit_limit = ref false in
  let exhausted = ref None in
  let better value =
    match !incumbent with
    | None -> true
    | Some (s : Simplex.solution) -> R.compare value s.value > 0
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
                  incumbent := Some sol
              | Some i ->
                  let f = R.floor sol.x.(i) in
                  explore (bound_row p.n_vars (i, `Le f) :: extra) (depth + 1);
                  explore
                    (bound_row p.n_vars (i, `Ge (f + 1)) :: extra)
                    (depth + 1)
            end
    end
  in
  (match Fault.exhaust_ilp () with
  | Some e -> exhausted := Some e
  | None -> (
      try explore [] 0
      with Budget.Out_of_budget e -> exhausted := Some e));
  if !root_unbounded then Unbounded
  else assemble !incumbent !exhausted !hit_limit
