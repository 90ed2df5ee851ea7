(** Branch-and-bound (M)ILP solver: one warm-started best-bound search
    over two LP backends.

    Serves as the exact solver for the pin ILP of Chapter 3 and the
    interchip-connection formulations of Chapters 4 and 6 (the
    dissertation submitted those to Bozo / Lindo), and cross-checks the
    Gomory path in the test suite.

    The search is {e warm-started}: the root LP relaxation is solved
    once, and every search node thereafter restores its parent's optimal
    tableau, appends its single branching bound and re-optimizes with the
    dual simplex — a few pivots per node instead of a from-scratch
    re-solve.  Nodes are explored in best-bound order and branch on the
    most-fractional integer variable.  Because a child's LP is its
    (bounded, optimal) parent's LP plus one constraint, children can never
    be unbounded: [Unbounded] is decided at the root alone.

    The node loop is written once.  {!solve} runs it on the exact
    {!Simplex.Tab} tableau; {!solve_float} runs it on the float64
    {!Fsimplex} tableau, whose answers are certified exactly, and hands
    any answer that fails certification to {!solve}.  Choosing between
    them is {!Model.solve}'s job. *)

type result =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded  (** LP relaxation unbounded in the objective direction *)
  | Node_limit
      (** search stopped before proving optimality, with no integer point
          in hand *)
  | Limit_feasible of Simplex.solution
      (** search stopped before proving optimality, but an integer-feasible
          incumbent was found — a genuine (possibly sub-optimal) solution *)
  | Exhausted of Mcs_resilience.Budget.exhausted
      (** the node/pivot/wall budget ran out (or the [exhaust-ilp] fault
          is injected) with no integer point in hand; with an incumbent in
          hand, exhaustion reports [Limit_feasible] instead *)

val solve :
  ?budget:Mcs_resilience.Budget.t ->
  ?max_nodes:int ->
  integer:bool array ->
  Simplex.problem ->
  result
(** [solve ~integer p] maximizes [p]'s objective with variables [i] such
    that [integer.(i)] constrained to integer values, in exact rational
    arithmetic — the oracle the test suite and the pivot budgets are
    written against.  [max_nodes] defaults to [200_000].  [budget]
    (default unlimited) charges one node per expanded search node and one
    pivot per simplex pivot across the whole tree. *)

val solve_float :
  ?budget:Mcs_resilience.Budget.t ->
  ?max_nodes:int ->
  ?warm:int list ->
  integer:bool array ->
  Simplex.problem ->
  result * int list
(** Float-first search: the same node loop run on the {!Fsimplex}
    float64 tableau, with exact rational arithmetic only at the leaves —
    candidate incumbents are re-derived and certified exactly
    ({!Fsimplex.certify_optimal}), infeasibility prunes carry a Farkas
    certificate, and a node whose certificate fails has {e its subtree
    only} re-solved by the exact {!solve} (counted in
    [bb.arith_fallbacks]); so is the whole problem when the root LP is
    unbounded, stalls, or its infeasibility is not certified, and when
    the objective is not integral at integer points (a nonzero
    coefficient on a continuous variable, or a fractional one), which
    the float bound test assumes.  Float pivots charge [budget] too, so
    deadlines hold in both arithmetics.
    Every solution that escapes is exact, so results agree with {!solve}
    wherever both prove optimality.

    [warm] steers the root LP toward a neighboring grid point's basis
    (structural column indices, from the {!Warm} registry); the returned
    list is this problem's root basis for the next neighbor ([[]] when
    the root fell back to the exact path wholesale). *)

val solve_cold :
  ?budget:Mcs_resilience.Budget.t ->
  ?max_nodes:int ->
  integer:bool array ->
  Simplex.problem ->
  result
(** Cold-start reference implementation: depth-first, first-fractional
    branching, and a full two-phase re-solve of the accumulated problem at
    every node.  Same results as {!solve} (statuses agree, optimal
    objective values are equal; the optima themselves may differ when the
    problem has several), at many times the pivot count — kept as the
    baseline for the pivot-budget regression test and the bench [ilp]
    experiment, and as an independent oracle for the property tests. *)
