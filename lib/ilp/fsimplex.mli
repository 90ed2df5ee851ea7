(** Double-precision simplex with exact rational certification.

    The float-first half of the standard exact-LP hybrid (as in QSopt_ex
    and exact-SCIP): pivots run on a flat [Bigarray] float64 tableau —
    orders of magnitude cheaper than the allocation-heavy exact pivots of
    {!Simplex} — and only the {e final} basis is checked, by refactoring
    it over {!Mcs_util.Ratio} and verifying primal/dual feasibility (or a
    Farkas infeasibility certificate) exactly.  A certified answer is as
    trustworthy as the rational path's; an uncertified one makes the
    caller fall back to {!Simplex}/{!Branch_bound}.

    The tableau keeps every constraint in [<=]-form ([Eq] is appended as
    the [Le]/[Ge] pair, [Ge] is negated), so each row owns exactly one
    slack column and the start basis is all-slack.  That shape is what
    makes certification cheap: the float tableau is B^{-1} [A | I], so it
    already holds approximations of every certificate — the basic values
    in the right-hand side, row [r] of B^{-1} in row [r]'s slack columns,
    the duals in the objective row's slack columns.  Certification reads
    them back as rationals and checks them against the exact ([<=]-form)
    row store kept alongside the tableau; it never factors the basis.

    {b Reconstruction rule.}  A float entry within [1e-9] of zero reads
    as 0.  Any other entry reads as the first continued-fraction
    convergent p/q of its value that lies within [1e-9] of it (relative
    once the value exceeds 1), with q at most 2{^24}; an entry with no
    such convergent fails certification.  The exact checks that follow
    decide on the reconstructed values alone, so a wrong reconstruction
    can only fail a check — answering through the exact fallback — and
    never certify a false claim.  A reconstructed x that passes
    [B x_B = b_T] with a nonsingular basis is the basis's unique basic
    solution, the point an exact factorization would compute.

    Mirrors the {!Simplex.Tab} warm-start surface ([add_row] /
    [snapshot] / [restore] / [reoptimize_dual]) so {!Branch_bound} can
    drive either arithmetic through the same node loop.  Both float
    phases use Dantzig pricing with fixed tie-breaks (an iteration cap
    plus the exact fallback stand in for Bland's anti-cycling
    guarantee): pivot sequences — and therefore the [fsimplex.pivots]
    counter and the bench baselines — are deterministic. *)

(** Solver arithmetic.  {!Model.solve} picks the search by it
    ({!Branch_bound.solve_float} or the exact {!Branch_bound.solve});
    [Pin_ilp] and [Ilp_gen] pass it through, and a flow run takes it from
    its policy ([Mcs_flow.Flow.policy.arith], set by [--arith]).
    [Float_certified] is the default everywhere user-facing;
    [MCS_ARITH=rational] (the default policy's source) or
    [--arith rational] restores the pure exact path. *)
type arith = Float_certified | Rational

val arith_of_env : unit -> arith
(** [MCS_ARITH] = ["rational"] (or ["exact"]) selects {!Rational};
    anything else — including unset — selects {!Float_certified}. *)

val arith_to_string : arith -> string
(** ["float-certified"] / ["rational"], as reported in [mcs-run/1]. *)

type t
(** A float tableau plus the exact ([<=]-form) row store certification
    reads.  Rows only grow ([restore] truncates), and row [k] always owns
    slack column [n_struct + k]. *)

val create : ?budget:Mcs_resilience.Budget.t -> Simplex.problem -> t
(** Build the all-slack start tableau.  [budget] charges one pivot per
    float pivot — the same {!Mcs_resilience.Budget} pool the rational
    path draws on, so deadlines hold in both arithmetic modes.
    @raise Invalid_argument on a row width mismatch. *)

val solve_lp :
  ?warm:int list ->
  t ->
  [ `Optimal | `Infeasible of int | `Unbounded | `Stuck ]
(** Solve from the start basis: a dual-simplex phase under the zero
    objective (trivially dual feasible) to reach a feasible basis, then
    the real objective and a primal phase.  [warm] lists structural
    columns imported from a previous solve's basis; they are used as a
    {e pricing preference} — among entering candidates with tied ratios
    (every candidate, under the zero objective) a preferred column wins —
    so the feasibility phase replays the previous basis where it still
    fits, at zero extra pivots.  (An explicit crash-then-repair was
    measurably worse: it guesses the slack half of the basis, densifies
    the tableau, and the repair re-does the saved work.)  Steered pivots
    are counted in [fsimplex.steered_pivots].  [`Infeasible r] names the
    tableau row whose infeasibility the dual simplex proved — hand it to
    {!certify_infeasible}.  [`Stuck] means the iteration safety cap hit
    (float roundoff — or, with [warm], a non-Bland pivot cycle — defeated
    the search); callers fall back to the rational path.
    @raise Mcs_resilience.Budget.Out_of_budget like the rational path. *)

val reoptimize_dual : t -> [ `Ok | `Infeasible of int | `Stuck ]
(** Dual simplex until primal feasibility is restored, after {!add_row}
    made the tableau primal-infeasible but left it dual-feasible. *)

val add_row : t -> Mcs_util.Ratio.t array -> Simplex.rel -> Mcs_util.Ratio.t -> unit
(** Append a constraint over the structural variables (missing trailing
    coefficients are zero), re-expressed in the current basis with a
    fresh basic slack — same contract as {!Simplex.Tab.add_row}.  The
    exact row store grows in step, so certification sees the row too. *)

type snapshot

val snapshot : ?uses:int -> t -> snapshot
(** Copy the live tableau (one blit — see [create]'s capacity headroom).
    [uses] (default [1]) is how many {!release} calls the caller promises
    before the buffer may be recycled; {!Branch_bound} passes [2], one
    per child sharing the parent's snapshot. *)

val release : t -> snapshot -> unit
(** Give one use of the snapshot back; the last use returns the buffer
    to the process-global recycling pool for the next {!snapshot} (or
    tableau).  Never call {!restore} on a snapshot after its uses run
    out.  Callers that skip [release] merely forgo pooling — the GC
    still reclaims the buffer. *)

val restore : t -> snapshot -> unit

val dispose : t -> unit
(** Return the tableau buffer to the recycling pool.  Call once, when
    the solve is over; [t] and any outstanding snapshots must not be
    used afterwards.  Skipping [dispose] is safe (the GC reclaims the
    buffer) but forfeits the pool's steady-state zero-allocation
    property — fresh Bigarray allocation buys major-GC slices in a
    large-heap process, which is exactly what the pool exists to
    avoid. *)

val value_float : t -> float
val x_float : t -> float array
(** Current objective value / structural solution, as floats — only ever
    used to pick branching variables and order the search; every value
    that escapes to a caller is re-derived exactly by {!certify_optimal}. *)

val basic_structurals : t -> int list
(** Structural columns of the current basis, ascending — the warm hint
    {!solve_lp}'s [warm] consumes on the next solve of the same column
    layout. *)

val certify_optimal : t -> Simplex.solution option
(** Reconstruct the basic point x from the right-hand side and check it
    exactly ({!primal_holds}); when the objective is nonzero, also
    reconstruct the duals y and check dual feasibility: y >= 0,
    [B^T y = c_B] and every nonbasic reduced cost [c_j - y.A_j <= 0] (the
    basic solution of a feasibility model is optimal by definition).
    [Some] carries the {e exact} solution and objective value; [None]
    (a failed reconstruction or check, or rational overflow) means the
    float path lied and the caller must fall back.  Increments
    [ilp.certify.ok]/[ilp.certify.fail] and journals the verdict. *)

val certify_infeasible : t -> int -> bool
(** [certify_infeasible t r] checks the float path's infeasibility claim
    for tableau row [r]: [farkas_holds t z] for the reconstructed
    [farkas_multipliers t r].  Same counters/journal as
    {!certify_optimal}. *)

val farkas_multipliers : t -> int -> Mcs_util.Ratio.t array option
(** Row [r] of B^{-1}, one entry per tableau row, reconstructed from the
    slack columns of the float tableau's row [r]. *)

val farkas_holds : t -> Mcs_util.Ratio.t array -> bool
(** The exact Farkas test over the [<=]-form rows: [z >= 0], [z.A >= 0]
    columnwise and [z.b < 0], which refutes [Ax <= b, x >= 0]. *)

val primal_holds : t -> Mcs_util.Ratio.t array -> bool
(** The exact primal test of a structural point [x] against the current
    basis: [x >= 0], every row whose slack is basic holds ([A_r x <= b_r]),
    and every row whose slack is nonbasic holds with equality
    ([B x_B = b_T]). *)
