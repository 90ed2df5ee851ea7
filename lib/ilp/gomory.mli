(** Gomory cutting-plane integer programming — the method the dissertation
    uses (§3.3) to decide feasibility of the pin-allocation ILP during
    scheduling: solve the LP relaxation, and while some original variable is
    fractional, append a Gomory fractional cut and reoptimize with the dual
    simplex.

    Valid for problems whose constraint data is integral (every coefficient
    and right-hand side an integer), which holds for every formulation this
    library generates. *)

type result =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded
  | Gave_up
      (** cut budget exhausted before convergence, or the pivot/wall
          budget ran out mid-solve *)

val solve : ?budget:Mcs_resilience.Budget.t -> Simplex.problem -> result
(** [solve p] maximizes [p]'s objective over the integer points of its
    feasible region, trying at most 500 cuts.  Exhaustion of [budget]
    reports [Gave_up]. *)
