(** Convenience builder for the integer-linear formulations in the paper.

    All coefficients are integers (every formulation in the dissertation is
    integral).  Variables carry names so generated tableaus stay debuggable
    and the formulations can be pretty-printed in LP format. *)

type t
type var

type lin
(** Integer-coefficient linear expression. *)

val create : unit -> t

val binary : t -> string -> var
(** 0/1 integer variable (upper bound emitted as a constraint row). *)

val int_var : t -> ?hi:int -> string -> var
(** Integer variable with bounds [0 .. hi] ([hi] defaults to +inf).  Every
    variable of a model is bounded below by 0. *)

val var_name : t -> var -> string
val n_vars : t -> int

(* Expressions. *)
val term : int -> var -> lin
val v : var -> lin
val const : int -> lin
val add : lin -> lin -> lin
val sub : lin -> lin -> lin
val sum : lin list -> lin
val scale : int -> lin -> lin

(* Constraints: [lhs rel rhs] with both sides linear. *)
val add_le : t -> ?name:string -> lin -> lin -> unit
val add_ge : t -> ?name:string -> lin -> lin -> unit
val add_eq : t -> ?name:string -> lin -> lin -> unit

val set_objective : t -> lin -> unit
(** Maximized.  Default objective is 0 (pure feasibility). *)

(* Linearization helpers (§3.1.1 and §6.1.1.4 of the dissertation). *)

val ge_max : t -> ?name:string -> lin -> var list -> unit
(** [ge_max m e ys] posts [e >= max ys] as one row per element. *)

val eq_max_bin : t -> ?name:string -> var -> var list -> unit
(** [eq_max_bin m z ys] posts [z = max ys] for binary variables:
    [z >= y_i] for each [i] and [z <= sum ys]. *)

val eq_min_bin : t -> ?name:string -> var -> var list -> unit
(** [z = min ys] for binaries: [z <= y_i] and [z >= sum ys - (n-1)]. *)

val eq_xor_bin : t -> ?name:string -> var -> var -> var -> unit
(** [eq_xor_bin m z x y] posts [z = x XOR y] using the max/min encoding of
    §6.1.1.4: [z = max(x,y) - min(x,y)] via two fresh binaries. *)

val implies_le : t -> ?name:string -> big_m:int -> var -> lin -> lin -> unit
(** [(b = 1) => (lhs <= rhs)] as [lhs <= rhs + M(1-b)]. *)

val iff_positive : t -> ?name:string -> big_m:int -> var -> lin -> unit
(** [(e > 0) <=> (b = 1)] for a nonnegative integer expression [e]:
    [e <= M b] and [e >= b]. *)

(* Solving. *)

type solution = { objective : Mcs_util.Ratio.t; values : var -> Mcs_util.Ratio.t }

type outcome =
  | Optimal of solution
  | Feasible of solution
      (** integer-feasible point found, but the solver's node budget ran
          out before optimality was proven *)
  | Infeasible
  | Unbounded
  | Unknown  (** solver node limit hit with no feasible point in hand *)
  | Exhausted of Mcs_resilience.Budget.exhausted
      (** an explicit {!Mcs_resilience.Budget.t} ran out (or the
          [exhaust-ilp] fault is injected) before any feasible point *)

val to_problem : t -> Simplex.problem * bool array
(** Lower/upper bounds are materialized as constraint rows; variables are
    shifted so that the simplex sees [x >= 0] (negative lower bounds are
    supported). *)

val solve :
  ?budget:Mcs_resilience.Budget.t ->
  arith:Fsimplex.arith ->
  ?basis:int list ref ->
  t ->
  outcome
(** Branch & bound ({!Branch_bound}).  [arith] selects the solver
    arithmetic (a flow takes it from its policy); every solution is exact
    in either mode (the float path certifies and re-derives its answers
    over rationals).

    [basis] is a warm-start hint owned by the caller, in structural
    column indices: under [Float_certified] its contents steer the root
    LP ({!Branch_bound.solve_float}'s [warm]), and it is overwritten with
    this solve's root basis (left as it was when the root fell back to
    the exact path).  The rational path ignores it.  A hint is only
    valid between models with the same column layout — e.g. one model
    family that differs only by added rows. *)

val int_value : solution -> var -> int
(** @raise Invalid_argument if the variable's value is fractional. *)

val pp_lp : Format.formatter -> t -> unit
(** Pretty-prints the model in (approximate) LP file format, mirroring the
    formulations the dissertation submitted to Bozo/Lindo. *)
