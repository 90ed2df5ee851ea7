module R = Mcs_util.Ratio

type var = int

(* Every variable is bounded below by 0. *)
type vinfo = { name : string; hi : int option; integer : bool }

type lin = { terms : (int * var) list; cst : int }

type rel = Rle | Rge | Req

type row = { lhs : lin; rel : rel; name : string }

type t = {
  mutable vars : vinfo list; (* reversed *)
  mutable nv : int;
  mutable rows : row list; (* reversed *)
  mutable obj : lin;
  mutable fresh : int;
}

let create () =
  { vars = []; nv = 0; rows = []; obj = { terms = []; cst = 0 }; fresh = 0 }

let add_var_info t info =
  t.vars <- info :: t.vars;
  t.nv <- t.nv + 1;
  t.nv - 1

let binary t name = add_var_info t { name; hi = Some 1; integer = true }
let int_var t ?hi name = add_var_info t { name; hi; integer = true }

let info t x = List.nth t.vars (t.nv - 1 - x)
let var_name t x = (info t x).name
let n_vars t = t.nv

let term c x = { terms = [ (c, x) ]; cst = 0 }
let v x = term 1 x
let const c = { terms = []; cst = c }
let add a b = { terms = a.terms @ b.terms; cst = a.cst + b.cst }
let scale k a = { terms = List.map (fun (c, x) -> (k * c, x)) a.terms; cst = k * a.cst }
let sub a b = add a (scale (-1) b)
let sum l = List.fold_left add (const 0) l

let add_row t rel ?(name = "c") lhs rhs =
  t.rows <- { lhs = sub lhs rhs; rel; name } :: t.rows

let add_le t ?name lhs rhs = add_row t Rle ?name lhs rhs
let add_ge t ?name lhs rhs = add_row t Rge ?name lhs rhs
let add_eq t ?name lhs rhs = add_row t Req ?name lhs rhs
let set_objective t lin = t.obj <- lin

let ge_max t ?name e ys = List.iter (fun y -> add_ge t ?name e (v y)) ys

let eq_max_bin t ?name z ys =
  ge_max t ?name (v z) ys;
  add_le t ?name (v z) (sum (List.map v ys))

let eq_min_bin t ?name z ys =
  List.iter (fun y -> add_le t ?name (v z) (v y)) ys;
  let n = List.length ys in
  add_ge t ?name (v z) (sub (sum (List.map v ys)) (const (n - 1)))

let fresh_name t prefix =
  t.fresh <- t.fresh + 1;
  Printf.sprintf "%s_%d" prefix t.fresh

let eq_xor_bin t ?name z x y =
  let mx = binary t (fresh_name t "xor_max") in
  let mn = binary t (fresh_name t "xor_min") in
  eq_max_bin t ?name mx [ x; y ];
  eq_min_bin t ?name mn [ x; y ];
  add_eq t ?name (v z) (sub (v mx) (v mn))

let implies_le t ?name ~big_m b lhs rhs =
  (* lhs <= rhs + M (1 - b) *)
  add_le t ?name lhs (add rhs (sub (const big_m) (scale big_m (v b))))

let iff_positive t ?name ~big_m b e =
  add_le t ?name e (scale big_m (v b));
  add_ge t ?name e (v b)

(* --- Conversion to the simplex form --- *)

let to_problem t =
  let infos = Array.of_list (List.rev t.vars) in
  let n = t.nv in
  let integer = Array.map (fun i -> i.integer) infos in
  let dense lin =
    let coefs = Array.make n R.zero in
    List.iter
      (fun (c, x) -> coefs.(x) <- R.add coefs.(x) (R.of_int c))
      lin.terms;
    coefs
  in
  let rows = ref [] in
  (* Upper bounds as rows: x <= hi. *)
  Array.iteri
    (fun x i ->
      match i.hi with
      | None -> ()
      | Some hi ->
          let coefs = Array.make n R.zero in
          coefs.(x) <- R.one;
          rows := (coefs, Simplex.Le, R.of_int hi) :: !rows)
    infos;
  List.iter
    (fun r ->
      let rel =
        match r.rel with Rle -> Simplex.Le | Rge -> Simplex.Ge | Req -> Simplex.Eq
      in
      (* lhs - rhs (rel) 0  becomes  coefs . x (rel) -cst. *)
      rows := (dense r.lhs, rel, R.of_int (-r.lhs.cst)) :: !rows)
    (List.rev t.rows);
  let objective = dense t.obj in
  ({ Simplex.n_vars = n; objective; rows = List.rev !rows }, integer)

type solution = { objective : R.t; values : var -> R.t }

type outcome =
  | Optimal of solution
  | Feasible of solution
  | Infeasible
  | Unbounded
  | Unknown
  | Exhausted of Mcs_resilience.Budget.exhausted

let wrap_solution t (s : Simplex.solution) =
  {
    objective = R.add s.value (R.of_int t.obj.cst);
    values =
      (fun x ->
        if x < 0 || x >= Array.length s.x then invalid_arg "Model: bad var";
        s.x.(x));
  }

let solve ?budget ~arith ?basis t =
  let p, integer = to_problem t in
  let of_bb = function
    | Branch_bound.Optimal s -> Optimal (wrap_solution t s)
    | Branch_bound.Limit_feasible s -> Feasible (wrap_solution t s)
    | Branch_bound.Infeasible -> Infeasible
    | Branch_bound.Unbounded -> Unbounded
    | Branch_bound.Node_limit -> Unknown
    | Branch_bound.Exhausted e -> Exhausted e
  in
  match arith with
  | Fsimplex.Rational -> of_bb (Branch_bound.solve ?budget ~integer p)
  | Fsimplex.Float_certified ->
      let warm = match basis with Some b -> !b | None -> [] in
      let r, root = Branch_bound.solve_float ?budget ~warm ~integer p in
      (* Keep the hint even when the search came up infeasible: the next
         question's root LP starts from the same rows. *)
      (match basis with Some b when root <> [] -> b := root | _ -> ());
      of_bb r

let int_value sol x =
  let value = sol.values x in
  if not (R.is_integer value) then
    invalid_arg "Model.int_value: fractional value";
  R.to_int_exn value

let pp_lin t ppf lin =
  let first = ref true in
  List.iter
    (fun (c, x) ->
      if c <> 0 then begin
        if !first then begin
          if c = 1 then Format.fprintf ppf "%s" (var_name t x)
          else Format.fprintf ppf "%d %s" c (var_name t x);
          first := false
        end
        else if c > 0 then
          if c = 1 then Format.fprintf ppf " + %s" (var_name t x)
          else Format.fprintf ppf " + %d %s" c (var_name t x)
        else if c = -1 then Format.fprintf ppf " - %s" (var_name t x)
        else Format.fprintf ppf " - %d %s" (-c) (var_name t x)
      end)
    lin.terms;
  if !first then Format.fprintf ppf "0"

let pp_lp ppf t =
  Format.fprintf ppf "Maximize@.  obj: %a@.Subject To@." (pp_lin t) t.obj;
  List.iteri
    (fun i r ->
      let op = match r.rel with Rle -> "<=" | Rge -> ">=" | Req -> "=" in
      Format.fprintf ppf "  %s%d: %a %s %d@." r.name i (pp_lin t)
        { r.lhs with cst = 0 } op (-r.lhs.cst))
    (List.rev t.rows);
  Format.fprintf ppf "Bounds@.";
  List.iteri
    (fun _ i ->
      match i.hi with
      | Some hi -> Format.fprintf ppf "  0 <= %s <= %d@." i.name hi
      | None -> Format.fprintf ppf "  %s >= 0@." i.name)
    (List.rev t.vars);
  Format.fprintf ppf "Generals@.";
  List.iter
    (fun i -> if i.integer then Format.fprintf ppf "  %s@." i.name)
    (List.rev t.vars);
  Format.fprintf ppf "End@."
