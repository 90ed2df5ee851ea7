module R = Mcs_util.Ratio

type var = int

type vinfo = {
  name : string;
  lo : int; (* finite lower bound; formulations here never need -inf *)
  hi : int option;
  integer : bool;
}

type lin = { terms : (int * var) list; cst : int }

type rel = Rle | Rge | Req

type row = { lhs : lin; rel : rel; name : string }

type t = {
  mutable vars : vinfo list; (* reversed *)
  mutable nv : int;
  mutable rows : row list; (* reversed *)
  mutable nr : int;
  mutable obj : lin;
  mutable fresh : int;
}

let create () =
  { vars = []; nv = 0; rows = []; nr = 0; obj = { terms = []; cst = 0 }; fresh = 0 }

let add_var_info t info =
  t.vars <- info :: t.vars;
  t.nv <- t.nv + 1;
  t.nv - 1

let binary t name = add_var_info t { name; lo = 0; hi = Some 1; integer = true }

let int_var t ?(lo = 0) ?hi name =
  add_var_info t { name; lo; hi; integer = true }

let cont_var t ?(lo = 0) ?hi name =
  add_var_info t { name; lo; hi; integer = false }

let info t x = List.nth t.vars (t.nv - 1 - x)
let var_name t x = (info t x).name
let n_vars t = t.nv
let n_constraints t = t.nr

let term c x = { terms = [ (c, x) ]; cst = 0 }
let v x = term 1 x
let const c = { terms = []; cst = c }
let add a b = { terms = a.terms @ b.terms; cst = a.cst + b.cst }
let scale k a = { terms = List.map (fun (c, x) -> (k * c, x)) a.terms; cst = k * a.cst }
let sub a b = add a (scale (-1) b)
let sum l = List.fold_left add (const 0) l

let add_row t rel ?(name = "c") lhs rhs =
  t.rows <- { lhs = sub lhs rhs; rel; name } :: t.rows;
  t.nr <- t.nr + 1

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
  (* Shift each variable by its lower bound so the simplex variable is
     x' = x - lo >= 0. *)
  let lo = Array.map (fun i -> i.lo) infos in
  let integer = Array.map (fun i -> i.integer) infos in
  let dense lin =
    let coefs = Array.make n R.zero in
    let shift = ref lin.cst in
    List.iter
      (fun (c, x) ->
        coefs.(x) <- R.add coefs.(x) (R.of_int c);
        shift := !shift + (c * lo.(x)))
      lin.terms;
    (coefs, !shift)
  in
  let rows = ref [] in
  (* Upper bounds as rows: x' <= hi - lo. *)
  Array.iteri
    (fun x i ->
      match i.hi with
      | None -> ()
      | Some hi ->
          let coefs = Array.make n R.zero in
          coefs.(x) <- R.one;
          rows := (coefs, Simplex.Le, R.of_int (hi - i.lo)) :: !rows)
    infos;
  List.iter
    (fun r ->
      let coefs, shift = dense r.lhs in
      let rel =
        match r.rel with Rle -> Simplex.Le | Rge -> Simplex.Ge | Req -> Simplex.Eq
      in
      (* lhs - rhs (rel) 0  became  coefs . x' + shift (rel) 0. *)
      rows := (coefs, rel, R.of_int (-shift)) :: !rows)
    (List.rev t.rows);
  let objective, _ = dense t.obj in
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
  let infos = Array.of_list (List.rev t.vars) in
  let obj_shift =
    List.fold_left (fun acc (c, x) -> acc + (c * infos.(x).lo)) t.obj.cst
      t.obj.terms
  in
  {
    objective = R.add s.value (R.of_int obj_shift);
    values =
      (fun x ->
        if x < 0 || x >= Array.length s.x then invalid_arg "Model: bad var";
        R.add s.x.(x) (R.of_int infos.(x).lo));
  }

let solve ?budget ?(method_ = `Branch_bound) ~arith ?warm_key t =
  let p, integer = to_problem t in
  match method_ with
  | `Branch_bound -> (
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
          (* The warm registry speaks variable names, the solver speaks
             structural columns; this is where the two meet. *)
          let infos = Array.of_list (List.rev t.vars) in
          let warm =
            match warm_key with
            | None -> []
            | Some key -> (
                match Warm.get key with
                | None -> []
                | Some names ->
                    let idx = Hashtbl.create (Array.length infos) in
                    Array.iteri
                      (fun i (info : vinfo) -> Hashtbl.replace idx info.name i)
                      infos;
                    List.filter_map
                      (fun name -> Hashtbl.find_opt idx name)
                      names)
          in
          let r, basis = Branch_bound.solve_float ?budget ~warm ~integer p in
          (match warm_key with
          | Some key when basis <> [] ->
              (* Store even when the search came up infeasible: the root
                 LP basis is what neighbors warm-start from, and a rate
                 sweep crosses the feasibility boundary mid-grid. *)
              Warm.put key (List.map (fun j -> infos.(j).name) basis)
          | _ -> ());
          of_bb r)
  | `Gomory -> (
      match Gomory.solve ?budget p with
      | Gomory.Optimal s -> Optimal (wrap_solution t s)
      | Gomory.Infeasible -> Infeasible
      | Gomory.Unbounded -> Unbounded
      | Gomory.Gave_up -> Unknown)

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
      | Some hi -> Format.fprintf ppf "  %d <= %s <= %d@." i.lo i.name hi
      | None -> Format.fprintf ppf "  %s >= %d@." i.name i.lo)
    (List.rev t.vars);
  Format.fprintf ppf "Generals@.";
  List.iter
    (fun i -> if i.integer then Format.fprintf ppf "  %s@." i.name)
    (List.rev t.vars);
  Format.fprintf ppf "End@."
