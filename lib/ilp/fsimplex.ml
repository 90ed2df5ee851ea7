module R = Mcs_util.Ratio
module M = Mcs_obs.Metrics
module E = Mcs_obs.Events
module Budget = Mcs_resilience.Budget
module A2 = Bigarray.Array2
module A1 = Bigarray.Array1

type f64_1d = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let m_solves = M.counter "fsimplex.solves"
let m_pivots = M.counter "fsimplex.pivots"
let m_steered_pivots = M.counter "fsimplex.steered_pivots"
let m_stuck = M.counter "fsimplex.stuck"
let m_cert_ok = M.counter "ilp.certify.ok"
let m_cert_fail = M.counter "ilp.certify.fail"

type arith = Float_certified | Rational

let arith_of_env () =
  match Sys.getenv_opt "MCS_ARITH" with
  | Some ("rational" | "exact") -> Rational
  | _ -> Float_certified

let arith_to_string = function
  | Float_certified -> "float-certified"
  | Rational -> "rational"

(* Sign tolerance for cost/rhs tests, minimum pivot magnitude, and the
   near-integrality test branching decisions use.  The models here have
   small integer data, so these are generous — and a wrong call is never
   fatal, only a certification failure away from the exact path. *)
let eps = 1e-9
let piv_tol = 1e-7

(* All rows are <=-form: row k owns slack column n_struct + k, so the live
   column count is always n_struct + m.  The exact mirror [ex_rows]/[ex_rhs]
   (structural coefficients only — slacks are implied unit columns) is
   append-only; [restore] just truncates [m] and later appends overwrite. *)
type t = {
  n_struct : int;
  mutable m : int;
  mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) A2.t;
  mutable rhs : float array;
  mutable basis : int array; (* basis.(i) = column basic in row i *)
  mutable obj : float array; (* obj.(j) = z_j - c_j; optimal when all >= 0 *)
  mutable obj_val : float;
  mutable ex_rows : R.t array array;
  mutable ex_rhs : R.t array;
  ex_obj : R.t array;
  mutable pref : bool array;
      (* pricing preference over structural columns, set only while the
         root [solve_lp] runs with a warm hint — see [dual_step] *)
  mutable nz : int array; (* scratch: nonzero columns of the pivot row *)
  budget : Budget.t;
}

(* Process-global recycling pool for the float64 buffers (tableaus and
   snapshots), keyed by length.  A fresh snapshot-sized Bigarray is not
   just an mmap plus page faults: its bytes count as custom-block memory
   pressure, so in a large-heap process every allocation also buys major
   GC slices — measurably doubling a small solve's wall inside the bench
   binary.  Repeated similar-size solves (a bench rep loop, a DSE grid
   sweep) hit steady state with zero fresh Bigarray allocation.  The
   per-length cap bounds retained memory; the mutex makes the pool safe
   under the server's worker domains. *)
module Pool = struct
  let lock = Mutex.create ()
  let tbl : (int, f64_1d list) Hashtbl.t = Hashtbl.create 16
  let per_len_cap = 8

  let alloc len =
    Mutex.lock lock;
    let r =
      match Hashtbl.find_opt tbl len with
      | Some (b :: rest) ->
          Hashtbl.replace tbl len rest;
          Some b
      | _ -> None
    in
    Mutex.unlock lock;
    match r with
    | Some b -> b
    | None -> A1.create Bigarray.float64 Bigarray.c_layout len

  let free b =
    let len = A1.dim b in
    Mutex.lock lock;
    let existing = Option.value ~default:[] (Hashtbl.find_opt tbl len) in
    if List.length existing < per_len_cap then
      Hashtbl.replace tbl len (b :: existing);
    Mutex.unlock lock
end

let n_cols t = t.n_struct + t.m

let alloc_tableau rows cols =
  Bigarray.reshape_2
    (Bigarray.genarray_of_array1 (Pool.alloc (rows * cols)))
    rows cols

let free_tableau a =
  Pool.free
    (Bigarray.reshape_1 (Bigarray.genarray_of_array2 a)
       (A2.dim1 a * A2.dim2 a))

let grow t want_rows =
  let cap = A2.dim1 t.a in
  if want_rows > cap then begin
    let cap' = max want_rows (2 * cap) in
    let a' = alloc_tableau cap' (t.n_struct + cap') in
    A2.fill a' 0.0;
    let n = n_cols t in
    for i = 0 to t.m - 1 do
      for j = 0 to n - 1 do
        A2.set a' i j (A2.get t.a i j)
      done
    done;
    free_tableau t.a;
    t.a <- a';
    let rhs' = Array.make cap' 0.0 in
    Array.blit t.rhs 0 rhs' 0 t.m;
    t.rhs <- rhs';
    let basis' = Array.make cap' (-1) in
    Array.blit t.basis 0 basis' 0 t.m;
    t.basis <- basis';
    let obj' = Array.make (t.n_struct + cap') 0.0 in
    Array.blit t.obj 0 obj' 0 n;
    t.obj <- obj';
    let ex_rows' = Array.make cap' [||] in
    Array.blit t.ex_rows 0 ex_rows' 0 t.m;
    t.ex_rows <- ex_rows';
    let ex_rhs' = Array.make cap' R.zero in
    Array.blit t.ex_rhs 0 ex_rhs' 0 t.m;
    t.ex_rhs <- ex_rhs'
  end

(* The row operations below are the whole float-path cost model: one
   pivot touches every live cell of every row with a nonzero pivot-column
   entry.  The pivot row's nonzero columns are gathered once and only
   those columns are updated — adding [f * 0.0] is a no-op, so the
   result (and every pivot sequence and counter downstream) is bitwise
   identical to the dense sweep, at a fraction of the memory traffic on
   the sparse rows these models produce.  Unsafe accesses are justified
   by the loop bounds — every index is < [t.m] (row) or < [n_cols t]
   (column), both within the allocated capacity by [grow]'s contract. *)
let pivot t r c =
  Budget.spend_pivot t.budget;
  M.incr m_pivots;
  let n = n_cols t in
  let a = t.a in
  let inv = 1.0 /. A2.unsafe_get a r c in
  if Array.length t.nz < n then t.nz <- Array.make (A2.dim2 t.a) 0;
  let nz = t.nz in
  let k = ref 0 in
  for j = 0 to n - 1 do
    let v = A2.unsafe_get a r j in
    if v <> 0.0 then begin
      A2.unsafe_set a r j (v *. inv);
      Array.unsafe_set nz !k j;
      incr k
    end
  done;
  let k = !k in
  A2.unsafe_set a r c 1.0;
  t.rhs.(r) <- t.rhs.(r) *. inv;
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let f = A2.unsafe_get a i c in
      if f <> 0.0 then begin
        for idx = 0 to k - 1 do
          let j = Array.unsafe_get nz idx in
          A2.unsafe_set a i j
            (A2.unsafe_get a i j -. (f *. A2.unsafe_get a r j))
        done;
        A2.unsafe_set a i c 0.0;
        t.rhs.(i) <- t.rhs.(i) -. (f *. t.rhs.(r))
      end
    end
  done;
  let f = t.obj.(c) in
  if f <> 0.0 then begin
    let obj = t.obj in
    for idx = 0 to k - 1 do
      let j = Array.unsafe_get nz idx in
      Array.unsafe_set obj j
        (Array.unsafe_get obj j -. (f *. A2.unsafe_get a r j))
    done;
    obj.(c) <- 0.0;
    t.obj_val <- t.obj_val -. (f *. t.rhs.(r))
  end;
  t.basis.(r) <- c

let install_objective t cost =
  let n = n_cols t in
  let c j = if j < Array.length cost then cost.(j) else 0.0 in
  for j = 0 to n - 1 do
    t.obj.(j) <- -.c j
  done;
  t.obj_val <- 0.0;
  for i = 0 to t.m - 1 do
    let cb = c t.basis.(i) in
    if cb <> 0.0 then begin
      for j = 0 to n - 1 do
        t.obj.(j) <- t.obj.(j) +. (cb *. A2.get t.a i j)
      done;
      t.obj_val <- t.obj_val +. (cb *. t.rhs.(i))
    end
  done

(* Dantzig pricing in both phases (most-negative reduced cost / most-
   negative rhs, lowest index among ties) rather than the rational twin's
   Bland: typically a fraction of Bland's pivot count, and the float path
   has a safety net Bland exists to avoid needing — a cycle hits the
   iteration cap, turns into [`Stuck], and falls back to the exact
   (Bland) path.  Selection is deterministic either way, so pivot
   counters and bench baselines stay machine-independent. *)
let primal_step t =
  let n = n_cols t in
  let entering = ref (-1) in
  let most = ref (-.eps) in
  for j = 0 to n - 1 do
    let oj = Array.unsafe_get t.obj j in
    if oj < !most then begin
      entering := j;
      most := oj
    end
  done;
  if !entering < 0 then `Optimal
  else begin
    let c = !entering in
    let best = ref (-1) in
    let best_ratio = ref 0.0 in
    for i = 0 to t.m - 1 do
      let a_ic = A2.unsafe_get t.a i c in
      if a_ic > piv_tol then begin
        let ratio = t.rhs.(i) /. a_ic in
        let better =
          !best < 0
          || ratio < !best_ratio
          || (ratio = !best_ratio && t.basis.(i) < t.basis.(!best))
        in
        if better then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    if !best < 0 then `Unbounded
    else begin
      pivot t !best c;
      `Pivoted
    end
  end

(* Entering choice: smallest ratio, then — the warm-start lever — a
   preferred column beats an unpreferred one, then lowest index (Bland).
   The zero-objective feasibility phase ties every eligible ratio at 0,
   so the tie-break IS the pivot rule there: steering it toward the
   previous solve's basis columns replays that basis without a
   single extra pivot, where an explicit crash-then-repair both densifies
   the tableau and guesses the slack half of the basis wrong.  Dropping
   strict Bland order risks cycling only while a preference is set; the
   iteration cap turns a stall into [`Stuck] and the exact fallback. *)
let dual_step t =
  let leaving = ref (-1) in
  let most = ref (-.eps) in
  for i = 0 to t.m - 1 do
    let ri = Array.unsafe_get t.rhs i in
    if ri < !most then begin
      leaving := i;
      most := ri
    end
  done;
  if !leaving < 0 then `Feasible
  else begin
    let r = !leaving in
    let n = n_cols t in
    let pref = t.pref in
    let npref = Array.length pref in
    let best = ref (-1) in
    let best_ratio = ref 0.0 in
    let best_pref = ref false in
    for j = 0 to n - 1 do
      let a_rj = A2.unsafe_get t.a r j in
      if a_rj < -.piv_tol then begin
        let ratio = t.obj.(j) /. -.a_rj in
        let p = j < npref && Array.unsafe_get pref j in
        let better =
          !best < 0 || ratio < !best_ratio
          || (ratio = !best_ratio && p && not !best_pref)
        in
        if better then begin
          best := j;
          best_ratio := ratio;
          best_pref := p
        end
      end
    done;
    if !best < 0 then `Infeasible r
    else begin
      if !best_pref then M.incr m_steered_pivots;
      pivot t r !best;
      `Pivoted
    end
  end

let iter_cap t = 10_000 + (100 * t.m)

let primal_loop t =
  let left = ref (iter_cap t) in
  let rec go () =
    if !left <= 0 then begin
      M.incr m_stuck;
      `Stuck
    end
    else begin
      decr left;
      match primal_step t with
      | `Optimal -> `Optimal
      | `Unbounded -> `Unbounded
      | `Pivoted -> go ()
    end
  in
  go ()

let dual_loop t =
  let left = ref (iter_cap t) in
  let rec go () =
    if !left <= 0 then begin
      M.incr m_stuck;
      `Stuck
    end
    else begin
      decr left;
      match dual_step t with
      | `Feasible -> `Ok
      | `Infeasible r -> `Infeasible r
      | `Pivoted -> go ()
    end
  in
  go ()

let create ?(budget = Budget.unlimited) (p : Simplex.problem) =
  if p.n_vars < 0 then invalid_arg "Fsimplex: negative n_vars";
  let le_rows =
    List.concat_map
      (fun (coefs, rel, b) ->
        if Array.length coefs <> p.n_vars then
          invalid_arg "Fsimplex: row width mismatch";
        match rel with
        | Simplex.Le -> [ (Array.copy coefs, b) ]
        | Simplex.Ge -> [ (Array.map R.neg coefs, R.neg b) ]
        | Simplex.Eq ->
            [ (Array.copy coefs, b); (Array.map R.neg coefs, R.neg b) ])
      p.rows
  in
  let m = List.length le_rows in
  (* Headroom for the branching rows a search appends: as long as the
     tree stays shallower than this, [grow] never fires, the row stride
     never changes, and every snapshot/restore is a single blit.  The
     capacity is rounded up to a multiple of 64, so models that differ by
     a few rows (a scheduler's successive questions, each one fixing more)
     share the stride, and with it the tableau and snapshot lengths the
     [Pool] recycles by. *)
  let cap = (m + 64 + 63) / 64 * 64 in
  let a = alloc_tableau cap (p.n_vars + cap) in
  (* Only the live rows need zeros: [add_row] writes each later row in
     full and scrubs its slack column, and nothing reads past them. *)
  A2.fill (A2.sub_left a 0 m) 0.0;
  let t =
    {
      n_struct = p.n_vars;
      m;
      a;
      rhs = Array.make cap 0.0;
      basis = Array.make cap (-1);
      obj = Array.make (p.n_vars + cap) 0.0;
      obj_val = 0.0;
      ex_rows = Array.make cap [||];
      ex_rhs = Array.make cap R.zero;
      ex_obj = Array.copy p.objective;
      pref = [||];
      nz = Array.make (p.n_vars + cap) 0;
      budget;
    }
  in
  List.iteri
    (fun i (coefs, b) ->
      t.ex_rows.(i) <- coefs;
      t.ex_rhs.(i) <- b;
      for j = 0 to p.n_vars - 1 do
        let v = coefs.(j) in
        if not (R.is_zero v) then A2.set t.a i j (R.to_float v)
      done;
      A2.set t.a i (p.n_vars + i) 1.0;
      t.rhs.(i) <- R.to_float b;
      t.basis.(i) <- p.n_vars + i)
    le_rows;
  t

let fcost t = Array.map R.to_float t.ex_obj

let solve_lp ?(warm = []) t =
  M.incr m_solves;
  if warm <> [] then begin
    let pref = Array.make t.n_struct false in
    List.iter (fun j -> if j >= 0 && j < t.n_struct then pref.(j) <- true) warm;
    t.pref <- pref
  end;
  install_objective t [||];
  let feas = dual_loop t in
  t.pref <- [||];
  match feas with
  | `Stuck -> `Stuck
  | `Infeasible r -> `Infeasible r
  | `Ok -> (
      install_objective t (fcost t);
      match primal_loop t with
      | `Optimal -> `Optimal
      | `Unbounded -> `Unbounded
      | `Stuck -> `Stuck)

let reoptimize_dual t = dual_loop t

let add_row t coefs rel b =
  if Array.length coefs > t.n_struct then
    invalid_arg "Fsimplex.add_row: more coefficients than variables";
  let rec add rel =
    match rel with
    | Simplex.Eq ->
        add Simplex.Le;
        add Simplex.Ge
    | Simplex.Le | Simplex.Ge ->
        let neg_it = rel = Simplex.Ge in
        let exc = Array.make t.n_struct R.zero in
        Array.iteri
          (fun j c -> exc.(j) <- (if neg_it then R.neg c else c))
          coefs;
        let exb = if neg_it then R.neg b else b in
        grow t (t.m + 1);
        let r = t.m in
        let slack = t.n_struct + r in
        t.ex_rows.(r) <- exc;
        t.ex_rhs.(r) <- exb;
        (* The slack column and the new row slot may hold stale values
           from before a [restore] truncation; scrub them. *)
        for i = 0 to t.m - 1 do
          A2.set t.a i slack 0.0
        done;
        t.obj.(slack) <- 0.0;
        let n_old = n_cols t in
        let row = Array.make n_old 0.0 in
        for j = 0 to t.n_struct - 1 do
          let v = exc.(j) in
          if not (R.is_zero v) then row.(j) <- R.to_float v
        done;
        let rhs = ref (R.to_float exb) in
        (* Express the row in the current basis: basis columns are unit
           vectors, so one elimination pass per tableau row whose basic
           variable appears suffices.  The objective row is untouched (the
           new slack has reduced cost 0): dual feasibility is preserved. *)
        for i = 0 to t.m - 1 do
          let f = row.(t.basis.(i)) in
          if f <> 0.0 then begin
            for j = 0 to n_old - 1 do
              let v = A2.unsafe_get t.a i j in
              if v <> 0.0 then
                Array.unsafe_set row j (Array.unsafe_get row j -. (f *. v))
            done;
            rhs := !rhs -. (f *. t.rhs.(i))
          end
        done;
        for j = 0 to n_old - 1 do
          A2.unsafe_set t.a r j (Array.unsafe_get row j)
        done;
        A2.set t.a r slack 1.0;
        t.rhs.(r) <- !rhs;
        t.basis.(r) <- slack;
        t.m <- t.m + 1
  in
  add rel

type snapshot = {
  s_m : int;
  s_width : int; (* tableau row stride when the snapshot was taken *)
  s_a : f64_1d; (* the first m full-width tableau rows, verbatim *)
  s_rhs : float array;
  s_basis : int array;
  s_obj : float array;
  s_obj_val : float;
  mutable s_uses : int;
      (* outstanding [release] calls before s_a returns to the pool *)
}

let flat t = Bigarray.reshape_1 (Bigarray.genarray_of_array2 t.a)
    (A2.dim1 t.a * A2.dim2 t.a)

(* Snapshot/restore bound the per-node cost of the search (every node
   restores, every branch snapshots), so both directions are a single
   memcpy-speed [A1.blit] of the live row prefix — full-width rows,
   stale tail columns included ([add_row] scrubs them) — rather than an
   element loop over the live region.  [create]'s capacity headroom
   keeps the row stride stable, so the width-mismatch fallback below is
   for the rare mid-search [grow], not the common path. *)
let snapshot ?(uses = 1) t =
  let width = A2.dim2 t.a in
  let len = t.m * width in
  let s_a = Pool.alloc len in
  A1.blit (A1.sub (flat t) 0 len) s_a;
  {
    s_m = t.m;
    s_width = width;
    s_a;
    s_rhs = Array.sub t.rhs 0 t.m;
    s_basis = Array.sub t.basis 0 t.m;
    s_obj = Array.sub t.obj 0 (n_cols t);
    s_obj_val = t.obj_val;
    s_uses = uses;
  }

let release (_ : t) s =
  s.s_uses <- s.s_uses - 1;
  if s.s_uses = 0 then Pool.free s.s_a

let restore t s =
  grow t s.s_m;
  t.m <- s.s_m;
  let n = n_cols t in
  let width = A2.dim2 t.a in
  if width = s.s_width then
    A1.blit s.s_a (A1.sub (flat t) 0 (s.s_m * width))
  else begin
    let a = t.a in
    for i = 0 to s.s_m - 1 do
      let base = i * s.s_width in
      for j = 0 to n - 1 do
        A2.unsafe_set a i j (A1.unsafe_get s.s_a (base + j))
      done
    done
  end;
  Array.blit s.s_rhs 0 t.rhs 0 s.s_m;
  Array.blit s.s_basis 0 t.basis 0 s.s_m;
  Array.blit s.s_obj 0 t.obj 0 n;
  t.obj_val <- s.s_obj_val

let dispose t = free_tableau t.a

let value_float t = t.obj_val

let x_float t =
  let x = Array.make t.n_struct 0.0 in
  for i = 0 to t.m - 1 do
    if t.basis.(i) < t.n_struct then x.(t.basis.(i)) <- t.rhs.(i)
  done;
  x

let basic_structurals t =
  let cols = ref [] in
  for i = t.m - 1 downto 0 do
    if t.basis.(i) < t.n_struct then cols := t.basis.(i) :: !cols
  done;
  List.sort compare !cols

(* --- Exact certification ------------------------------------------------

   The float tableau already holds every certificate the exact checks
   need, up to roundoff: row [r] of B^{-1} sits in row [r]'s slack
   columns (the tableau is B^{-1} [A | I]), the basic values in [rhs], and
   the duals in the objective row's slack columns.  Each entry is read
   back as the small-denominator rational it approximates, and the exact
   test then decides on the original rows alone — a wrong reconstruction
   can only fail a check, never pass a false one. *)

(* Continued-fraction convergents of [v], stopping at the first within
   [rec_tol] (relative, at least absolute) whose denominator is at most
   [max_den]; [None] when there is none.  Entries within [eps] of 0 are 0,
   as in the pivot rules. *)
let max_den = 1 lsl 24
let rec_tol = 1e-9

let reconstruct v =
  let a = Float.abs v in
  if a <= eps then Some R.zero
  else if not (a < 1e12) then None
  else begin
    let tol = rec_tol *. Float.max 1.0 a in
    let rec go x h0 k0 h1 k1 =
      let q = Float.floor x in
      if (q *. float_of_int k1) +. float_of_int k0 > float_of_int max_den then
        None
      else begin
        let q = int_of_float q in
        let h = (q * h1) + h0 and k = (q * k1) + k0 in
        if Float.abs (a -. (float_of_int h /. float_of_int k)) <= tol then
          Some (R.make (if v < 0.0 then -h else h) k)
        else
          let f = x -. Float.floor x in
          if f <= 0.0 then None else go (1.0 /. f) h1 k1 h k
      end
    in
    go a 0 1 1 0
  end

(* [Some] of every entry reconstructed, or [None] at the first failure. *)
let reconstruct_all n get =
  try
    Some
      (Array.init n (fun i ->
           match reconstruct (get i) with Some q -> q | None -> raise Exit))
  with Exit -> None

let verdict kind ok =
  M.incr (if ok then m_cert_ok else m_cert_fail);
  if E.on () then
    E.emit ~cat:"ilp" "certify"
      ~args:
        [
          ("kind", E.Str kind);
          ("outcome", E.Str (if ok then "ok" else "fail"));
        ];
  ok

(* [sum_r w_r * row_r] over the structural columns, skipping zero
   weights. *)
let combine t w =
  let acc = Array.make t.n_struct R.zero in
  for r = 0 to t.m - 1 do
    let wr = w.(r) in
    if not (R.is_zero wr) then
      Array.iteri
        (fun j a ->
          if not (R.is_zero a) then acc.(j) <- R.add acc.(j) (R.mul wr a))
        t.ex_rows.(r)
  done;
  acc

let slack_basic t =
  let sb = Array.make t.m false in
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= t.n_struct then sb.(t.basis.(i) - t.n_struct) <- true
  done;
  sb

let farkas_multipliers t r =
  reconstruct_all t.m (fun k -> A2.get t.a r (t.n_struct + k))

let farkas_holds t z =
  Array.length z = t.m
  && Array.for_all (fun v -> R.sign v >= 0) z
  &&
  try
    let zb = ref R.zero in
    Array.iteri
      (fun r zr ->
        if not (R.is_zero zr) then zb := R.add !zb (R.mul zr t.ex_rhs.(r)))
      z;
    R.sign !zb < 0 && Array.for_all (fun v -> R.sign v >= 0) (combine t z)
  with R.Overflow -> false

let certify_infeasible t r =
  verdict "farkas"
    (match farkas_multipliers t r with
    | Some z -> farkas_holds t z
    | None -> false)

let basic_point t =
  let structural i = t.basis.(i) < t.n_struct in
  reconstruct_all t.m (fun i -> if structural i then t.rhs.(i) else 0.0)
  |> Option.map (fun v ->
         let x = Array.make t.n_struct R.zero in
         for i = 0 to t.m - 1 do
           if structural i then x.(t.basis.(i)) <- v.(i)
         done;
         x)

let primal_holds t x =
  Array.length x = t.n_struct
  && Array.for_all (fun v -> R.sign v >= 0) x
  &&
  try
    let sb = slack_basic t in
    (* A basic slack is its row's nonnegative residual; a nonbasic one is
       zero, so its row holds with equality: B x_B = b_T. *)
    let rec rows r =
      r = t.m
      ||
      let res = ref t.ex_rhs.(r) in
      Array.iteri
        (fun j a ->
          if not (R.is_zero a || R.is_zero x.(j)) then
            res := R.sub !res (R.mul a x.(j)))
        t.ex_rows.(r);
      let s = R.sign !res in
      (if sb.(r) then s >= 0 else s = 0) && rows (r + 1)
    in
    rows 0
  with R.Overflow -> false

(* Dual feasibility of the current basis, from the objective row's slack
   entries: y >= 0 (zero on basic slacks), B^T y = c_B exactly and every
   nonbasic structural reduced cost c_j - y.A_j <= 0.  With [primal_holds]
   that is complementary slackness, so the basic point is optimal. *)
let dual_holds t =
  let sb = slack_basic t in
  match
    reconstruct_all t.m (fun k ->
        if sb.(k) then 0.0 else t.obj.(t.n_struct + k))
  with
  | None -> false
  | Some y -> (
      Array.for_all (fun v -> R.sign v >= 0) y
      &&
      try
        let ya = combine t y in
        let basic = Array.make t.n_struct false in
        for i = 0 to t.m - 1 do
          if t.basis.(i) < t.n_struct then basic.(t.basis.(i)) <- true
        done;
        let rec cols j =
          j = t.n_struct
          ||
          let s = R.sign (R.sub t.ex_obj.(j) ya.(j)) in
          (if basic.(j) then s = 0 else s <= 0) && cols (j + 1)
        in
        cols 0
      with R.Overflow -> false)

let certify_optimal t =
  let sol =
    match basic_point t with
    | Some x
      when primal_holds t x
           && (Array.for_all R.is_zero t.ex_obj || dual_holds t) -> (
        (* The basic point of a feasibility model is optimal by
           definition. *)
        try
          let value = ref R.zero in
          Array.iteri
            (fun j c ->
              if not (R.is_zero c) then value := R.add !value (R.mul c x.(j)))
            t.ex_obj;
          Some { Simplex.value = !value; x }
        with R.Overflow -> None)
    | _ -> None
  in
  ignore (verdict "optimal" (sol <> None));
  sol
