module R = Mcs_util.Ratio
module M = Mcs_obs.Metrics
module Budget = Mcs_resilience.Budget

let m_solves = M.counter "simplex.solves"
let m_pivots = M.counter "simplex.pivots"
let m_degenerate = M.counter "simplex.degenerate_pivots"
let m_primal_steps = M.counter "simplex.primal_steps"
let m_dual_steps = M.counter "simplex.dual_steps"
let m_cuts_added = M.counter "simplex.gomory_rows"

let m_pivots_per_solve =
  M.histogram "simplex.pivots_per_solve"
    ~buckets:[| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000 |]

type rel = Le | Ge | Eq

type problem = {
  n_vars : int;
  objective : R.t array;
  rows : (R.t array * rel * R.t) list;
}

type solution = { value : R.t; x : R.t array }

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Exhausted of Budget.exhausted

(* Growable exact-rational tableau.

   Layout: [m] rows by [n] columns plus a separate rhs vector.  The
   objective row [obj] follows the convention obj.(j) = z_j - c_j, so the
   tableau is (primal) optimal when every obj.(j) >= 0, and every pivot
   updates [obj] by ordinary row elimination. *)
type tab = {
  n_struct : int; (* original problem variables: columns 0 .. n_struct-1 *)
  mutable m : int;
  mutable n : int;
  mutable a : R.t array array; (* m rows, each of length >= n *)
  mutable rhs : R.t array;
  mutable basis : int array; (* basis.(i) = column basic in row i *)
  mutable obj : R.t array;
  mutable obj_val : R.t;
  mutable blocked : bool array; (* columns that may never (re)enter *)
  budget : Budget.t; (* shared pivot/wall budget; raises Out_of_budget *)
}

let grow_cols t want =
  let cap = Array.length t.obj in
  if want > cap then begin
    let cap' = max want (2 * cap) in
    let extend row =
      let row' = Array.make cap' R.zero in
      Array.blit row 0 row' 0 (Array.length row);
      row'
    in
    t.a <- Array.map extend t.a;
    t.obj <- extend t.obj;
    let blocked' = Array.make cap' false in
    Array.blit t.blocked 0 blocked' 0 (Array.length t.blocked);
    t.blocked <- blocked'
  end

let grow_rows t want =
  let cap = Array.length t.a in
  if want > cap then begin
    let cap' = max want (2 * cap) in
    let cols = Array.length t.obj in
    let a' = Array.make cap' [||] in
    Array.blit t.a 0 a' 0 t.m;
    for i = t.m to cap' - 1 do
      a'.(i) <- Array.make cols R.zero
    done;
    t.a <- a';
    let rhs' = Array.make cap' R.zero in
    Array.blit t.rhs 0 rhs' 0 t.m;
    t.rhs <- rhs';
    let basis' = Array.make cap' (-1) in
    Array.blit t.basis 0 basis' 0 t.m;
    t.basis <- basis'
  end

let pivot t r c =
  Budget.spend_pivot t.budget;
  let piv = t.a.(r).(c) in
  assert (not (R.is_zero piv));
  M.incr m_pivots;
  if R.is_zero t.rhs.(r) then M.incr m_degenerate;
  let inv = R.inv piv in
  let row = t.a.(r) in
  let blocked = t.blocked in
  (* Normalize the pivot row and collect its support.  Structurally zero
     entries contribute nothing to the elimination below, and permanently
     [blocked] columns are never read again (entering and dual ratio tests
     both skip them), so neither is updated — their entries may go stale,
     which every reader tolerates by skipping blocked columns too. *)
  let support = ref [] in
  for j = t.n - 1 downto 0 do
    if not blocked.(j) then begin
      let v = row.(j) in
      if not (R.is_zero v) then begin
        row.(j) <- R.mul v inv;
        support := j :: !support
      end
    end
  done;
  let support = !support in
  t.rhs.(r) <- R.mul t.rhs.(r) inv;
  let prow_rhs = t.rhs.(r) in
  let eliminate target_row target_rhs_get target_rhs_set =
    let f = target_row.(c) in
    if not (R.is_zero f) then begin
      List.iter
        (fun j -> target_row.(j) <- R.sub target_row.(j) (R.mul f row.(j)))
        support;
      target_rhs_set (R.sub (target_rhs_get ()) (R.mul f prow_rhs))
    end
  in
  for i = 0 to t.m - 1 do
    if i <> r then
      eliminate t.a.(i) (fun () -> t.rhs.(i)) (fun v -> t.rhs.(i) <- v)
  done;
  eliminate t.obj (fun () -> t.obj_val) (fun v -> t.obj_val <- v);
  t.basis.(r) <- c

(* Bland's rule: entering column = smallest eligible index; leaving row =
   lexicographic minimum ratio with smallest basic index as tie-break. *)
let primal_step t =
  M.incr m_primal_steps;
  let entering = ref (-1) in
  (try
     for j = 0 to t.n - 1 do
       if (not t.blocked.(j)) && R.sign t.obj.(j) < 0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let c = !entering in
    let best = ref (-1) in
    let best_ratio = ref R.zero in
    for i = 0 to t.m - 1 do
      if R.sign t.a.(i).(c) > 0 then begin
        let ratio = R.div t.rhs.(i) t.a.(i).(c) in
        let better =
          !best < 0
          || R.compare ratio !best_ratio < 0
          || (R.compare ratio !best_ratio = 0 && t.basis.(i) < t.basis.(!best))
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

let rec primal_loop t =
  match primal_step t with
  | `Optimal -> `Optimal
  | `Unbounded -> `Unbounded
  | `Pivoted -> primal_loop t

(* Dual simplex: leaving row = most negative rhs is the usual heuristic,
   but Bland-style smallest basic index guarantees termination. *)
let dual_step t =
  M.incr m_dual_steps;
  let leaving = ref (-1) in
  for i = t.m - 1 downto 0 do
    if R.sign t.rhs.(i) < 0 then
      if !leaving < 0 || t.basis.(i) < t.basis.(!leaving) then leaving := i
  done;
  if !leaving < 0 then `Feasible
  else begin
    let r = !leaving in
    let best = ref (-1) in
    let best_ratio = ref R.zero in
    for j = 0 to t.n - 1 do
      if (not t.blocked.(j)) && R.sign t.a.(r).(j) < 0 then begin
        let ratio = R.div t.obj.(j) (R.neg t.a.(r).(j)) in
        let better =
          !best < 0
          || R.compare ratio !best_ratio < 0
          || (R.compare ratio !best_ratio = 0 && j < !best)
        in
        if better then begin
          best := j;
          best_ratio := ratio
        end
      end
    done;
    if !best < 0 then `Infeasible
    else begin
      pivot t r !best;
      `Pivoted
    end
  end

let rec dual_loop t =
  match dual_step t with
  | `Feasible -> `Ok
  | `Infeasible -> `Infeasible
  | `Pivoted -> dual_loop t

(* Rebuild the objective row for cost vector [c] (length t.n, missing
   entries zero) given the current basis. *)
let install_objective t c =
  let cost j = if j < Array.length c then c.(j) else R.zero in
  for j = 0 to t.n - 1 do
    t.obj.(j) <- R.neg (cost j)
  done;
  t.obj_val <- R.zero;
  for i = 0 to t.m - 1 do
    let cb = cost t.basis.(i) in
    if not (R.is_zero cb) then begin
      for j = 0 to t.n - 1 do
        t.obj.(j) <- R.add t.obj.(j) (R.mul cb t.a.(i).(j))
      done;
      t.obj_val <- R.add t.obj_val (R.mul cb t.rhs.(i))
    end
  done

let delete_row t r =
  (* Recycle the deleted row's array into the vacated slot so capacity rows
     never alias live rows. *)
  let dead = t.a.(r) in
  for i = r to t.m - 2 do
    t.a.(i) <- t.a.(i + 1);
    t.rhs.(i) <- t.rhs.(i + 1);
    t.basis.(i) <- t.basis.(i + 1)
  done;
  t.a.(t.m - 1) <- dead;
  t.m <- t.m - 1

module Tab = struct
  type t = tab

  let build ?(budget = Budget.unlimited) p =
    if p.n_vars < 0 then invalid_arg "Simplex: negative n_vars";
    let rows = Array.of_list p.rows in
    let m = Array.length rows in
    (* One slack/surplus column per inequality, one artificial per row that
       needs one; count first. *)
    let normalized =
      Array.map
        (fun (coefs, rel, b) ->
          if Array.length coefs <> p.n_vars then
            invalid_arg "Simplex: row width mismatch";
          if R.sign b >= 0 then (coefs, rel, b)
          else
            let flip = function Le -> Ge | Ge -> Le | Eq -> Eq in
            (Array.map R.neg coefs, flip rel, R.neg b))
        rows
    in
    let n_slack =
      Array.fold_left
        (fun acc (_, rel, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
        0 normalized
    in
    let n_art =
      Array.fold_left
        (fun acc (_, rel, _) -> match rel with Le -> acc | Ge | Eq -> acc + 1)
        0 normalized
    in
    let n = p.n_vars + n_slack + n_art in
    let t =
      {
        n_struct = p.n_vars;
        m;
        n;
        a = Array.init (max m 1) (fun _ -> Array.make (max n 1) R.zero);
        rhs = Array.make (max m 1) R.zero;
        basis = Array.make (max m 1) (-1);
        obj = Array.make (max n 1) R.zero;
        obj_val = R.zero;
        blocked = Array.make (max n 1) false;
        budget;
      }
    in
    let next_slack = ref p.n_vars in
    let next_art = ref (p.n_vars + n_slack) in
    Array.iteri
      (fun i (coefs, rel, b) ->
        Array.blit coefs 0 t.a.(i) 0 p.n_vars;
        t.rhs.(i) <- b;
        (match rel with
        | Le ->
            t.a.(i).(!next_slack) <- R.one;
            t.basis.(i) <- !next_slack;
            incr next_slack
        | Ge ->
            t.a.(i).(!next_slack) <- R.minus_one;
            incr next_slack
        | Eq -> ());
        match rel with
        | Le -> ()
        | Ge | Eq ->
            t.a.(i).(!next_art) <- R.one;
            t.basis.(i) <- !next_art;
            incr next_art)
      normalized;
    let art_lo = p.n_vars + n_slack in
    (* Phase 1: maximize -(sum of artificials). *)
    if n_art > 0 then begin
      let c1 = Array.make t.n R.zero in
      for j = art_lo to t.n - 1 do
        c1.(j) <- R.minus_one
      done;
      install_objective t c1;
      (match primal_loop t with
      | `Unbounded -> assert false (* phase-1 objective is bounded above *)
      | `Optimal -> ());
      if R.sign t.obj_val < 0 then `Infeasible
      else begin
        (* Drive artificials out of the basis; delete redundant rows. *)
        let i = ref 0 in
        while !i < t.m do
          if t.basis.(!i) >= art_lo then begin
            let col = ref (-1) in
            (try
               for j = 0 to art_lo - 1 do
                 if not (R.is_zero t.a.(!i).(j)) then begin
                   col := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !col >= 0 then begin
              pivot t !i !col;
              incr i
            end
            else delete_row t !i
          end
          else incr i
        done;
        for j = art_lo to t.n - 1 do
          t.blocked.(j) <- true
        done;
        install_objective t p.objective;
        match primal_loop t with
        | `Optimal -> `Solved t
        | `Unbounded -> `Unbounded
      end
    end
    else begin
      install_objective t p.objective;
      match primal_loop t with
      | `Optimal -> `Solved t
      | `Unbounded -> `Unbounded
    end

  let of_problem ?budget p =
    M.incr m_solves;
    let pivots0 = M.count_local m_pivots in
    let r =
      try build ?budget p
      with Budget.Out_of_budget e -> `Exhausted e
    in
    let batch = M.count_local m_pivots - pivots0 in
    M.observe m_pivots_per_solve batch;
    (* One journal event per solve, not per pivot: the batch size is the
       useful signal and a per-pivot event would flood the ring. *)
    if Mcs_obs.Events.on () then
      Mcs_obs.Events.emit ~cat:"simplex" "solve"
        ~args:
          [
            ("pivots", Mcs_obs.Events.Int batch);
            ("rows", Mcs_obs.Events.Int (List.length p.rows));
            ("vars", Mcs_obs.Events.Int p.n_vars);
            ( "outcome",
              Mcs_obs.Events.Str
                (match r with
                | `Solved _ -> "solved"
                | `Infeasible -> "infeasible"
                | `Unbounded -> "unbounded"
                | `Exhausted _ -> "exhausted") );
          ];
    r

  let solution t =
    let x = Array.make t.n_struct R.zero in
    for i = 0 to t.m - 1 do
      if t.basis.(i) < t.n_struct then x.(t.basis.(i)) <- t.rhs.(i)
    done;
    { value = t.obj_val; x }

  let fractional_basic t =
    let found = ref None in
    (try
       for i = 0 to t.m - 1 do
         if t.basis.(i) < t.n_struct && not (R.is_integer t.rhs.(i)) then begin
           found := Some i;
           raise Exit
         end
       done
     with Exit -> ());
    !found

  (* Claim a fresh column (for the slack of an appended row) and a fresh
     row slot.  The new column is scrubbed in every live row, the objective
     and the blocked mask: capacity cells may hold stale values from a
     [delete_row] recycling or a [restore] that shrank the tableau. *)
  let claim_row_and_col t =
    grow_cols t (t.n + 1);
    grow_rows t (t.m + 1);
    let slack = t.n in
    t.n <- t.n + 1;
    for i = 0 to t.m - 1 do
      t.a.(i).(slack) <- R.zero
    done;
    t.obj.(slack) <- R.zero;
    t.blocked.(slack) <- false;
    let row = t.a.(t.m) in
    Array.fill row 0 t.n R.zero;
    slack

  let add_gomory_cut t r =
    if r < 0 || r >= t.m then invalid_arg "add_gomory_cut: bad row";
    M.incr m_cuts_added;
    let f0 = R.frac t.rhs.(r) in
    if R.is_zero f0 then invalid_arg "add_gomory_cut: row is integral";
    (* Cut over the nonbasic variables:  sum_j frac(a_rj) x_j >= frac(b_r),
       appended in <=-with-slack form:  -sum frac(a_rj) x_j + s = -frac(b_r).
       Blocked columns are fixed at zero forever (and their tableau entries
       may be stale), so they are left out of the cut. *)
    let basic = Array.make t.n false in
    for i = 0 to t.m - 1 do
      basic.(t.basis.(i)) <- true
    done;
    let slack = claim_row_and_col t in
    let row = t.a.(t.m) in
    for j = 0 to slack - 1 do
      if (not basic.(j)) && not t.blocked.(j) then begin
        let f = R.frac t.a.(r).(j) in
        if not (R.is_zero f) then row.(j) <- R.neg f
      end
    done;
    row.(slack) <- R.one;
    t.rhs.(t.m) <- R.neg f0;
    t.basis.(t.m) <- slack;
    t.m <- t.m + 1

  let add_row t coefs rel b =
    if Array.length coefs > t.n_struct then
      invalid_arg "Simplex.Tab.add_row: more coefficients than variables";
    let rec add coefs rel b =
      match rel with
      | Eq ->
          add coefs Le b;
          add coefs Ge b
      | Le | Ge ->
          let neg_it = rel = Ge in
          let slack = claim_row_and_col t in
          let row = t.a.(t.m) in
          Array.iteri
            (fun j c ->
              if not (R.is_zero c) then row.(j) <- (if neg_it then R.neg c else c))
            coefs;
          let rhs = ref (if neg_it then R.neg b else b) in
          (* Express the new row in the current basis: basis columns are
             unit vectors, so one elimination pass per tableau row whose
             basic variable appears in the new row suffices.  The objective
             row is untouched (the new slack has reduced cost 0), so a
             dual-feasible tableau stays dual-feasible. *)
          for i = 0 to t.m - 1 do
            let f = row.(t.basis.(i)) in
            if not (R.is_zero f) then begin
              let arow = t.a.(i) in
              for j = 0 to t.n - 1 do
                if not t.blocked.(j) then begin
                  let v = arow.(j) in
                  if not (R.is_zero v) then row.(j) <- R.sub row.(j) (R.mul f v)
                end
              done;
              rhs := R.sub !rhs (R.mul f t.rhs.(i))
            end
          done;
          row.(slack) <- R.one;
          t.rhs.(t.m) <- !rhs;
          t.basis.(t.m) <- slack;
          t.m <- t.m + 1
    in
    add coefs rel b

  let reoptimize_dual t =
    try (dual_loop t :> [ `Ok | `Infeasible | `Exhausted of Budget.exhausted ])
    with Budget.Out_of_budget e -> `Exhausted e

  type snapshot = {
    s_m : int;
    s_n : int;
    s_a : R.t array array;
    s_rhs : R.t array;
    s_basis : int array;
    s_obj : R.t array;
    s_obj_val : R.t;
    s_blocked : bool array;
  }

  let snapshot t =
    {
      s_m = t.m;
      s_n = t.n;
      s_a = Array.init t.m (fun i -> Array.sub t.a.(i) 0 t.n);
      s_rhs = Array.sub t.rhs 0 t.m;
      s_basis = Array.sub t.basis 0 t.m;
      s_obj = Array.sub t.obj 0 t.n;
      s_obj_val = t.obj_val;
      s_blocked = Array.sub t.blocked 0 t.n;
    }

  let restore t s =
    grow_cols t s.s_n;
    grow_rows t s.s_m;
    t.m <- s.s_m;
    t.n <- s.s_n;
    for i = 0 to s.s_m - 1 do
      Array.blit s.s_a.(i) 0 t.a.(i) 0 s.s_n
    done;
    Array.blit s.s_rhs 0 t.rhs 0 s.s_m;
    Array.blit s.s_basis 0 t.basis 0 s.s_m;
    Array.blit s.s_obj 0 t.obj 0 s.s_n;
    t.obj_val <- s.s_obj_val;
    Array.blit s.s_blocked 0 t.blocked 0 s.s_n
end

let solve ?budget p =
  match Tab.of_problem ?budget p with
  | `Infeasible -> Infeasible
  | `Unbounded -> Unbounded
  | `Exhausted e -> Exhausted e
  | `Solved t -> Optimal (Tab.solution t)
