type t = {
  n_left : int;
  n_right : int;
  adj : int list array; (* adj.(l) = right neighbours *)
  ml : int array; (* ml.(l) = matched right vertex or -1 *)
  mr : int array; (* mr.(r) = matched left vertex or -1 *)
}

let create ~n_left ~n_right =
  if n_left < 0 || n_right < 0 then invalid_arg "Bipartite.create";
  {
    n_left;
    n_right;
    adj = Array.make n_left [];
    ml = Array.make n_left (-1);
    mr = Array.make n_right (-1);
  }

let check_l t l = if l < 0 || l >= t.n_left then invalid_arg "Bipartite: left"
let check_r t r = if r < 0 || r >= t.n_right then invalid_arg "Bipartite: right"

let add_edge t ~left ~right =
  check_l t left;
  check_r t right;
  t.adj.(left) <- right :: t.adj.(left)

let unmatch_left t l =
  let r = t.ml.(l) in
  if r >= 0 then begin
    t.ml.(l) <- -1;
    t.mr.(r) <- -1
  end

let force_pair t ~left ~right =
  check_l t left;
  check_r t right;
  if not (List.mem right t.adj.(left)) then
    invalid_arg "Bipartite.force_pair: no such edge";
  unmatch_left t left;
  let old_l = t.mr.(right) in
  if old_l >= 0 then t.ml.(old_l) <- -1;
  t.ml.(left) <- right;
  t.mr.(right) <- left

module M = Mcs_obs.Metrics

let m_attempts = M.counter "bipartite.augment_attempts"
let m_success = M.counter "bipartite.augment_success"
let m_fail = M.counter "bipartite.augment_fail"

(* One Kuhn phase from [l]: DFS over alternating paths. *)
let augment_from t l =
  M.incr m_attempts;
  let visited = Array.make t.n_right false in
  let rec dfs l =
    let try_right r =
      if visited.(r) then false
      else begin
        visited.(r) <- true;
        if t.mr.(r) = -1 || dfs t.mr.(r) then begin
          t.ml.(l) <- r;
          t.mr.(r) <- l;
          true
        end
        else false
      end
    in
    List.exists try_right (List.rev t.adj.(l))
  in
  let ok = dfs l in
  M.incr (if ok then m_success else m_fail);
  ok

let max_matching ?(budget = Mcs_resilience.Budget.unlimited) t =
  for l = 0 to t.n_left - 1 do
    if t.ml.(l) = -1 then begin
      Mcs_resilience.Budget.spend_augment budget;
      ignore (augment_from t l)
    end
  done;
  Array.fold_left (fun acc r -> if r >= 0 then acc + 1 else acc) 0 t.ml

let match_of_left t l =
  check_l t l;
  if t.ml.(l) >= 0 then Some t.ml.(l) else None

let pairs t =
  let acc = ref [] in
  for l = t.n_left - 1 downto 0 do
    if t.ml.(l) >= 0 then acc := (l, t.ml.(l)) :: !acc
  done;
  !acc
