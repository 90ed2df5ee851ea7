type resource = Wall | Nodes | Pivots | Passes | Augments

type exhausted = { resource : resource; limit : int; spent : int }

(* [deadline] is absolute (gettimeofday); [deadline_ms] keeps the original
   allowance so [halve] and diagnostics can reconstruct it.  Counters are
   mutable so one budget can be shared across nested solver calls (e.g.
   branch & bound charging every per-node dual reoptimization against a
   single pivot pool). *)
type t = {
  deadline : float option;
  allowance_ms : float option;
  nodes : int option;
  pivots : int option;
  passes : int option;
  augments : int option;
  mutable n_nodes : int;
  mutable n_pivots : int;
  mutable n_passes : int;
  mutable n_augments : int;
  mutable tick : int;
}

exception Out_of_budget of exhausted

let unlimited =
  {
    deadline = None;
    allowance_ms = None;
    nodes = None;
    pivots = None;
    passes = None;
    augments = None;
    n_nodes = 0;
    n_pivots = 0;
    n_passes = 0;
    n_augments = 0;
    tick = 0;
  }

let make ?deadline_ms ?nodes ?pivots ?passes ?augments () =
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) deadline_ms
  in
  {
    deadline;
    allowance_ms = deadline_ms;
    nodes;
    pivots;
    passes;
    augments;
    n_nodes = 0;
    n_pivots = 0;
    n_passes = 0;
    n_augments = 0;
    tick = 0;
  }

let rescale ~ms ~int t =
  make
    ?deadline_ms:(Option.map ms t.allowance_ms)
    ?nodes:(Option.map int t.nodes)
    ?pivots:(Option.map int t.pivots)
    ?passes:(Option.map int t.passes)
    ?augments:(Option.map int t.augments)
    ()

let restart = rescale ~ms:Fun.id ~int:Fun.id

let halve =
  rescale ~ms:(fun ms -> max 1. (ms /. 2.)) ~int:(fun n -> max 1 (n / 2))

let remaining_ms t =
  match t.deadline with
  | None -> None
  | Some dl -> Some (max 0. ((dl -. Unix.gettimeofday ()) *. 1000.))

(* A slice is a fresh budget holding half of what the parent has left on
   every axis: refinement charges one iteration to a slice so a runaway
   subproblem can never drain the whole pool.  The parent learns what the
   slice actually spent through [absorb]. *)
let slice t =
  let part limit spent =
    Option.map
      (fun l ->
        max 1 (int_of_float (ceil (float_of_int (max 0 (l - spent)) *. 0.5))))
      limit
  in
  let deadline_ms =
    match remaining_ms t with
    | None -> None
    | Some ms -> Some (max 1. (ms *. 0.5))
  in
  make ?deadline_ms
    ?nodes:(part t.nodes t.n_nodes)
    ?pivots:(part t.pivots t.n_pivots)
    ?passes:(part t.passes t.n_passes)
    ?augments:(part t.augments t.n_augments)
    ()

let absorb t child =
  t.n_nodes <- t.n_nodes + child.n_nodes;
  t.n_pivots <- t.n_pivots + child.n_pivots;
  t.n_passes <- t.n_passes + child.n_passes;
  t.n_augments <- t.n_augments + child.n_augments

let spent_pivots t = t.n_pivots
let spent_nodes t = t.n_nodes

let is_limited t =
  t.deadline <> None || t.nodes <> None || t.pivots <> None
  || t.passes <> None || t.augments <> None

let deadline_ms t = t.allowance_ms

let m_exhausted = Mcs_obs.Metrics.counter "resilience.budget.exhausted"

let resource_to_string = function
  | Wall -> "wall"
  | Nodes -> "nodes"
  | Pivots -> "pivots"
  | Passes -> "passes"
  | Augments -> "augments"

(* Every exhaustion — organic or injected — leaves a journal event naming
   the tripped axis, so a later [Degraded]/[Exhausted] result is post-hoc
   explainable from the run report alone. *)
let exhausted_event ?(injected = false) e =
  Mcs_obs.Metrics.incr m_exhausted;
  if Mcs_obs.Events.on () then
    Mcs_obs.Events.emit ~cat:"budget" "exhausted"
      ~args:
        ([
           ("resource", Mcs_obs.Events.Str (resource_to_string e.resource));
           ("limit", Mcs_obs.Events.Int e.limit);
           ("spent", Mcs_obs.Events.Int e.spent);
         ]
        @ if injected then [ ("injected", Mcs_obs.Events.Bool true) ] else [])

let check_wall t =
  match t.deadline with
  | None -> ()
  | Some dl ->
      let now = Unix.gettimeofday () in
      if now > dl then begin
        let limit =
          match t.allowance_ms with Some ms -> int_of_float ms | None -> 0
        in
        let spent = limit + int_of_float ((now -. dl) *. 1000.) in
        let e = { resource = Wall; limit; spent } in
        exhausted_event e;
        raise (Out_of_budget e)
      end

(* The wall clock is consulted every [wall_stride] spends so the gettimeofday
   syscall stays off the solvers' hot paths. *)
let wall_stride = 32

let tick_wall t =
  if t.deadline <> None then begin
    t.tick <- t.tick + 1;
    if t.tick >= wall_stride then begin
      t.tick <- 0;
      check_wall t
    end
  end

let spend resource limit spent =
  if spent > limit then begin
    let e = { resource; limit; spent } in
    exhausted_event e;
    raise (Out_of_budget e)
  end

let spend_node t =
  t.n_nodes <- t.n_nodes + 1;
  (match t.nodes with Some l -> spend Nodes l t.n_nodes | None -> ());
  tick_wall t

let spend_pivot t =
  t.n_pivots <- t.n_pivots + 1;
  (match t.pivots with Some l -> spend Pivots l t.n_pivots | None -> ());
  tick_wall t

let spend_pass t =
  t.n_passes <- t.n_passes + 1;
  (match t.passes with Some l -> spend Passes l t.n_passes | None -> ());
  tick_wall t

let spend_augment t =
  t.n_augments <- t.n_augments + 1;
  (match t.augments with Some l -> spend Augments l t.n_augments | None -> ());
  tick_wall t

let exhausted resource =
  let e = { resource; limit = 0; spent = 0 } in
  exhausted_event ~injected:true e;
  e

let message e =
  let unit_ = match e.resource with Wall -> " ms" | _ -> "" in
  Printf.sprintf "%s budget exhausted (%d of %d%s)"
    (resource_to_string e.resource)
    e.spent e.limit unit_
