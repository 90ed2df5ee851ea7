open Mcs_cdfg

type t = {
  cdfg : Cdfg.t;
  mlib : Module_lib.t;
  rate : int;
  facts : Op_facts.t; (* shared by copies *)
  csteps : int array; (* -1 = unscheduled *)
  finish : int array;
}

let create ?facts cdfg mlib ~rate =
  if rate < 1 then invalid_arg "Schedule.create: rate must be >= 1";
  {
    cdfg;
    mlib;
    rate;
    facts =
      (match facts with Some f -> f | None -> Op_facts.make cdfg mlib);
    csteps = Array.make (Cdfg.n_ops cdfg) (-1);
    finish = Array.make (Cdfg.n_ops cdfg) 0;
  }

let copy t =
  { t with csteps = Array.copy t.csteps; finish = Array.copy t.finish }

let cdfg t = t.cdfg
let mlib t = t.mlib
let rate t = t.rate
let facts t = t.facts
let is_scheduled t op = t.csteps.(op) >= 0

let cstep t op =
  if not (is_scheduled t op) then invalid_arg "Schedule.cstep: unscheduled";
  t.csteps.(op)

let finish_ns t op =
  if not (is_scheduled t op) then invalid_arg "Schedule.finish_ns: unscheduled";
  t.finish.(op)

let group t op =
  let s = cstep t op in
  ((s mod t.rate) + t.rate) mod t.rate

let set t op ~cstep ~finish_ns =
  t.csteps.(op) <- cstep;
  t.finish.(op) <- finish_ns

let unset t op = t.csteps.(op) <- -1
let all_scheduled t = Array.for_all (fun s -> s >= 0) t.csteps
let cycles t op = t.facts.cycles.(op)
let delay t op = t.facts.delay.(op)

let pipe_length t =
  let worst = ref (-1) in
  Array.iteri
    (fun op s -> if s >= 0 then worst := max !worst (s + cycles t op - 1))
    t.csteps;
  !worst + 1

let value_available t op ~reader_cstep =
  is_scheduled t op && t.csteps.(op) + cycles t op <= reader_cstep

let chain_offset t op ~at_cstep =
  if value_available t op ~reader_cstep:at_cstep then 0
  else if t.csteps.(op) = at_cstep && cycles t op = 1 then t.finish.(op)
  else
    invalid_arg "Schedule.chain_offset: value not readable at this step"

(* Earliest start of [op] given its scheduled predecessors. *)
let min_start_with_chaining t op =
  let stage = Module_lib.stage_ns t.mlib in
  let dv = delay t op in
  let multi = cycles t op > 1 in
  let ps = List.filter (is_scheduled t) t.facts.preds.(op) in
  let cstep0 =
    List.fold_left
      (fun acc p ->
        let chainable =
          (not multi) && cycles t p = 1 && t.finish.(p) + dv <= stage
        in
        let need =
          if chainable then t.csteps.(p) else t.csteps.(p) + cycles t p
        in
        max acc need)
      0 ps
  in
  if multi then (cstep0, 0)
  else
    let offset =
      List.fold_left
        (fun acc p ->
          if
            t.csteps.(p) = cstep0
            && not (value_available t p ~reader_cstep:cstep0)
          then max acc t.finish.(p)
          else acc)
        0 ps
    in
    if offset + dv <= stage then (cstep0, offset)
    else (cstep0 + 1, 0)

let earliest_start t op = fst (min_start_with_chaining t op)

let verify t =
  let stage = Module_lib.stage_ns t.mlib in
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let check_op op k =
    if not (is_scheduled t op) then
      err "operation %s is unscheduled" (Cdfg.name t.cdfg op)
    else k ()
  in
  let rec check_edges = function
    | [] -> Ok ()
    | { Types.e_src; e_dst; degree } :: rest ->
        check_op e_src @@ fun () ->
        check_op e_dst @@ fun () ->
        let s_src = t.csteps.(e_src) and s_dst = t.csteps.(e_dst) in
        if degree = 0 then begin
          let registered = s_src + cycles t e_src <= s_dst in
          let chained =
            s_src = s_dst
            && cycles t e_src = 1
            && cycles t e_dst = 1
            && t.finish.(e_src) <= t.finish.(e_dst) - delay t e_dst
          in
          if not (registered || chained) then
            err "precedence violated: %s (cstep %d) -> %s (cstep %d)"
              (Cdfg.name t.cdfg e_src) s_src (Cdfg.name t.cdfg e_dst) s_dst
          else check_edges rest
        end
        else begin
          (* Maximum time constraint of §7.1. *)
          let bound = (degree * t.rate) - cycles t e_src in
          if s_src - s_dst > bound then
            err
              "recursive max-time violated: %s (cstep %d) vs %s (cstep %d), \
               bound %d"
              (Cdfg.name t.cdfg e_src) s_src (Cdfg.name t.cdfg e_dst) s_dst
              bound
          else check_edges rest
        end
  in
  let rec check_fit = function
    | [] -> check_edges (Cdfg.edges t.cdfg)
    | op :: rest ->
        check_op op @@ fun () ->
        if cycles t op = 1 && t.finish.(op) > stage then
          err "operation %s overflows its stage" (Cdfg.name t.cdfg op)
        else if cycles t op = 1 && t.finish.(op) < delay t op then
          err "operation %s has an impossible finish offset"
            (Cdfg.name t.cdfg op)
        else check_fit rest
  in
  check_fit (Cdfg.ops t.cdfg)

let pp ppf t =
  let by_step =
    Mcs_util.Listx.group_by
      (fun op -> t.csteps.(op))
      (List.filter (is_scheduled t) (Cdfg.ops t.cdfg))
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) by_step in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (s, l) ->
      Format.fprintf ppf "cstep %2d (group %d): %s@," s
        (((s mod t.rate) + t.rate) mod t.rate)
        (String.concat " " (List.map (Cdfg.name t.cdfg) l)))
    sorted;
  Format.fprintf ppf "@]"
