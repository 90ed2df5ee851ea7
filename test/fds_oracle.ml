(* Reference for [Fds.frames]: the pass-based propagation the worklist
   replaced.  Every pass re-runs the chaining-aware earliest-start pass
   forward and backward over the whole graph from the current bounds,
   then applies every recursive-edge max-time constraint, until nothing
   changes (at most [4 n] passes). *)

open Mcs_cdfg

let clamped_earliest cdfg mlib ~order ~preds ~lb =
  let stage = Module_lib.stage_ns mlib in
  let n = Cdfg.n_ops cdfg in
  let cstep = Array.make n 0 in
  let finish = Array.make n 0 in
  let delay = Timing.op_delay_ns cdfg mlib in
  let cycles = Timing.op_cycles cdfg mlib in
  let place v =
    let dv = delay v in
    let multi = cycles v > 1 in
    let ps = preds v in
    let c0 =
      List.fold_left
        (fun acc p ->
          let chainable =
            (not multi) && cycles p = 1 && finish.(p) + dv <= stage
          in
          let need = if chainable then cstep.(p) else cstep.(p) + cycles p in
          max acc need)
        lb.(v) ps
    in
    if multi then begin
      cstep.(v) <- c0;
      finish.(v) <- 0
    end
    else begin
      let offset =
        List.fold_left
          (fun acc p ->
            if cstep.(p) = c0 && cstep.(p) + cycles p > c0 then
              max acc finish.(p)
            else acc)
          0 ps
      in
      if offset + dv <= stage then begin
        cstep.(v) <- c0;
        finish.(v) <- offset + dv
      end
      else begin
        cstep.(v) <- c0 + 1;
        finish.(v) <- dv
      end
    end
  in
  List.iter place order;
  cstep

let frames cdfg mlib ~rate ~pipe_length ~fixed =
  let n = Cdfg.n_ops cdfg in
  let cycles = Timing.op_cycles cdfg mlib in
  let lb = Array.make n 0 in
  let ub = Array.init n (fun v -> pipe_length - cycles v) in
  Array.iteri
    (fun v f ->
      match f with
      | None -> ()
      | Some s ->
          lb.(v) <- max lb.(v) s;
          ub.(v) <- min ub.(v) s)
    fixed;
  let constraints = Timing.max_time_constraints cdfg mlib ~rate in
  let feasible = ref true in
  let changed = ref true in
  let iters = ref 0 in
  while !feasible && !changed && !iters < 4 * n do
    changed := false;
    incr iters;
    let e =
      clamped_earliest cdfg mlib ~order:(Cdfg.topo_order cdfg)
        ~preds:(Cdfg.preds cdfg) ~lb
    in
    Array.iteri
      (fun v s ->
        if s > lb.(v) then begin
          lb.(v) <- s;
          changed := true
        end)
      e;
    let lb_rev = Array.init n (fun v -> pipe_length - ub.(v) - cycles v) in
    let r =
      clamped_earliest cdfg mlib
        ~order:(List.rev (Cdfg.topo_order cdfg))
        ~preds:(Cdfg.succs cdfg) ~lb:lb_rev
    in
    Array.iteri
      (fun v rs ->
        let latest = pipe_length - rs - cycles v in
        if latest < ub.(v) then begin
          ub.(v) <- latest;
          changed := true
        end)
      r;
    List.iter
      (fun (src, dst, bound) ->
        if ub.(dst) + bound < ub.(src) then begin
          ub.(src) <- ub.(dst) + bound;
          changed := true
        end;
        if lb.(src) - bound > lb.(dst) then begin
          lb.(dst) <- lb.(src) - bound;
          changed := true
        end)
      constraints;
    for v = 0 to n - 1 do
      if lb.(v) > ub.(v) then feasible := false
    done
  done;
  if (not !feasible) || !changed then None else Some (lb, ub)
