open Mcs_cdfg
module H = Mcs_connect.Heuristic
module R = Mcs_connect.Reassign
module LS = Mcs_sched.List_sched

(* Deterministic perturbation for trial [t]: small priority jitter, enough
   to reorder ties and near-ties without drowning the critical path. *)
let bias_for ~trial ~n =
  Array.init n (fun op ->
      if trial = 0 then 0
      else (Hashtbl.hash (trial, op) mod (2 * trial)) - trial)

(* Postponement floors for even trials: hold back non-critical I/O
   operations a little, freeing early slots for the critical chains (the
   paper's manual postponement). *)
let floors_for cdfg mlib ~trial ~rate =
  let n = Cdfg.n_ops cdfg in
  if trial mod 2 = 1 then Array.make n 0
  else begin
    let prio = LS.priorities cdfg mlib in
    let cutoff =
      let sorted = List.sort compare (Array.to_list prio) in
      List.nth sorted (n / 2)
    in
    Array.init n (fun op ->
        if Cdfg.is_io cdfg op && prio.(op) <= cutoff then
          (trial / 2) mod (rate + 1)
        else 0)
  end

let pre_connect cdfg mlib cons ~rate ~mode ?(trials = 12) () =
  let n = Cdfg.n_ops cdfg in
  let first_err = ref "" in
  let best = ref None in
  let consider schedule =
    let len = Mcs_sched.Schedule.pipe_length schedule in
    match !best with
    | Some (l, _) when l <= len -> ()
    | _ -> best := Some (len, schedule)
  in
  let try_cap slot_cap =
    match H.search cdfg cons ~rate ~mode ~slot_cap () with
    | Error e -> if !first_err = "" then first_err := H.error_message e
    | Ok res ->
        List.iter
          (fun trial ->
            let dyn =
              R.create cdfg res.H.conn ~rate ~initial:res.H.assign
                ~dynamic:true
            in
            match
              LS.run cdfg mlib cons ~rate ~io_hook:(R.hook dyn)
                ~priority_bias:(bias_for ~trial ~n)
                ~min_cstep:(floors_for cdfg mlib ~trial ~rate)
                ()
            with
            | Error f ->
                if !first_err = "" then first_err := f.LS.reason
            | Ok schedule -> consider schedule)
          (Mcs_util.Listx.range 0 trials)
  in
  let rec caps c = if c < 1 then () else begin
    (* Stop lowering once something schedules: lower caps only add pins. *)
    try_cap c;
    if !best = None then caps (c - 1)
  end
  in
  caps rate;
  match !best with
  | Some (_, schedule) -> Ok schedule
  | None ->
      Error
        (Printf.sprintf "no perturbation found a schedule (first: %s)"
           !first_err)
