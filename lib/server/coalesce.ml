module Job = Mcs_engine.Job
module M = Mcs_obs.Metrics

let c_coalesced = M.counter "server.coalesced"
let c_batches = M.counter "server.batches"

type waiter = {
  conn : int;
  req_id : string;
  enqueued_at : float;
  deadline : float option; (* absolute, seconds on the gettimeofday clock *)
  fallback : bool;
  attached : bool;
}

type entry = {
  job : Job.t;
  key : string;
  mutable waiters : waiter list; (* reverse arrival order *)
  mutable dispatched : bool;
}

type t = {
  window_ms : float;
  inflight : (string, entry) Hashtbl.t;
  mutable window : entry list; (* reverse arrival order, not yet dispatched *)
  mutable opened : float option;
}

let make ?(window_ms = 5.0) () =
  { window_ms; inflight = Hashtbl.create 64; window = []; opened = None }

let pending t = Hashtbl.length t.inflight
let inflight t job = Hashtbl.mem t.inflight (Job.to_string job)

let submit t ~now job waiter =
  let key = Job.to_string job in
  match Hashtbl.find_opt t.inflight key with
  | Some entry ->
      (* Identical in-flight job: this request shares the computation
         whether the job is still in the window or already running. *)
      entry.waiters <- { waiter with attached = true } :: entry.waiters;
      M.incr c_coalesced;
      `Coalesced
  | None ->
      let entry = { job; key; waiters = [ waiter ]; dispatched = false } in
      Hashtbl.add t.inflight key entry;
      t.window <- entry :: t.window;
      if t.opened = None then t.opened <- Some now;
      `New

(* Seconds until the open window is due to flush; [None] when nothing is
   waiting.  The server folds this into its select timeout (and forces
   the flush itself whenever a worker domain is idle). *)
let due t ~now =
  match t.opened with
  | None -> None
  | Some at -> Some (Float.max 0.0 ((at +. (t.window_ms /. 1000.0)) -. now))

(* Same-design same-flow entries that arrived within one window merge
   into one batch — one grid job for a worker domain, so a client
   sweeping rates over a design pays one dispatch.  Entries keep arrival
   order within and across batches. *)
let flush t ~now ~force =
  let expired =
    match t.opened with
    | None -> false
    | Some at -> force || now -. at >= t.window_ms /. 1000.0
  in
  if not expired then []
  else begin
    let entries = List.rev t.window in
    t.window <- [];
    t.opened <- None;
    List.iter (fun e -> e.dispatched <- true) entries;
    let batches = ref [] in
    List.iter
      (fun e ->
        let group =
          (Job.design_to_string e.job.Job.design, e.job.Job.flow)
        in
        match List.assoc_opt group !batches with
        | Some cell -> cell := e :: !cell
        | None -> batches := !batches @ [ (group, ref [ e ]) ])
      entries;
    let out = List.map (fun (_, cell) -> List.rev !cell) !batches in
    M.incr c_batches ~n:(List.length out);
    out
  end

let complete t entry = Hashtbl.remove t.inflight entry.key

(* The budget a batch entry runs under: unlimited if any waiter asked
   for no deadline, else the most patient waiter's.  Fallback engages if
   any waiter asked for it — a shared computation degrades rather than
   erroring out under the strictest participant's preference. *)
let entry_deadline entry =
  List.fold_left
    (fun acc w ->
      match (acc, w.deadline) with
      | None, _ | _, None -> None
      | Some a, Some b -> Some (Float.max a b))
    (Some neg_infinity) entry.waiters

let entry_fallback entry = List.exists (fun w -> w.fallback) entry.waiters
