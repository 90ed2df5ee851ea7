module M = Mcs_obs.Metrics

(* A strike ledger: how many times a given job (by canonical key) has
   taken down its executor.  The supervisor records a strike when a
   worker domain dies or stalls on an entry, requeues the entry while it
   is below the limit, and quarantines it as poison at the limit;
   {!Pool.run} also records a strike when a job comes back crashed.
   Mutex-guarded: strikes are recorded from the main loop and from worker
   domains while other domains run. *)
module Strikes = struct
  type t = {
    lock : Mutex.t;
    counts : (string, int) Hashtbl.t;
    max_strikes : int;
  }

  let create ?(max_strikes = 2) () =
    { lock = Mutex.create (); counts = Hashtbl.create 16; max_strikes }

  let max_strikes t = t.max_strikes

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let count t key =
    with_lock t (fun () ->
        Option.value ~default:0 (Hashtbl.find_opt t.counts key))

  let poisoned t key = count t key >= t.max_strikes

  (* Record one strike; [`Poisoned n] once the key reaches the limit. *)
  let record t key =
    with_lock t (fun () ->
        let n =
          1 + Option.value ~default:0 (Hashtbl.find_opt t.counts key)
        in
        Hashtbl.replace t.counts key n;
        if n >= t.max_strikes then `Poisoned n else `Retry n)

  let forgive t key = with_lock t (fun () -> Hashtbl.remove t.counts key)
end

let c_tasks = M.counter "server.pool.tasks"
let c_crashes_injected = M.counter "server.pool.crashes_injected"
let c_respawns = M.counter "server.respawns"
let c_requeued = M.counter "server.requeued"
let c_poisoned = M.counter "server.poisoned"

exception Domain_killed
(* Raised inside a worker when the kill-domain fault fires: it escapes
   the worker loop, the spawn wrapper records the death, and the main
   loop's [check] observes a dead slot — the exact same path a genuinely
   fatal defect in a worker would take. *)

(* The daemon entry point applies this via OCAMLRUNPARAM before any
   domain is spawned, because on OCaml 5.1 [Gc.set] cannot grow the
   per-domain minor arenas after startup. *)
let recommended_minor_heap_words = 4 * 1024 * 1024

type 'a batch = {
  entries : 'a array;
  mutable cursor : int;
      (* next entry to run; entries below it are delivered *)
  mutable cancelled : bool;
      (* retired by requeue — a zombie still holding this batch must
         discard its in-flight result and stop *)
}

type 'a slot = {
  mutable gen : int;
      (* bumped per spawn; a domain carrying a stale generation is a
         superseded zombie and must discard its work *)
  mutable dom : unit Domain.t option;
  mutable busy : ('a batch * int) option;  (* batch, entry being run *)
  mutable heartbeat : float;
  mutable dead : bool;  (* exited abnormally; awaiting [check] *)
  mutable failures : int;  (* consecutive deaths, drives backoff *)
  mutable respawn_at : float;
}

type ('a, 'c) t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : 'a batch Queue.t;
  slots : 'a slot array;
  strikes : Strikes.t;
  key : 'a -> string;
  exec : 'a array -> int -> 'c;
  deliver : 'c -> unit;
  on_poisoned : 'a -> strikes:int -> unit;
  on_wake : unit -> unit;
  stall_s : float;
  backoff_s : float;
  mutable zombies : unit Domain.t list;
      (* superseded stuck domains: never joined — a domain wedged in a
         solver may never return, and joining it would wedge shutdown
         too.  Each zombie leaks one domain until process exit;
         {!zombie_count} keeps the leak observable. *)
  mutable stopping : bool;
  mutable crash_left : int;  (* crash-worker:N fault, guarded by [lock] *)
}

let size t = Array.length t.slots

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- worker side ---- *)

(* Run the batch the worker just took, one entry at a time, refreshing
   the heartbeat and re-checking freshness under the lock at every entry
   boundary.  The completion is delivered only when the claim was still
   fresh after execution, and the cursor is advanced in the same locked
   section — so a requeue (which takes entries from the cursor on) can
   never replay an entry whose completion was delivered, and a
   superseded zombie can never deliver a completion the requeue will
   also produce.  That pair of rules is the exactly-once invariant. *)
let run_batch t (slot : 'a slot) gen batch =
  let n = Array.length batch.entries in
  let rec step () =
    let claim =
      with_lock t (fun () ->
          if batch.cancelled || slot.gen <> gen || batch.cursor >= n then begin
            if slot.gen = gen then slot.busy <- None;
            None
          end
          else begin
            let i = batch.cursor in
            slot.busy <- Some (batch, i);
            slot.heartbeat <- Unix.gettimeofday ();
            Some i
          end)
    in
    match claim with
    | None -> ()
    | Some i ->
        if Mcs_resilience.Fault.kill_domain () then raise Domain_killed;
        let comp = t.exec batch.entries i in
        let fresh =
          with_lock t (fun () ->
              let fresh =
                (not batch.cancelled) && slot.gen = gen && batch.cursor = i
              in
              if fresh then batch.cursor <- i + 1;
              fresh)
        in
        if fresh then begin
          (* A completed entry clears the job's strikes: the circuit
             breaker is for jobs that *keep* killing their executor. *)
          Strikes.forgive t.strikes (t.key batch.entries.(i));
          t.deliver comp
        end;
        step ()
  in
  step ()

let rec worker_loop t slot gen =
  let batch =
    with_lock t (fun () ->
        while
          Queue.is_empty t.queue && (not t.stopping) && slot.gen = gen
        do
          Condition.wait t.nonempty t.lock
        done;
        if slot.gen <> gen || Queue.is_empty t.queue then None
        else begin
          let b = Queue.pop t.queue in
          slot.busy <- Some (b, b.cursor);
          slot.heartbeat <- Unix.gettimeofday ();
          Some b
        end)
  in
  match batch with
  | None -> () (* stopping and drained, or superseded *)
  | Some b ->
      run_batch t slot gen b;
      worker_loop t slot gen

let spawn_slot t slot =
  slot.gen <- slot.gen + 1;
  let gen = slot.gen in
  slot.busy <- None;
  slot.dead <- false;
  slot.heartbeat <- Unix.gettimeofday ();
  slot.dom <-
    Some
      (Domain.spawn (fun () ->
           try worker_loop t slot gen
           with _ ->
             (* Any escape — the kill-domain fault or a defect the
                caller's own wrapping missed — marks the slot dead for
                the supervisor.  The exception must not cross the join,
                and [dom] stays set so [check] can join the (already
                terminating) domain. *)
             Mutex.lock t.lock;
             if slot.gen = gen then slot.dead <- true;
             Mutex.unlock t.lock;
             t.on_wake ()))

(* ---- main-loop side ---- *)

let create ?(domains = 2) ?(stall_s = 30.0) ?(backoff_ms = 25.0) ?strikes
    ~key ~exec ~deliver ~on_poisoned ~on_wake () =
  let strikes =
    match strikes with Some s -> s | None -> Strikes.create ()
  in
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      slots =
        Array.init (max 0 domains) (fun _ ->
            {
              gen = 0;
              dom = None;
              busy = None;
              heartbeat = 0.0;
              dead = false;
              failures = 0;
              respawn_at = 0.0;
            });
      strikes;
      key;
      exec;
      deliver;
      on_poisoned;
      on_wake;
      stall_s;
      backoff_s = Float.max 0.001 (backoff_ms /. 1000.0);
      zombies = [];
      stopping = false;
      (* Sampled once at creation: the first N jobs crash (see
         {!take_crash}). *)
      crash_left = Mcs_resilience.Fault.crash_workers ();
    }
  in
  Array.iter (fun slot -> spawn_slot t slot) t.slots;
  t

let strikes t = t.strikes
let poisoned_key t k = Strikes.poisoned t.strikes k

let submit t entries =
  if Array.length entries = 0 then true
  else begin
    M.incr c_tasks;
    with_lock t (fun () ->
        let accepted = not t.stopping in
        if accepted then
          Queue.push { entries; cursor = 0; cancelled = false } t.queue;
        Condition.signal t.nonempty;
        accepted)
  end

let queued t = with_lock t (fun () -> Queue.length t.queue)
let zombie_count t = with_lock t (fun () -> List.length t.zombies)

let take_crash t =
  with_lock t (fun () ->
      let crash = t.crash_left > 0 in
      if crash then begin
        t.crash_left <- t.crash_left - 1;
        M.incr c_crashes_injected
      end;
      crash)

let backoff t failures =
  Float.min 2.0 (t.backoff_s *. float_of_int (1 lsl min 6 (failures - 1)))

(* Retire a dead or stuck slot's batch: strike the entry the worker was
   on, requeue everything from the cursor (minus the striker when it
   just went poison), and report poisoned entries so every admitted
   request still gets exactly one answer.  Called with the lock held. *)
let requeue_batch t (batch, _) poisoned_acc =
  if not batch.cancelled then begin
    batch.cancelled <- true;
    let n = Array.length batch.entries in
    let i = batch.cursor in
    if i < n then begin
      let verdict = Strikes.record t.strikes (t.key batch.entries.(i)) in
      let from =
        match verdict with
        | `Retry _ -> i
        | `Poisoned strikes ->
            M.incr c_poisoned;
            poisoned_acc := (batch.entries.(i), strikes) :: !poisoned_acc;
            i + 1
      in
      if from < n then begin
        let rest = Array.sub batch.entries from (n - from) in
        M.incr c_requeued ~n:(Array.length rest);
        Queue.push { entries = rest; cursor = 0; cancelled = false } t.queue;
        Condition.signal t.nonempty
      end
    end
  end

let check t ~now =
  let to_join = ref [] and poisoned_acc = ref [] in
  with_lock t (fun () ->
      Array.iter
        (fun slot ->
          if slot.dead then begin
            (match slot.dom with
            | Some d ->
                to_join := d :: !to_join;
                slot.dom <- None
            | None -> ());
            (match slot.busy with
            | Some b -> requeue_batch t b poisoned_acc
            | None -> ());
            slot.busy <- None;
            slot.dead <- false;
            slot.failures <- slot.failures + 1;
            slot.respawn_at <- now +. backoff t slot.failures
          end
          else
            match slot.busy with
            | Some b
              when t.stall_s > 0.0 && now -. slot.heartbeat > t.stall_s ->
                (* Stuck mid-entry: supersede the domain (generation
                   bump — its late completion will be discarded), park
                   it as a zombie, and requeue with a strike exactly as
                   if it had died. *)
                (match slot.dom with
                | Some d ->
                    t.zombies <- d :: t.zombies;
                    slot.dom <- None
                | None -> ());
                slot.gen <- slot.gen + 1;
                requeue_batch t b poisoned_acc;
                slot.busy <- None;
                slot.failures <- slot.failures + 1;
                slot.respawn_at <- now +. backoff t slot.failures
            | _ ->
                if
                  slot.dom = None && (not t.stopping)
                  && now >= slot.respawn_at
                then begin
                  M.incr c_respawns;
                  spawn_slot t slot
                end)
        t.slots);
  (* Joins and poisoned replies happen outside the supervisor lock: a
     dead domain's join is near-instant (its wrapper swallowed the
     exception and is returning), and the poisoned callback takes the
     server's completion lock. *)
  List.iter Domain.join !to_join;
  List.iter
    (fun (e, strikes) -> t.on_poisoned e ~strikes)
    (List.rev !poisoned_acc)

(* An entry that fails inline is answered as poisoned: there is no domain
   to sacrifice to a retry. *)
let help t =
  match with_lock t (fun () -> Queue.take_opt t.queue) with
  | None -> false
  | Some batch ->
      let n = Array.length batch.entries in
      while (not batch.cancelled) && batch.cursor < n do
        let i = batch.cursor in
        batch.cursor <- i + 1;
        match t.exec batch.entries i with
        | comp -> t.deliver comp
        | exception _ ->
            M.incr c_poisoned;
            t.on_poisoned batch.entries.(i)
              ~strikes:(Strikes.count t.strikes (t.key batch.entries.(i)))
      done;
      true

let shutdown t =
  let doms =
    with_lock t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.nonempty;
        Array.to_list t.slots
        |> List.filter_map (fun slot ->
               let d = slot.dom in
               slot.dom <- None;
               d))
  in
  List.iter Domain.join doms;
  (* With every live domain joined, a slot still holding a batch died
     (or stalled) without a [check] pass retiring it — requeue those
     batches now so the inline drain below answers them. *)
  let poisoned_acc = ref [] in
  with_lock t (fun () ->
      Array.iter
        (fun slot ->
          match slot.busy with
          | Some b ->
              requeue_batch t b poisoned_acc;
              slot.busy <- None
          | None -> ())
        t.slots);
  List.iter
    (fun (e, strikes) -> t.on_poisoned e ~strikes)
    (List.rev !poisoned_acc);
  (* Anything still queued (every live domain died right before
     shutdown, or respawns were pending) drains inline in the caller:
     graceful shutdown means finishing admitted work, not dropping it. *)
  while help t do
    ()
  done
