module M = Mcs_obs.Metrics

let m_hits = M.counter "ilp.warm.hits"
let m_misses = M.counter "ilp.warm.misses"

let lock = Mutex.create ()
let tbl : (string, string list) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let put key names = with_lock (fun () -> Hashtbl.replace tbl key names)

let get key =
  with_lock (fun () ->
      match Hashtbl.find_opt tbl key with
      | Some names ->
          M.incr m_hits;
          Some names
      | None ->
          M.incr m_misses;
          None)

let clear () = with_lock (fun () -> Hashtbl.reset tbl)
