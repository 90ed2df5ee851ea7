module M = Mcs_obs.Metrics

let c_admitted = M.counter "server.admitted"
let c_rejected = M.counter "server.rejected"
let g_depth = M.gauge "server.queue_depth"
let g_inflight = M.gauge "server.inflight"

let latency_hist =
  M.histogram "server.latency_ms"
    ~buckets:[| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 5000; 10000 |]

(* A fixed ring of recently observed request latencies.  All calls come
   from the server's main loop (admission decisions and completion
   processing both happen there), so no lock is needed — this is
   documented, not accidental. *)
type t = {
  max_queue : int;
  window : float array;
  mutable filled : int;
  mutable next : int;
}

let window_size = 64

let make ?(max_queue = 256) () =
  {
    max_queue;
    window = Array.make window_size 0.0;
    filled = 0;
    next = 0;
  }

let max_queue t = t.max_queue

let observe ?(predict = true) t ~latency_ms =
  M.observe latency_hist (int_of_float (Float.max 0.0 latency_ms));
  if predict then begin
    t.window.(t.next) <- latency_ms;
    t.next <- (t.next + 1) mod window_size;
    if t.filled < window_size then t.filled <- t.filled + 1
  end

let median t =
  if t.filled = 0 then None
  else begin
    let xs = Array.sub t.window 0 t.filled in
    Array.sort Float.compare xs;
    Some xs.(t.filled / 2)
  end

(* The admission inequality: with [depth] requests already queued or
   running ahead of this one and a single-file view of the pool (the
   conservative bound — extra domains only help), the newcomer waits
   about [depth x median] before its own ~[median] of service.  If that
   already overshoots the request's deadline, failing fast is strictly
   better than burning a domain on work whose budget will expire
   mid-solve. *)
let decide t ~depth ~deadline_ms =
  let verdict =
    if depth >= t.max_queue then
      Error
        (Printf.sprintf "queue full (%d in flight, limit %d)" depth
           t.max_queue)
    else
      match (deadline_ms, median t) with
      | Some dl, Some med when float_of_int (depth + 1) *. med > dl ->
          Error
            (Printf.sprintf
               "predicted wait %.1f ms (depth %d x median %.1f ms) exceeds \
                deadline %.1f ms"
               (float_of_int (depth + 1) *. med)
               depth med dl)
      | _ -> Ok ()
  in
  (match verdict with
  | Ok () -> M.incr c_admitted
  | Error _ -> M.incr c_rejected);
  verdict

let set_depth depth = M.set g_depth (float_of_int depth)
let set_inflight n = M.set g_inflight (float_of_int n)
