let code_version = "mcs-engine/4"

let hits = Mcs_obs.Metrics.counter "engine.cache.hits"
let misses = Mcs_obs.Metrics.counter "engine.cache.misses"
let stale = Mcs_obs.Metrics.counter "engine.cache.stale"
let quarantined = Mcs_obs.Metrics.counter "engine.cache.quarantined"

let event name job =
  if Mcs_obs.Events.on () then
    Mcs_obs.Events.emit ~cat:"cache" name
      ~args:[ ("job", Mcs_obs.Events.Str (Job.to_string job)) ]

type t = { dir : string; version : string }

(* Concurrent domains in one process (the server's worker pool) share a
   cache handle.  Renames are atomic at the filesystem level, but the
   lookup path is read-then-quarantine: unsynchronised, a domain that
   just stored a fresh entry could have it yanked to [.bad] by a sibling
   that read the file mid-decision.  Sharding by entry hash keeps the
   fix cheap — same key serialises, different keys (almost always
   different buckets) proceed in parallel.  The bucket count is static
   because cache handles are plain values freely copied across domains;
   a per-handle lock table would silently stop being shared. *)
let bucket_count = 16
let buckets = Array.init bucket_count (fun _ -> Mutex.create ())

let with_bucket path f =
  let m = buckets.(Hashtbl.hash path mod bucket_count) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Temp names must be unique per writer: pid alone collides when several
   domains of one process store into the same bucket concurrently. *)
let tmp_seq = Atomic.make 0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ?(version = code_version) dir =
  (try mkdir_p dir
   with Unix.Unix_error (e, _, _) ->
     raise (Sys_error
              (Printf.sprintf "cannot create cache directory %s: %s" dir
                 (Unix.error_message e))));
  { dir; version }

let dir t = t.dir
let version t = t.version

let key t job = t.version ^ "\n" ^ Job.to_string job

let entry_path t job =
  Filename.concat t.dir (Digest.to_hex (Digest.string (key t job)) ^ ".mcs")

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

(* Entry layout: version line, canonical job line, outcome JSON line. *)
let lookup t job =
  let path = entry_path t job in
  with_bucket path @@ fun () ->
  match read_file path with
  | None ->
      Mcs_obs.Metrics.incr misses;
      event "miss" job;
      None
  | Some body -> (
      let fresh =
        match String.split_on_char '\n' body with
        | [ v; j; o ] | [ v; j; o; "" ]
          when v = t.version && j = Job.to_string job -> (
            match Outcome.of_string o with
            | Ok outcome when Job.equal outcome.Outcome.job job -> Some outcome
            | Ok _ | Error _ -> None)
        | _ -> None
      in
      match fresh with
      | Some outcome ->
          Mcs_obs.Metrics.incr hits;
          event "hit" job;
          Some outcome
      | None ->
          (* Corrupt or stale: move the entry aside instead of re-reading
             (and re-rejecting) it on every lookup.  The quarantined file
             keeps the evidence for a post-mortem. *)
          Mcs_obs.Metrics.incr stale;
          event "stale" job;
          (try
             Sys.rename path (path ^ ".bad");
             Mcs_obs.Metrics.incr quarantined
           with Sys_error _ | Unix.Unix_error _ -> ());
          None)

let store t job (o : Outcome.t) =
  match o.Outcome.status with
  | Outcome.Crashed _ | Outcome.Timed_out -> ()
  | Outcome.Feasible | Outcome.Infeasible _ -> (
      let path = entry_path t job in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
          (Domain.self () :> int)
          (Atomic.fetch_and_add tmp_seq 1)
      in
      with_bucket path @@ fun () ->
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (key t job);
            output_char oc '\n';
            if Mcs_resilience.Fault.corrupt_cache () then
              output_string oc "\x00corrupt\x00"
            else output_string oc (Outcome.to_string o);
            output_char oc '\n');
        Sys.rename tmp path
      with Sys_error _ | Unix.Unix_error _ ->
        (* A failed store must not leave a half-written temp file around
           (and must not take the sweep down with it). *)
        (try Sys.remove tmp with Sys_error _ -> ()))
