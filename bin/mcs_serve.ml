(* mcs-serve: the synthesis daemon.

   Examples:
     mcs-serve --socket /tmp/mcs.sock --domains 4 --cache /tmp/mcs-cache
     mcs-serve --tcp-port 7632 --window-ms 10 --trace-out serve-trace.json
     mcs-serve --wal /tmp/mcs.wal --recover   # replay after a crash

   Clients speak the newline-delimited mcs-req/1 protocol; the easiest
   one is `mcs-synth client` (same grid options as `mcs-synth dse`). *)

module Server = Mcs_server.Server

(* Multi-domain serving needs a bigger per-domain minor heap than the
   runtime's 256k-word default, or stop-the-world minor collections eat
   the parallelism (see [Mcs_engine.Supervisor.recommended_minor_heap_words]).
   On OCaml 5.1 the minor arenas are reserved at startup — [Gc.set]
   cannot grow them once the process runs — so the only reliable lever
   is [OCAMLRUNPARAM=s=...]: re-exec ourselves once with it set.  An
   explicit [s=...] from the user always wins (no re-exec, their call);
   the loop terminates because after the re-exec the variable carries
   [s=] and the guard no longer fires. *)
let ensure_minor_heap domains =
  let want = Mcs_engine.Supervisor.recommended_minor_heap_words in
  let runparam = Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM") in
  let has_s =
    List.exists
      (fun piece ->
        String.length piece >= 2 && piece.[0] = 's' && piece.[1] = '=')
      (String.split_on_char ',' runparam)
  in
  if domains > 1 && (not has_s) && (Gc.get ()).Gc.minor_heap_size < want then begin
    let prefix = Printf.sprintf "s=%d" want in
    Unix.putenv "OCAMLRUNPARAM"
      (if runparam = "" then prefix else prefix ^ "," ^ runparam);
    try Unix.execv Sys.executable_name Sys.argv
    with Unix.Unix_error _ -> () (* keep serving, just slower *)
  end

let serve socket tcp_port domains cache window_ms max_queue wal recover
    read_deadline_s idle_timeout_s max_frame stall_s trace_out log_level =
  ensure_minor_heap domains;
  (match Option.bind log_level Mcs_obs.Log.level_of_string with
  | Some lvl -> Mcs_obs.Log.set_level lvl
  | None -> ());
  if trace_out <> None then begin
    Mcs_obs.Events.clear ();
    Mcs_prof.Chrome_trace.start ()
  end;
  if recover && wal = None then begin
    Format.eprintf "mcs-serve: --recover needs --wal PATH@.";
    exit 2
  end;
  let config =
    {
      Server.socket_path = socket;
      tcp_port;
      domains;
      cache_dir = cache;
      window_ms;
      max_queue;
      wal_path = wal;
      recover;
      read_deadline_s;
      idle_timeout_s;
      max_frame;
      stall_s;
    }
  in
  match Server.create ~config () with
  | exception Unix.Unix_error (e, _, arg) ->
      Format.eprintf "mcs-serve: cannot listen on %s: %s (%s)@." socket
        (Unix.error_message e) arg;
      2
  | t ->
      let graceful = Sys.Signal_handle (fun _ -> Server.request_shutdown t) in
      Sys.set_signal Sys.sigterm graceful;
      Sys.set_signal Sys.sigint graceful;
      Format.printf "mcs-serve: listening on %s%s with %d domain%s@." socket
        (match tcp_port with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        (max 1 domains)
        (if max 1 domains = 1 then "" else "s");
      Format.print_flush ();
      Server.serve t;
      (match trace_out with
      | None -> 0
      | Some path -> (
          match Mcs_prof.Chrome_trace.write path with
          | Ok () ->
              Format.printf "mcs-serve: wrote %s@." path;
              0
          | Error m ->
              Format.eprintf "mcs-serve: cannot write %s: %s@." path m;
              3))

open Cmdliner

let socket =
  Arg.(value & opt string Server.default_config.Server.socket_path
       & info [ "socket"; "s" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (unlinked on exit).")

let tcp_port =
  Arg.(value & opt (some int) None & info [ "tcp-port" ] ~docv:"PORT"
         ~doc:"Also listen on 127.0.0.1:$(docv).")

let domains =
  Arg.(value & opt int Server.default_config.Server.domains
       & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains executing jobs in-process.")

let cache =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Shared persistent result cache (created if missing); \
               repeated jobs across all clients are served from it.")

let window_ms =
  Arg.(value & opt float Server.default_config.Server.window_ms
       & info [ "window-ms" ] ~docv:"MS"
           ~doc:"Batching window: while every worker domain is busy, \
                 how long a fresh job waits for same-design company \
                 before dispatch.  An idle domain takes a job at once, \
                 and a settled cache hit is answered at admission.")

let max_queue =
  Arg.(value & opt int Server.default_config.Server.max_queue
       & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission limit on jobs in flight; beyond it requests \
                 are rejected with a typed diagnostic.")

let wal =
  Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"FILE"
         ~doc:"Durable request journal (mcs-wal/1): every admitted \
               request is fsync'd to $(docv) before dispatch and marked \
               on reply, so a daemon crash loses zero accepted requests.")

let recover =
  Arg.(value & flag & info [ "recover" ]
         ~doc:"Replay admitted-but-unanswered records from the --wal \
               journal through the normal queue at startup (already \
               settled points answer from the warm cache).")

let read_deadline_s =
  Arg.(value & opt float Server.default_config.Server.read_deadline_s
       & info [ "read-deadline-s" ] ~docv:"S"
           ~doc:"Reap a connection whose partial request line is older \
                 than $(docv) seconds (slowloris guard); 0 disables.")

let idle_timeout_s =
  Arg.(value & opt float Server.default_config.Server.idle_timeout_s
       & info [ "idle-timeout-s" ] ~docv:"S"
           ~doc:"Reap a connection idle for $(docv) seconds with no \
                 request in flight; 0 disables.")

let max_frame =
  Arg.(value & opt int Server.default_config.Server.max_frame
       & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Request-line size bound; an oversized frame is answered \
                 with a typed diagnostic and the connection closed.")

let stall_s =
  Arg.(value & opt float Server.default_config.Server.stall_s
       & info [ "stall-s" ] ~docv:"S"
           ~doc:"Declare a worker domain stuck when its heartbeat is \
                 older than $(docv) seconds: the domain is replaced and \
                 its batch requeued; 0 disables.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record a Chrome trace of the daemon's whole life (request \
               spans and solver events, one lane per worker domain) and \
               write it to $(docv) on graceful shutdown.")

let log_level =
  Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LVL"
         ~doc:"Diagnostic verbosity: debug, info, warn (default), error \
               or quiet.")

let cmd =
  Cmd.v
    (Cmd.info "mcs-serve" ~doc:"synthesis-as-a-service daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Long-lived synthesis server: accepts newline-delimited \
              mcs-req/1 job submissions over a Unix-domain socket (and \
              optionally loopback TCP), runs them on a supervised pool \
              of OCaml 5 worker domains with a shared warm cache, \
              per-request deadline budgets, admission control and \
              request coalescing/batching, and streams mcs-run/1 \
              replies back.  Worker domains are heartbeat-monitored: a \
              dead or stuck domain is respawned and its work requeued, \
              and a job that keeps killing domains is quarantined with \
              a typed poisoned diagnostic.  With --wal the daemon \
              journals every admitted request durably and --recover \
              replays unanswered ones after a crash.  A shutdown \
              request (or SIGTERM) drains in-flight work before exit.";
         ])
    Term.(
      const serve $ socket $ tcp_port $ domains $ cache $ window_ms
      $ max_queue $ wal $ recover $ read_deadline_s $ idle_timeout_s
      $ max_frame $ stall_s $ trace_out $ log_level)

let () = exit (Cmd.eval' cmd)
