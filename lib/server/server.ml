module J = Mcs_obs.Report_json
module M = Mcs_obs.Metrics
module Job = Mcs_engine.Job
module Outcome = Mcs_engine.Outcome
module Cache = Mcs_engine.Cache
module Pool = Mcs_engine.Pool
module Supervisor = Mcs_engine.Supervisor
module F = Mcs_flow.Flow
module P = Protocol

let c_requests = M.counter "server.requests"
let c_served = M.counter "server.served"
let c_protocol_errors = M.counter "server.protocol_errors"
let c_oversized = M.counter "server.oversized"
let c_reaped = M.counter "server.reaped"
let c_backpressure_drops = M.counter "server.backpressure_drops"
let c_wal_recovered = M.counter "server.wal.recovered"
let c_wal_torn = M.counter "server.wal.torn"

type config = {
  socket_path : string;
  tcp_port : int option;
  domains : int;
  cache_dir : string option;
  window_ms : float;
  max_queue : int;
  wal_path : string option;
  recover : bool;
  read_deadline_s : float;
  idle_timeout_s : float;
  max_frame : int;
  stall_s : float;
}

let default_config =
  {
    socket_path = "/tmp/mcs-serve.sock";
    tcp_port = None;
    domains = 2;
    cache_dir = None;
    window_ms = 5.0;
    max_queue = 256;
    wal_path = None;
    recover = false;
    read_deadline_s = 10.0;
    idle_timeout_s = 60.0;
    max_frame = 1 lsl 20;
    stall_s = 30.0;
  }

type conn = {
  fd : Unix.file_descr;
  conn_id : int;
  rbuf : Buffer.t;
  mutable wbuf : string;  (* buffered unwritten output *)
  mutable woff : int;  (* prefix of [wbuf] already written *)
  mutable last_read : float;
  mutable line_started : float option;
      (* when the current partial line began accumulating — the
         slowloris read deadline measures from here *)
  mutable outstanding : int;  (* admitted, not yet replied *)
  mutable stalled : bool;
      (* stall-conn fault: treated as never readable, so the idle
         reaper is what must eventually collect it *)
  mutable closing : bool;  (* close once [wbuf] drains *)
}

(* What a worker domain hands back to the main loop, via the done list
   and the wake pipe. *)
type completion = {
  entry : Coalesce.entry;
  outcome : Outcome.t option;
  diag : P.diag option;
}

type t = {
  cfg : config;
  listeners : Unix.file_descr list;
  sup : (Coalesce.entry, completion) Supervisor.t;
  adm : Admission.t;
  coal : Coalesce.t;
  cache : Cache.t option;
  wal : Wal.t option;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable next_anon : int;
  done_lock : Mutex.t;
  mutable done_list : completion list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable running_jobs : int; (* dispatched to a domain, not yet replied *)
  hold : bool; (* hold-dispatch fault: only a shutdown dispatches *)
  mutable shutting_down : bool;
  mutable shutdown_conns : int list; (* conns owed a Bye *)
  mutable drained : int; (* jobs finished after shutdown was requested *)
  started : float;
  mutable running : bool;
}

let event name args =
  if Mcs_obs.Events.on () then Mcs_obs.Events.emit ~cat:"serve" name ~args

(* A crashed daemon leaves its socket file behind; a live one answers a
   connect on it.  Probe before binding: only unlink a socket nobody
   accepts on, and refuse to clobber a live daemon (or a path that is
   not a socket at all) instead of silently stealing it. *)
let listen_unix path =
  (match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          ->
            false
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
      else (
        Mcs_obs.Log.info "removing stale socket %s" path;
        try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path)));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* ---- worker-domain side ---- *)

let crashed_outcome job msg =
  {
    Outcome.job;
    status = Outcome.Crashed msg;
    pins = [];
    pipe_length = 0;
    fu_count = 0;
    check = None;
    degraded = [];
    solver = None;
    refine = None;
  }

(* Never raises: a full pipe just means the loop is already due to wake,
   and a closed one (a straggler poking after [finish]) is moot. *)
let wake_fd wake_w =
  try ignore (Unix.write wake_w (Bytes.of_string "!") 0 1)
  with Unix.Unix_error _ -> ()

let wake t = wake_fd t.wake_w

(* Milliseconds left at [now] before an absolute [deadline]. *)
let remaining_ms deadline ~now =
  Option.map (fun d -> (d -. now) *. 1000.0) deadline

(* The typed answer to a request whose deadline ([ms] remaining, not
   positive) passed before it could be answered — the same [Exhausted]
   diagnostic a solver's own exhaustion would produce. *)
let deadline_diag ms =
  P.exhausted_diag ~phase:"serve.deadline"
    (Printf.sprintf "deadline expired %.1f ms before execution" (-.ms))

(* One entry of a batch, on a worker domain.  The per-request deadline
   becomes the flow's whole-solver budget; a deadline found already
   expired is answered with {!deadline_diag}, without burning the
   domain.  The entry was a cache miss at admission (the one lookup
   site), so it executes and stores its outcome. *)
let run_entry t (e : Coalesce.entry) =
  let job = e.Coalesce.job in
  Mcs_obs.Log.with_field "job" (Job.hash job) @@ fun () ->
  Mcs_obs.Trace.with_span ~attrs:[ ("job", Job.hash job) ] "serve.exec"
  @@ fun () ->
  let remaining_ms =
    remaining_ms (Coalesce.entry_deadline e) ~now:(Unix.gettimeofday ())
  in
  match remaining_ms with
  | Some ms when ms <= 0.0 ->
      { entry = e; outcome = None; diag = Some (deadline_diag ms) }
  | _ ->
      if Supervisor.take_crash t.sup then
        {
          entry = e;
          diag = None;
          outcome =
            Some
              (crashed_outcome job "injected worker crash (crash-worker fault)");
        }
      else begin
        let fallback = Coalesce.entry_fallback e in
        let policy =
          match remaining_ms with
          | Some ms ->
              Some
                {
                  F.default_policy with
                  F.budget = Mcs_resilience.Budget.make ~deadline_ms:ms ();
                  F.fallback = fallback;
                }
          | None ->
              if fallback then None
              else Some { F.default_policy with F.fallback = false }
        in
        let outcome, dg = Pool.exec_diag ?policy job in
        (match t.cache with
        | Some c -> Cache.store c job outcome
        | None -> ());
        { entry = e; outcome = Some outcome; diag = Option.map P.diag_of_flow dg }
      end

(* One batch entry under the supervisor's exactly-once protocol.  No
   solver state passes between entries: each one's outcome is its
   stand-alone run, whatever ran before it or beside it. *)
let exec_entry t (entries : Coalesce.entry array) i =
  let e = entries.(i) in
  try run_entry t e
  with exn ->
    {
      entry = e;
      outcome = Some (crashed_outcome e.Coalesce.job (Printexc.to_string exn));
      diag = None;
    }

let push_completion t comp =
  Mutex.lock t.done_lock;
  t.done_list <- comp :: t.done_list;
  Mutex.unlock t.done_lock;
  wake t

let poisoned_completion (e : Coalesce.entry) ~strikes =
  {
    entry = e;
    outcome = None;
    diag =
      Some
        (P.poisoned_diag ~phase:"serve.supervisor"
           (Printf.sprintf
              "job killed its worker domain %d times and was quarantined"
              strikes));
  }

(* The one cache-lookup site, on the event loop: a job with nothing
   identical in flight is answered from the shared cache when its
   outcome is settled, at admission or at journal replay.  An in-flight
   duplicate coalesces without a lookup, and a miss goes on to execute
   without another, so each key is looked up once per computation it
   could start.  A hit runs under the [serve.exec] span a domain's
   execution would, so every non-coalesced request owns exactly one
   such span; a miss must not open one (its execution will), hence the
   probe for an absent entry first. *)
let settled t job =
  match t.cache with
  | Some c when not (Coalesce.inflight t.coal job) ->
      if Sys.file_exists (Cache.entry_path c job) then
        Mcs_obs.Trace.with_span ~attrs:[ ("job", Job.hash job) ] "serve.exec"
        @@ fun () -> Cache.lookup c job
      else Cache.lookup c job
  | _ -> None

let create ?(config = default_config) () =
  (* A client that disconnects mid-reply must cost the daemon an EPIPE,
     not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listeners =
    listen_unix config.socket_path
    :: (match config.tcp_port with
       | Some p -> [ listen_tcp p ]
       | None -> [])
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  (* Recovery happens before the journal reopens for appending: replay,
     keep what was admitted but never answered, and compact the file to
     exactly that remainder so the next crash does not re-replay work
     this run already finishes. *)
  let recovered =
    match config.wal_path with
    | Some path when config.recover ->
        let records, torn = Wal.replay path in
        if torn > 0 then begin
          M.incr c_wal_torn ~n:torn;
          Mcs_obs.Log.warn "wal: dropped %d torn record(s)" torn
        end;
        let inc = Wal.incomplete records in
        Wal.compact path inc;
        inc
    | _ -> []
  in
  let wal = Option.map Wal.open_ config.wal_path in
  (* The supervisor's callbacks need the server value and the server
     value holds the supervisor: tie the knot through a forward
     reference.  Worker domains only run callbacks after a batch is
     submitted, which is after [t] is built, so the dereference is
     always [Some]. *)
  let tref = ref None in
  let the_t () =
    match !tref with Some t -> t | None -> assert false
  in
  let sup =
    Supervisor.create ~domains:(max 1 config.domains) ~stall_s:config.stall_s
      ~key:(fun (e : Coalesce.entry) -> e.Coalesce.key)
      ~exec:(fun entries i -> exec_entry (the_t ()) entries i)
      ~deliver:(fun comp -> push_completion (the_t ()) comp)
      ~on_poisoned:(fun e ~strikes ->
        event "poisoned"
          [ ("job", Mcs_obs.Events.Str (Job.hash e.Coalesce.job)) ];
        push_completion (the_t ()) (poisoned_completion e ~strikes))
      ~on_wake:(fun () -> wake_fd wake_w)
      ()
  in
  let t =
    {
      cfg = config;
      listeners;
      sup;
      adm = Admission.make ~max_queue:config.max_queue ();
      coal = Coalesce.make ~window_ms:config.window_ms ();
      cache = Option.map Cache.open_dir config.cache_dir;
      wal;
      conns = Hashtbl.create 16;
      next_conn = 0;
      next_anon = 0;
      done_lock = Mutex.create ();
      done_list = [];
      wake_r;
      wake_w;
      running_jobs = 0;
      hold = Mcs_resilience.Fault.hold_dispatch ();
      shutting_down = false;
      shutdown_conns = [];
      drained = 0;
      started = Unix.gettimeofday ();
      running = true;
    }
  in
  tref := Some t;
  (* Replayed requests re-enter through the admission path with a
     connection id no client owns, answering nothing: one already
     settled in the cache is marked done at once, the rest go through
     the normal coalescing queue and settle into the warm cache (and
     their done marks into the journal) — zero accepted requests lost,
     zero replies duplicated. *)
  List.iter
    (fun r ->
      match r with
      | Wal.Admit { id; job; deadline_ms = _; fallback } -> (
          M.incr c_wal_recovered;
          match settled t job with
          | Some _ ->
              M.incr c_served;
              Option.iter
                (fun w -> Wal.append ~sync:false w (Wal.Done { id }))
                t.wal
          | None ->
              let now = Unix.gettimeofday () in
              let waiter =
                {
                  Coalesce.conn = -1;
                  req_id = id;
                  enqueued_at = now;
                  deadline = None;
                  fallback;
                  attached = false;
                }
              in
              ignore (Coalesce.submit t.coal ~now job waiter))
      | Wal.Done _ -> ())
    recovered;
  if recovered <> [] then
    Mcs_obs.Log.info "wal: recovered %d incomplete request(s)"
      (List.length recovered);
  t

(* ---- main-loop side ---- *)

(* Blocking write with EINTR retry — only used by [finish], after the
   loop is over, to flush farewells. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let drop_conn t (c : conn) =
  Hashtbl.remove t.conns c.conn_id;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Drain as much of the write buffer as the socket accepts right now;
   never blocks (the fd is nonblocking), EAGAIN just leaves the rest for
   the next select round's writable set. *)
let flush_conn t (c : conn) =
  let len = String.length c.wbuf in
  let rec go () =
    if c.woff < len then
      match
        Unix.single_write c.fd
          (Bytes.unsafe_of_string c.wbuf)
          c.woff (len - c.woff)
      with
      | n ->
          c.woff <- c.woff + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> drop_conn t c
  in
  go ();
  if Hashtbl.mem t.conns c.conn_id && c.woff >= len then begin
    c.wbuf <- "";
    c.woff <- 0;
    if c.closing then drop_conn t c
  end

(* Queue a response on the connection's write buffer and flush
   opportunistically.  A consumer that stops reading while replies pile
   up past the cap is dropped — bounded memory beats a wedged loop. *)
let send t (c : conn) response =
  if Hashtbl.mem t.conns c.conn_id then begin
    let data = P.response_to_string response ^ "\n" in
    if c.woff > 0 then begin
      c.wbuf <- String.sub c.wbuf c.woff (String.length c.wbuf - c.woff);
      c.woff <- 0
    end;
    c.wbuf <- (if c.wbuf = "" then data else c.wbuf ^ data);
    let cap = max (1 lsl 22) (4 * t.cfg.max_frame) in
    if String.length c.wbuf > cap then begin
      M.incr c_backpressure_drops;
      event "backpressure-drop" [ ("conn", Mcs_obs.Events.Int c.conn_id) ];
      drop_conn t c
    end
    else flush_conn t c
  end

let send_to t conn_id response =
  match Hashtbl.find_opt t.conns conn_id with
  | Some c -> send t c response
  | None -> () (* client went away; its share of the work is just dropped *)

(* Answer one request: its latency goes to the histogram (and to the
   admission predictor's window unless [predict] is [false]), it counts
   as served, and the reply is sent. *)
let answer ?predict t ~conn ~id ~enqueued_at ~now ~cached ~coalesced outcome
    diag =
  let wall_ms = (now -. enqueued_at) *. 1000.0 in
  Admission.observe ?predict t.adm ~latency_ms:wall_ms;
  M.incr c_served;
  event "reply"
    [ ("id", Mcs_obs.Events.Str id); ("wall_ms", Mcs_obs.Events.Float wall_ms) ];
  send_to t conn (P.Reply { P.id; outcome; diag; cached; coalesced; wall_ms })

let reject t c ~id diag =
  send t c
    (P.Reply
       {
         P.id;
         outcome = None;
         diag = Some diag;
         cached = false;
         coalesced = false;
         wall_ms = 0.0;
       })

let opt_float = function Some f -> J.Float f | None -> J.Null

let stats_json t =
  let snap = M.snapshot () in
  let quantile name q =
    Option.bind (List.assoc_opt name snap) (fun v ->
        M.histogram_quantile v q)
  in
  let counter name =
    match List.assoc_opt name snap with
    | Some (M.Counter n) -> n
    | _ -> 0
  in
  J.Obj
    [
      ("v", J.Str P.stats_magic);
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.started));
      ("domains", J.Int (Supervisor.size t.sup));
      ("queue_depth", J.Int (Coalesce.pending t.coal - t.running_jobs));
      ("inflight", J.Int t.running_jobs);
      ("requests", J.Int (counter "server.requests"));
      ("served", J.Int (counter "server.served"));
      ("rejected", J.Int (counter "server.rejected"));
      ("coalesced", J.Int (counter "server.coalesced"));
      ("batches", J.Int (counter "server.batches"));
      ("cache_hits", J.Int (counter "engine.cache.hits"));
      ("cache_misses", J.Int (counter "engine.cache.misses"));
      ("refine_iterations", J.Int (counter "refine.iterations"));
      ("refine_accepted", J.Int (counter "refine.accepted"));
      ("respawns", J.Int (counter "server.respawns"));
      ("requeued", J.Int (counter "server.requeued"));
      ("poisoned", J.Int (counter "server.poisoned"));
      ("oversized", J.Int (counter "server.oversized"));
      ("reaped", J.Int (counter "server.reaped"));
      ("zombies", J.Int (Supervisor.zombie_count t.sup));
      ("wal_recovered", J.Int (counter "server.wal.recovered"));
      ("wal_torn", J.Int (counter "server.wal.torn"));
      ("latency_p50_ms", opt_float (quantile "server.latency_ms" 0.5));
      ("latency_p95_ms", opt_float (quantile "server.latency_ms" 0.95));
      ("metrics", J.metrics ());
    ]

let fresh_anon t =
  let id = Printf.sprintf "anon%d" t.next_anon in
  t.next_anon <- t.next_anon + 1;
  id

let handle_submit t (c : conn) (s : P.submit) =
  let now = Unix.gettimeofday () in
  let id = if s.P.id = "" then fresh_anon t else s.P.id in
  let deadline = Option.map (fun ms -> now +. (ms /. 1000.0)) s.P.deadline_ms in
  if t.shutting_down then
    reject t c ~id (P.exhausted_diag ~phase:"serve.shutdown" "server is draining")
  else if Supervisor.poisoned_key t.sup (Job.to_string s.P.job) then begin
    (* The circuit breaker: a job already known to kill worker domains
       is answered immediately, not re-dispatched. *)
    event "reject-poisoned" [ ("id", Mcs_obs.Events.Str id) ];
    reject t c ~id
      (P.poisoned_diag ~phase:"serve.admission"
         "job is quarantined: it repeatedly killed its worker domain")
  end
  else
    let depth = Coalesce.pending t.coal in
    match Admission.decide t.adm ~depth ~deadline_ms:s.P.deadline_ms with
    | Error reason ->
        event "reject"
          [
            ("id", Mcs_obs.Events.Str id);
            ("reason", Mcs_obs.Events.Str reason);
          ];
        reject t c ~id (P.exhausted_diag ~phase:"serve.admission" reason)
    | Ok () -> (
        let submitted coalesced =
          event "submit"
            [
              ("id", Mcs_obs.Events.Str id);
              ("job", Mcs_obs.Events.Str (Job.hash s.P.job));
              ("coalesced", Mcs_obs.Events.Bool coalesced);
            ]
        in
        match settled t s.P.job with
        | Some o ->
            (* A settled hit is answered here, under the same deadline
               rule as an execution.  It needs no journal admit and no
               done mark, no window and no domain: a crash can lose only
               the reply, which recovery could not re-deliver anyway. *)
            submitted false;
            let replied = Unix.gettimeofday () in
            let outcome, diag =
              match remaining_ms deadline ~now:replied with
              | Some ms when ms <= 0.0 -> (None, Some (deadline_diag ms))
              | _ -> (Some o, None)
            in
            answer t ~predict:false ~conn:c.conn_id ~id ~enqueued_at:now
              ~now:replied ~cached:(outcome <> None) ~coalesced:false outcome
              diag
        | None ->
            (* The durability point: once the admit record is fsync'd, this
               request survives any daemon crash — recovery replays it.  It
               must land before the request can possibly be dispatched. *)
            (match t.wal with
            | Some w ->
                Wal.append w
                  (Wal.Admit
                     {
                       id;
                       job = s.P.job;
                       deadline_ms = s.P.deadline_ms;
                       fallback = s.P.fallback;
                     })
            | None -> ());
            let waiter =
              {
                Coalesce.conn = c.conn_id;
                req_id = id;
                enqueued_at = now;
                deadline;
                fallback = s.P.fallback;
                attached = false;
              }
            in
            let how = Coalesce.submit t.coal ~now s.P.job waiter in
            c.outstanding <- c.outstanding + 1;
            submitted (how = `Coalesced))

let handle_line t (c : conn) line =
  if String.trim line <> "" then begin
    M.incr c_requests;
    match P.request_of_string line with
    | Error m ->
        M.incr c_protocol_errors;
        send t c
          (P.Reply
             {
               P.id = "";
               outcome = None;
               diag =
                 Some
                   {
                     P.code =
                       Mcs_flow.Diag.code_to_string Mcs_flow.Diag.Invalid_input;
                     phase = "serve.protocol";
                     message = m;
                   };
               cached = false;
               coalesced = false;
               wall_ms = 0.0;
             })
    | Ok (P.Submit s) -> handle_submit t c s
    | Ok P.Stats_req -> send t c (P.Stats (stats_json t))
    | Ok P.Shutdown_req ->
        t.shutting_down <- true;
        t.shutdown_conns <- c.conn_id :: t.shutdown_conns;
        event "shutdown" []
  end

let oversize_conn t (c : conn) n =
  M.incr c_oversized;
  event "oversized"
    [
      ("conn", Mcs_obs.Events.Int c.conn_id); ("bytes", Mcs_obs.Events.Int n);
    ];
  Buffer.clear c.rbuf;
  c.line_started <- None;
  c.closing <- true;
  reject t c ~id:""
    (P.oversized_diag ~phase:"serve.protocol"
       (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame))

let handle_readable t (c : conn) =
  let chunk = Bytes.create 4096 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop_conn t c
  | n ->
      let now = Unix.gettimeofday () in
      c.last_read <- now;
      Buffer.add_subbytes c.rbuf chunk 0 n;
      let data = Buffer.contents c.rbuf in
      let oversized = ref false in
      let completed = ref false in
      let rec eat from =
        if !oversized then ()
        else
          match String.index_from_opt data from '\n' with
          | None ->
              Buffer.clear c.rbuf;
              let rest = String.length data - from in
              Buffer.add_string c.rbuf (String.sub data from rest);
              (* The slowloris clock starts when a partial line begins
                 and is NOT reset by further dribbled bytes — only a
                 completed line restarts it.  Exceeding the frame bound
                 without ever sending the newline is answered (typed)
                 and the connection retired. *)
              if rest > t.cfg.max_frame then oversize_conn t c rest
              else if rest = 0 then c.line_started <- None
              else if !completed || c.line_started = None then
                c.line_started <- Some now
          | Some nl ->
              if nl - from > t.cfg.max_frame then begin
                oversized := true;
                Buffer.clear c.rbuf;
                oversize_conn t c (nl - from)
              end
              else begin
                handle_line t c (String.sub data from (nl - from));
                eat (nl + 1)
              end
      in
      eat 0
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      (* A signal or a spurious readability wakeup is not a protocol
         error; the connection stays. *)
      ()
  | exception Unix.Unix_error _ -> drop_conn t c

let accept_conn t lfd =
  match Unix.accept lfd with
  | fd, _ ->
      Unix.set_nonblock fd;
      let conn_id = t.next_conn in
      t.next_conn <- t.next_conn + 1;
      let stalled = Mcs_resilience.Fault.stall_conn () in
      Hashtbl.replace t.conns conn_id
        {
          fd;
          conn_id;
          rbuf = Buffer.create 256;
          wbuf = "";
          woff = 0;
          last_read = Unix.gettimeofday ();
          line_started = None;
          outstanding = 0;
          stalled;
          closing = false;
        };
      event "accept" [ ("conn", Mcs_obs.Events.Int conn_id) ]
  | exception Unix.Unix_error _ -> ()

(* Connection hygiene, once per loop tick: a partial line older than the
   read deadline is a slowloris and is reaped; a connection idle past
   the idle timeout with nothing owed either way is reaped; a [closing]
   connection whose buffer drained is closed. *)
let reap_conns t ~now =
  let victims =
    Hashtbl.fold
      (fun _ c acc ->
        if c.closing && c.woff >= String.length c.wbuf then (c, `Done) :: acc
        else if
          t.cfg.read_deadline_s > 0.0
          && match c.line_started with
             | Some t0 -> now -. t0 > t.cfg.read_deadline_s
             | None -> false
        then (c, `Reap) :: acc
        else if
          t.cfg.idle_timeout_s > 0.0
          && c.outstanding = 0
          && String.length c.wbuf = 0
          && (not c.closing)
          && now -. c.last_read > t.cfg.idle_timeout_s
        then (c, `Reap) :: acc
        else acc)
      t.conns []
  in
  List.iter
    (fun (c, why) ->
      (match why with
      | `Reap ->
          M.incr c_reaped;
          event "reap" [ ("conn", Mcs_obs.Events.Int c.conn_id) ]
      | `Done -> ());
      drop_conn t c)
    victims

let run_batch_inline t (entries : Coalesce.entry array) =
  Array.iteri (fun i _ -> push_completion t (exec_entry t entries i)) entries

(* The window holds entries only while every domain is busy.  A busy
   domain always owes at least one unreplied entry, so fewer owed
   entries than domains means one is idle: flush at once.  Otherwise the
   window opens, and it closes early as soon as a completion frees a
   domain (the wake pipe brings the loop straight back here). *)
let dispatch_due t ~now =
  if t.shutting_down || not t.hold then
    List.iter
      (fun batch ->
        t.running_jobs <- t.running_jobs + List.length batch;
        let entries = Array.of_list batch in
        if not (Supervisor.submit t.sup entries) then
          (* The pool stopped underneath us (shutdown raced a late window):
             run inline so no admitted request is ever left unanswered. *)
          run_batch_inline t entries)
      (Coalesce.flush t.coal ~now
         ~force:(t.shutting_down || t.running_jobs < Supervisor.size t.sup))

let process_completions t =
  let comps =
    Mutex.lock t.done_lock;
    let l = t.done_list in
    t.done_list <- [];
    Mutex.unlock t.done_lock;
    List.rev l
  in
  let now = Unix.gettimeofday () in
  List.iter
    (fun comp ->
      Coalesce.complete t.coal comp.entry;
      t.running_jobs <- t.running_jobs - 1;
      if t.shutting_down then t.drained <- t.drained + 1;
      List.iter
        (fun (w : Coalesce.waiter) ->
          (* The done mark is unsynced: losing it costs one warm
             recomputation at recovery, never a lost request. *)
          (match t.wal with
          | Some wal -> Wal.append ~sync:false wal (Wal.Done { id = w.Coalesce.req_id })
          | None -> ());
          (match Hashtbl.find_opt t.conns w.Coalesce.conn with
          | Some c -> c.outstanding <- max 0 (c.outstanding - 1)
          | None -> ());
          answer t ~conn:w.Coalesce.conn ~id:w.Coalesce.req_id
            ~enqueued_at:w.Coalesce.enqueued_at ~now ~cached:false
            ~coalesced:w.Coalesce.attached comp.outcome comp.diag)
        (List.rev comp.entry.Coalesce.waiters))
    comps;
  Admission.set_depth (Coalesce.pending t.coal - t.running_jobs);
  Admission.set_inflight t.running_jobs

let finish t =
  Supervisor.shutdown t.sup;
  process_completions t;
  List.iter
    (fun conn_id -> send_to t conn_id (P.Bye { drained = t.drained }))
    (List.rev t.shutdown_conns);
  (* Flush what each connection is still owed (final replies, the
     farewell) with blocking writes — the loop is over, there is nothing
     left to starve. *)
  Hashtbl.iter
    (fun _ c ->
      if c.woff < String.length c.wbuf then begin
        (try Unix.clear_nonblock c.fd with Unix.Unix_error _ -> ());
        try
          write_all c.fd
            (String.sub c.wbuf c.woff (String.length c.wbuf - c.woff))
        with Unix.Unix_error _ -> ()
      end)
    t.conns;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Option.iter Wal.close t.wal;
  t.running <- false

(* For signal handlers in the daemon binary: flips the same flag a
   protocol-level shutdown request sets, so SIGTERM drains like a polite
   client (there is just no connection owed a farewell). *)
let request_shutdown t = t.shutting_down <- true

(* A signal landing mid-select (SIGCHLD from a benchmark's forked child,
   a harmless SIGUSR1) must restart the wait, not surface as an error or
   tear anything down. *)
let rec select_retry r w tmo =
  try Unix.select r w [] tmo
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w tmo

let serve t =
  while t.running do
    let now = Unix.gettimeofday () in
    Supervisor.check t.sup ~now;
    dispatch_due t ~now;
    reap_conns t ~now;
    Admission.set_depth (Coalesce.pending t.coal - t.running_jobs);
    Admission.set_inflight t.running_jobs;
    if
      t.shutting_down
      && Coalesce.pending t.coal = 0
      && Supervisor.queued t.sup = 0
    then finish t
    else begin
      let tmo =
        let cap = if t.shutting_down then 0.05 else 0.2 in
        match Coalesce.due t.coal ~now with
        | Some d when not t.hold -> Float.min d cap
        | _ -> cap
      in
      let conn_fds =
        Hashtbl.fold (fun _ c acc -> (c.fd, c) :: acc) t.conns []
      in
      let rfds =
        (t.wake_r :: t.listeners)
        @ List.filter_map
            (fun (fd, c) -> if c.stalled then None else Some fd)
            conn_fds
      in
      let wfds =
        List.filter_map
          (fun (fd, c) ->
            if c.woff < String.length c.wbuf then Some fd else None)
          conn_fds
      in
      let readable, writable, _ = select_retry rfds wfds tmo in
      List.iter
        (fun fd ->
          if fd = t.wake_r then begin
            let buf = Bytes.create 64 in
            (try ignore (Unix.read t.wake_r buf 0 64)
             with Unix.Unix_error _ -> ())
          end
          else if List.mem fd t.listeners then accept_conn t fd
          else
            match List.assoc_opt fd conn_fds with
            | Some c -> handle_readable t c
            | None -> ())
        readable;
      List.iter
        (fun fd ->
          match List.assoc_opt fd conn_fds with
          | Some c when Hashtbl.mem t.conns c.conn_id -> flush_conn t c
          | _ -> ())
        writable;
      process_completions t
    end
  done
