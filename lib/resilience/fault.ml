type t =
  | Exhaust_ilp
  | Exhaust_fds
  | Exhaust_heuristic
  | Exhaust_hungarian
  | Crash_worker of int
  | Corrupt_cache
  | Kill_domain
  | Stall_conn
  | Wal_torn
  | Hold_dispatch

let to_string = function
  | Exhaust_ilp -> "exhaust-ilp"
  | Exhaust_fds -> "exhaust-fds"
  | Exhaust_heuristic -> "exhaust-heuristic"
  | Exhaust_hungarian -> "exhaust-hungarian"
  | Crash_worker n -> Printf.sprintf "crash-worker:%d" n
  | Corrupt_cache -> "corrupt-cache"
  | Kill_domain -> "kill-domain"
  | Stall_conn -> "stall-conn"
  | Wal_torn -> "wal-torn"
  | Hold_dispatch -> "hold-dispatch"

(* An exhaust mode may carry an armed count ("exhaust-ilp:2" fires on the
   first two injection-point hits, then disarms); [None] = every hit while
   the env value stands.  [crash-worker:N]'s colon keeps its historical
   meaning (worker count), so only the exhaust-* modes take a count. *)
let parse_one s =
  let s = String.trim s in
  let base, count =
    match String.index_opt s ':' with
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (s, None)
  in
  let armed f =
    match count with
    | None -> Ok (f, None)
    | Some n -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Ok (f, Some n)
        | _ ->
            Error (Printf.sprintf "MCS_FAULT: bad armed count %S for %s" n base))
  in
  match base with
  | "exhaust-ilp" -> armed Exhaust_ilp
  | "exhaust-fds" -> armed Exhaust_fds
  | "exhaust-heuristic" -> armed Exhaust_heuristic
  | "exhaust-hungarian" -> armed Exhaust_hungarian
  | "corrupt-cache" when count = None -> Ok (Corrupt_cache, None)
  (* The chaos modes always carry an armed count; a bare mode means one
     shot.  An unbounded kill-domain would poison every job it touches,
     which is never what a test wants. *)
  | "kill-domain" -> (
      match armed Kill_domain with
      | Ok (f, None) -> Ok (f, Some 1)
      | r -> r)
  | "stall-conn" -> (
      match armed Stall_conn with
      | Ok (f, None) -> Ok (f, Some 1)
      | r -> r)
  | "wal-torn" -> (
      match armed Wal_torn with
      | Ok (f, None) -> Ok (f, Some 1)
      | r -> r)
  | "hold-dispatch" -> (
      match armed Hold_dispatch with
      | Ok (f, None) -> Ok (f, Some 1)
      | r -> r)
  | "crash-worker" -> (
      match count with
      | Some n -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> Ok (Crash_worker n, None)
          | _ -> Error (Printf.sprintf "MCS_FAULT: bad worker count %S" n))
      | None -> Error "MCS_FAULT: crash-worker needs a count (crash-worker:N)")
  | "" -> Error "MCS_FAULT: empty mode"
  | _ -> Error (Printf.sprintf "MCS_FAULT: unknown mode %S" s)

let parse_armed s =
  if String.trim s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc piece ->
           match (acc, parse_one piece) with
           | Error _, _ -> acc
           | Ok _, Error e -> Error e
           | Ok fs, Ok f -> Ok (f :: fs))
         (Ok [])
    |> Result.map List.rev

let parse s = Result.map (List.map fst) (parse_armed s)

(* Memoized on the raw env value so tests can flip MCS_FAULT with
   Unix.putenv and injection points see the change on the next call.
   Armed counts live in the memo as mutable shot counters: they reset
   whenever the env value changes.  Fault injection is a test facility;
   the counters are not synchronized across domains. *)
let memo : (string * (t * int ref option) list) option ref = ref None

let active_armed () =
  let raw = match Sys.getenv_opt "MCS_FAULT" with Some s -> s | None -> "" in
  match !memo with
  | Some (r, fs) when String.equal r raw -> fs
  | _ ->
      let fs =
        match parse_armed raw with
        | Ok fs -> List.map (fun (f, c) -> (f, Option.map ref c)) fs
        | Error e ->
            Mcs_obs.Log.warn "%s (fault injection disabled)" e;
            []
      in
      memo := Some (raw, fs);
      fs

let reset () = memo := None
let active () = List.map fst (active_armed ())
let has f = List.exists (fun (g, _) -> g = f) (active_armed ())

(* Consume one shot of [fault] if any entry for it still has shots left
   (or is unarmed, i.e. infinite). *)
let fire fault =
  let rec go = function
    | [] -> false
    | (g, shots) :: rest when g = fault -> (
        match shots with
        | None -> true
        | Some r -> if !r > 0 then (decr r; true) else go rest)
    | _ :: rest -> go rest
  in
  go (active_armed ())

let exhaust_if fault resource =
  if fire fault then Some (Budget.exhausted resource) else None

let exhaust_ilp () = exhaust_if Exhaust_ilp Budget.Nodes
let exhaust_fds () = exhaust_if Exhaust_fds Budget.Passes
let exhaust_heuristic () = exhaust_if Exhaust_heuristic Budget.Nodes
let exhaust_hungarian () = exhaust_if Exhaust_hungarian Budget.Augments

let crash_workers () =
  List.fold_left
    (fun acc -> function Crash_worker n -> max acc n | _ -> acc)
    0 (active ())

let corrupt_cache () = has Corrupt_cache
let kill_domain () = fire Kill_domain
let stall_conn () = fire Stall_conn
let wal_torn () = fire Wal_torn
let hold_dispatch () = fire Hold_dispatch
