module P = Protocol

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let of_fd fd =
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  of_fd fd

let connect_tcp host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (addr, port));
  of_fd fd

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write t req =
  output_string t.oc (P.request_to_string req);
  output_char t.oc '\n'

let send t req =
  write t req;
  flush t.oc

let recv t =
  match input_line t.ic with
  | line -> P.response_of_string line
  | exception End_of_file -> Error "server closed the connection"

(* Fire all submissions in one flush, so a small burst reaches the
   server in one read and is admitted whole (an idle domain cannot
   start its head before the rest coalesces or batches with it).  Then
   collect replies until every id has answered; replies come back in
   completion order (coalescing and batching reorder freely), so
   results are re-sorted into submission order by id.  Requests with an
   empty id get client-assigned ones. *)
let submit_all t submits =
  let submits =
    List.mapi
      (fun i (s : P.submit) ->
        if s.P.id = "" then { s with P.id = Printf.sprintf "c%d" i } else s)
      submits
  in
  List.iter (fun s -> write t (P.Submit s)) submits;
  flush t.oc;
  let wanted = List.map (fun (s : P.submit) -> s.P.id) submits in
  let replies = Hashtbl.create (List.length submits) in
  let rec collect () =
    if Hashtbl.length replies < List.length submits then
      match recv t with
      | Error m -> Error m
      | Ok (P.Reply r) when r.P.id = "" ->
          (* A connection-level error reply (oversized frame, unparsable
             request) carries no id: it answers no pending submit, and
             the server is about to close on us — surfacing it beats
             collecting forever. *)
          Error
            (match r.P.diag with
            | Some d -> Printf.sprintf "%s: %s [%s]" d.P.phase d.P.message d.P.code
            | None -> "server error reply without id")
      | Ok (P.Reply r) ->
          if List.mem r.P.id wanted then Hashtbl.replace replies r.P.id r;
          collect ()
      | Ok (P.Stats _ | P.Bye _) -> collect ()
    else Ok ()
  in
  match collect () with
  | Error m -> Error m
  | Ok () ->
      Ok (List.map (fun id -> Hashtbl.find replies id) wanted)

let stats t =
  send t P.Stats_req;
  let rec wait () =
    match recv t with
    | Error m -> Error m
    | Ok (P.Stats j) -> Ok j
    | Ok (P.Reply _ | P.Bye _) -> wait ()
  in
  wait ()

let shutdown t =
  send t P.Shutdown_req;
  let rec wait () =
    match recv t with
    | Error m -> Error m
    | Ok (P.Bye { drained }) -> Ok drained
    | Ok (P.Reply _ | P.Stats _) -> wait ()
  in
  wait ()
