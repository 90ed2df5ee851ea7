type level = Debug | Info | Warn | Error | Quiet

let severity = function
  | Debug -> 0
  | Info -> 1
  | Warn -> 2
  | Error -> 3
  | Quiet -> 4

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"
  | Quiet -> "quiet"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | "quiet" | "off" -> Some Quiet
  | _ -> None

let initial =
  match Sys.getenv_opt "MCS_LOG" with
  | Some s -> Option.value ~default:Warn (level_of_string s)
  | None -> if Sys.getenv_opt "MCS_DEBUG" <> None then Debug else Warn

let threshold = ref initial
let set_level l = threshold := l
let level () = !threshold
let enabled l = l <> Quiet && severity l >= severity !threshold

let out = Format.err_formatter

(* Structured context fields, printed [key=value] on every line between
   the level prefix and the message.  [Mcs_flow.Flow.run] binds the
   active flow name here and the engine pool binds each running job's
   hash, so lines from jobs running side by side stay attributable.
   Later bindings of the same key shadow earlier ones. *)
let context_key : (string * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Domain-local: each server worker binds its own job hash without
   clobbering the context of requests in flight on sibling domains. *)
let context () = Domain.DLS.get context_key

let set_field k v =
  let context = context () in
  context := (k, v) :: List.remove_assoc k !context

let fields () = List.rev !(context ())

let with_field k v f =
  let context = context () in
  let saved = !context in
  set_field k v;
  Fun.protect ~finally:(fun () -> context := saved) f

let pp_context ppf () =
  List.iter (fun (k, v) -> Format.fprintf ppf "%s=%s " k v) (fields ())

let log l fmt =
  if enabled l then begin
    Format.fprintf out "[mcs:%s] %a" (level_to_string l) pp_context ();
    Format.kfprintf
      (fun ppf ->
        Format.pp_print_newline ppf ();
        Format.pp_print_flush ppf ())
      out fmt
  end
  else Format.ifprintf out fmt

let debug fmt = log Debug fmt
let info fmt = log Info fmt
let warn fmt = log Warn fmt
let error fmt = log Error fmt
