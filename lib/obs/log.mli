(** Leveled diagnostic logging for the synthesis libraries.

    Replaces the ad-hoc [Printf.eprintf] diagnostics: messages carry a
    level, go to stderr with a [\[mcs:level\]] prefix, and are discarded
    (without being formatted) when below the current threshold.

    The initial threshold is [Warn]; the [MCS_LOG] environment variable
    ([debug], [info], [warn], [error] or [quiet]) overrides it at program
    start, as does the legacy [MCS_DEBUG] variable (which maps to
    [Debug]).  The [--log-level] flag of [mcs-synth] calls [set_level]. *)

type level = Debug | Info | Warn | Error | Quiet

val set_level : level -> unit
val level : unit -> level

val level_of_string : string -> level option
val level_to_string : level -> string

val enabled : level -> bool
(** [enabled lvl] is true when a message at [lvl] would be printed.
    Guard expensive message construction with it. *)

val set_field : string -> string -> unit
(** [set_field k v] binds a structured context field printed as [k=v] on
    every subsequent line (between the level prefix and the message).
    Rebinding a key replaces its value.  The flow driver binds
    [flow=<name>]; the engine pool binds [job=<hash>] around each job, so
    lines from jobs running side by side stay attributable. *)

val with_field : string -> string -> (unit -> 'a) -> 'a
(** Scoped {!set_field}: the previous context is restored on exit, even
    on exceptions. *)

val fields : unit -> (string * string) list
(** The active context fields, oldest binding first. *)

val debug : ('a, Format.formatter, unit) format -> 'a
val info : ('a, Format.formatter, unit) format -> 'a
val warn : ('a, Format.formatter, unit) format -> 'a
val error : ('a, Format.formatter, unit) format -> 'a
