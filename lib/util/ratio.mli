(** Exact rational arithmetic over native integers.

    Values are kept in lowest terms with a strictly positive denominator.
    Native [int] (63-bit) numerators/denominators are ample for the simplex
    tableaus produced by the pin-allocation and interchip-connection ILPs in
    this library; an overflow during normalization raises {!Overflow} rather
    than silently wrapping. *)

type t = private { num : int; den : int }

exception Overflow
exception Division_by_zero

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t
val minus_one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val abs : t -> t
val inv : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t

val is_zero : t -> bool
val is_integer : t -> bool

val floor : t -> int
(** Largest integer [<=] the rational (true mathematical floor, also for
    negative values). *)

val ceil : t -> int
val to_int_exn : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val frac : t -> t
(** Fractional part in [[0, 1)]: [frac q = q - floor q]. *)

val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(* Infix aliases, intended for local [open Mcs_util.Ratio.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
