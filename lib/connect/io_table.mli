(** The I/O facts the connection searches ({!Heuristic.search}, and
    Chapter 6's [Subbus.search]) read at every node, as dense arrays:
    widths, endpoints, and values interned to small ids.  Their pin bounds
    keep the unassigned operations of a partition as a {!bag}: counts over
    the design's distinct widths. *)

open Mcs_cdfg

type t = private {
  ops : Types.op_id list;
      (** the I/O operations in assignment order: widest first, then by id *)
  width : int array;  (** indexed by op id, like the four below *)
  src : int array;
  dst : int array;
  value : int array;  (** value id, in [0, n_values) *)
  width_index : int array;  (** index of the op's width in [widths] *)
  n_values : int;
  widths : int array;  (** the distinct I/O widths, ascending *)
}

val make : Cdfg.t -> t

type bag
(** A mutable multiset of widths drawn from one table's [widths]. *)

val bag : t -> bag
(** Empty. *)

val load : bag -> int array -> unit
(** [load b counts] makes [b] hold [counts.(k)] copies of [widths.(k)]. *)

val size : bag -> int

val take : bag -> int -> int -> int
(** [take b k x] removes up to [k] of the widest widths [<= x] and returns
    the last one removed, or [-1] when none is [<= x]. *)

val widest : bag -> int
(** @raise Invalid_argument when the bag is empty. *)
