(** Maximum-cardinality bipartite matching via augmenting paths (Kuhn's
    algorithm).

    Used by the dynamic bus-reassignment step of Chapter 4.2: I/O operations
    on the left, (bus, control-step-group) communication slots on the right;
    an augmenting path found when scheduling an I/O operation is exactly a
    legal chain of preemptions. *)

type t

val create : n_left:int -> n_right:int -> t
val add_edge : t -> left:int -> right:int -> unit

val force_pair : t -> left:int -> right:int -> unit
(** Pins [left -- right] into the current matching, displacing any previous
    partners (their match is cleared, not rerouted).
    @raise Invalid_argument if the edge is absent. *)

val max_matching : ?budget:Mcs_resilience.Budget.t -> t -> int
(** Augments the current matching to maximum cardinality and returns its
    size.  Deterministic: left vertices are processed in increasing order.
    [budget] charges one augment per attempted augmenting path; exhaustion
    raises {!Mcs_resilience.Budget.Out_of_budget}. *)

val match_of_left : t -> int -> int option

val pairs : t -> (int * int) list
(** Current matched pairs, sorted by left vertex. *)
