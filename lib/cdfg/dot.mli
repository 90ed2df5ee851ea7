(** Graphviz export of partitioned CDFGs: one cluster per chip, I/O
    operation nodes as the paper draws them (shaded boxes on the arcs that
    cross partition boundaries), data recursive edges dashed and labelled
    with their degree. *)

val pp : Format.formatter -> Cdfg.t -> unit
