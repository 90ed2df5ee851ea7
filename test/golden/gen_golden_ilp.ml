(* Prints the golden branch-and-bound records to stdout. *)
let () = Golden_ilp.print_all stdout
