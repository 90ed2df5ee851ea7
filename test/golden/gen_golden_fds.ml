(* Prints the golden force-directed scheduling records to stdout. *)
let () = Golden_fds.print_all stdout
