(* Prints the golden schedule records to stdout. *)
let () = Golden_sched.print_all stdout
