(* Prints the golden connection-search records to stdout. *)
let () = Golden_connect.print_all stdout
