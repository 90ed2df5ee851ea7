(** Blocking client for the daemon's wire protocol — what the
    [mcs_synth client] subcommand, the benchmarks and the tests speak.

    One connection, synchronous line-delimited exchanges.  All functions
    may raise [Unix.Unix_error] on transport failure at connect/send
    time; protocol-level problems come back as [Error _]. *)

type t

val connect_unix : string -> t
val connect_tcp : string -> int -> t
val close : t -> unit

val send : t -> Protocol.request -> unit
val recv : t -> (Protocol.response, string) result

val submit_all :
  t -> Protocol.submit list -> (Protocol.reply list, string) result
(** Pipeline all submissions in one flush (a small burst reaches the
    daemon in one read, so it is admitted — and coalesced or batched —
    as a whole), then collect until every id has replied;
    results return in submission order regardless of the server's
    completion order.  Submits with id [""] get client-assigned ids
    [c0], [c1], ...  A connection-level error reply (one without an id,
    e.g. a typed [oversized] rejection) returns [Error] immediately —
    it answers no pending submit and the server closes after it. *)

val stats : t -> (Mcs_obs.Report_json.t, string) result
(** The [mcs-serve/1] stats object. *)

val shutdown : t -> (int, string) result
(** Graceful shutdown; returns the server's drained-jobs count from its
    farewell once all in-flight work finished. *)
