(** Cross-solve warm-start registry for the float-first path.

    Neighboring design-space grid points (rate r and r+1, bus cap c and
    c+1) produce almost-identical ILPs over the {e same named variables},
    so the optimal basis of one is a near-perfect pivot guide for the
    next.  Sites ({!Model.solve} callers) store the structural variable
    names of a settled basis under a site key that deliberately omits the
    swept parameter — e.g. ["pin-ilp:12ops:3parts"], not the rate — and
    the next solve at the same site maps the names back to its own column
    indices and steers its root LP toward them ({!Fsimplex.solve_lp}'s
    [warm] pricing preference).

    Names, not column indices: models at different grid points may lay
    out auxiliary variables differently, and an unknown name simply drops
    out of the preference list.  The registry is process-global and
    mutex-protected, so jobs on the {!Mcs_engine.Supervisor}'s domains
    (a [dse] sweep's or the server's) chain bases automatically; {!export_all}/{!import}
    move the contents explicitly where a payload has to ride along (the
    engine's {!Mcs_engine.Job} warm payload between batch entries).

    Counters: [ilp.warm.hits] / [ilp.warm.misses] on {!get}. *)

val put : string -> string list -> unit
(** Store (replace) the basis names for a site key. *)

val get : string -> string list option
(** Look up a site key, counting a hit or miss. *)

val clear : unit -> unit
(** Drop every stored basis (bench isolation between measurements). *)

val export_all : unit -> (string * string list) list
(** The registry contents, sorted by key (deterministic). *)

val import : (string * string list) list -> unit
(** Merge exported contents in ([put] per entry). *)
