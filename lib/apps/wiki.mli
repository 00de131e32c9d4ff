(** The Figure 5 usability study: a wiki-like web application whose pages
    live in a Postgres-like database.

    Two enclosures communicate with trusted glue code over channels:
    - the {e HTTP server} (mux and its transitive dependencies), allowed
      only [net] system calls, with no access to the database driver, the
      filesystem, or the application's secrets;
    - the {e database proxy} (pq and its dependencies), allowed only to
      talk to the pre-defined Postgres address ([connect] restricted to
      {!db_ip}).

    The trusted code reads requests forwarded by the enclosed handlers,
    contacts the enclosed database proxy, validates the SQL result, and
    generates the HTML response. *)

val db_ip : int
val db_port : int

val packages : unit -> Encl_golike.Runtime.pkgdef list
(** mux, pq, and their synthetic dependency trees (44 packages with the
    two public roots, as in §6.3). *)

val main_package : unit -> Encl_golike.Runtime.pkgdef
(** The application package: page template, database password, and the
    two enclosure declarations ([http_srv], [db_proxy]). *)

val setup_remote_db : Encl_golike.Runtime.t -> Minidb.t
(** Register the database as a remote host and create the [pages] table
    with a couple of seed pages. *)

val start :
  Encl_golike.Runtime.t -> port:int -> enclosed:bool -> unit -> unit
(** Launch the database proxy, the trusted glue, and the HTTP server
    goroutines. [enclosed:false] is the baseline (vanilla closures).
    Each answered request counts ["http.served"]; a request that faults
    ends only its connection's fiber and counts ["http.conn_failed"]
    ({!Serve.connection}). *)

val reset_counters : unit -> unit
(** Does nothing. The server's tallies are the machine's
    ["http.served"] and ["http.conn_failed"] counters ({!Serve}) and the
    driver's ["pq.reconnect"] ({!Pq}), which start at zero on every
    boot; the name stays because perfbench/, which changes only with the
    benchmark, still calls it. *)
