(** A pq-like Postgres driver (the deprecated [lib/pq] the paper's wiki
    app depends on). Speaks {!Minidb}'s wire protocol over simulated
    sockets. *)

val pkg : string
(** ["pq"] *)

val dep_count : int
(** Synthetic dependency tree size; with {!Mux.dep_count} this totals the
    44 public packages of §6.3. *)

val packages : unit -> Encl_golike.Runtime.pkgdef list

type conn

val connect : Encl_golike.Runtime.t -> ip:int -> port:int -> conn
(** Opens the socket (a [socket] + [connect] system-call pair — under the
    wiki's db-proxy policy, [connect] is only permitted to the
    pre-defined database address). *)

val query :
  Encl_golike.Runtime.t -> conn -> string -> (string list list, string) result
(** Send one statement and read the reply. Transient errnos are retried
    with capped backoff; short reads accumulate until the NUL response
    terminator; a dead connection triggers one reconnect-and-replay
    (counted by {!reconnect_counter}). *)

val reconnect_counter : Encl_obs.Metrics.counter
(** ["pq.reconnect"]: times a connection was re-dialed after the server
    dropped it, in the machine's counter registry. *)

val close : Encl_golike.Runtime.t -> conn -> unit
