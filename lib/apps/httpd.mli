(** A net/http-like HTTP server (paper §6.2, "Securing an HTTP server").

    Serves persistent connections; each request performs the typical Go
    server system-call trace (epoll, recv, send, futex, clock reads) and —
    like net/http — allocates fresh request/response buffers per request,
    which is what makes LB_MPK pay arena transfers here but not in
    FastHTTP. The request handler is supplied by the application and is
    the natural thing to enclose ("this benchmark defines the request
    handler as an enclosure with no access to the packages used by
    net/http and no system calls"). *)

val pkg : string
(** ["net_http"] *)

val packages : unit -> Encl_golike.Runtime.pkgdef list

val serve :
  Encl_golike.Runtime.t ->
  port:int ->
  handler:(meth:string -> path:string -> Encl_golike.Gbuf.t) ->
  unit
(** Bind, listen, and spawn the accept goroutine. The handler returns the
    response body (e.g. a static 13 KB page); the serving loop formats
    headers and writes the response.

    Per-connection fault containment ({!Serve.connection}): a handler
    that faults (enclosure violation, seccomp kill, quarantine) closes
    that connection only and counts ["http.conn_failed"]; the accept
    loop and every other connection keep serving. Each answered request
    counts ["http.served"]. Transient network errnos are retried with
    capped backoff ({!Retry}). *)

val reset_counters : unit -> unit
(** Does nothing. The server's tallies are the machine's
    ["http.served"] and ["http.conn_failed"] counters ({!Serve}), which
    start at zero on every boot; the name stays because perfbench/, which
    changes only with the benchmark, still calls it. *)

(** {2 Client side (benchmarks and tests; not guest code)} *)

val client_get :
  Encl_golike.Runtime.t -> Encl_kernel.Net.ep -> path:string -> unit
(** Push one GET request on an established client connection. *)

val client_connect : Encl_golike.Runtime.t -> port:int -> Encl_kernel.Net.ep
val client_read_response : Encl_golike.Runtime.t -> Encl_kernel.Net.ep -> Bytes.t
