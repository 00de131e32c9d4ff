(** The serving skeleton the HTTP servers share ({!Httpd}, both modes of
    {!Fasthttp}, the {!Wiki}'s enclosed server): listen, accept, serve
    each connection in its own fiber, and contain a faulting request to
    its connection. Each server keeps its own per-connection setup,
    request handling, calibrated costs and system-call order; only this
    frame is shared.

    The servers' tallies live in the machine's counter registry
    ({!Encl_obs.Metrics}), so every boot starts them at zero. *)

val served_counter : Encl_obs.Metrics.counter
(** ["http.served"]: requests a server answered in full. *)

val conn_failed_counter : Encl_obs.Metrics.counter
(** ["http.conn_failed"]: connections ended by a contained fault. *)

val total : Encl_golike.Runtime.t -> Encl_obs.Metrics.counter -> int
(** A counter's total on the runtime's machine, over every scope. *)

val note_served : Encl_golike.Runtime.t -> unit
(** Count one request answered in full. *)

val charge : Encl_golike.Runtime.t -> Clock.category -> int -> unit
(** Consume simulated ns in a ledger category: a server's calibrated
    per-request work. *)

val spawn : Encl_golike.Runtime.t -> ?enclosure:string -> (unit -> unit) -> unit
(** Run [body] in a new fiber, inside the named enclosure when one is
    given (fibers it spawns inherit that environment). *)

val listen : Encl_golike.Runtime.t -> port:int -> int
(** socket(2), bind(2) and listen(2) on [port], in that order; the
    listening fd. Fails on any errno. *)

val accept_loop :
  Encl_golike.Runtime.t -> fd:int -> label:string -> (int -> unit -> unit) -> 'a
(** The accept loop on the listening [fd], run in the server's fiber:
    wait for a pending connection, accept it through the syscall ring,
    spawn [conn conn_fd] as the connection's fiber, and loop. A
    transient errno ({!Retry.transient}) retries at once; any other fails
    with ["LABEL: ERRNO"]. Never returns. *)

val connection :
  Encl_golike.Runtime.t -> conn_fd:int -> close:bool -> (unit -> bool) -> unit
(** A connection's loop: wait until [conn_fd] is readable and run
    [handle ()] — [true] serves the next request, [false] (EOF or a
    failed read) ends the loop. An exception that
    {!Encl_golike.Runtime.absorb_fault} claims is contained: it counts
    ["http.conn_failed"] and ends the loop; any other propagates.
    [close:true] closes the fd at either end. [close:false] leaves it to
    trusted code: a server enclosed behind a net-only filter may not
    close(2), a file-category call. *)

val request_line : string -> string * string
(** The method and path of a request's first line; [("GET", "/")] when
    it has fewer than two words. *)

val head : int -> string
(** The plain [HTTP/1.1 200 OK] status line and [Content-Length] header
    for a body of that many bytes, ending the header block. *)
