(** A FastHTTP-like performance-oriented HTTP server (paper §6.2).

    Differences from {!Httpd} mirror the real projects: request and
    response buffers are allocated once per connection and reused across
    requests ("HTTPRequest object reuse across requests... allows LB_MPK
    to avoid numerous costly transfers"), and parsing is leaner.

    The intended deployment runs the whole server inside an enclosure
    that may only perform [net] system calls; parsed requests are
    forwarded to a trusted handler goroutine over a channel and the
    response comes back the same way ("this benchmark shows how trusted
    callbacks can easily be implemented"). {!serve_enclosed} wires
    exactly that; the fd-poll and futex/clock systems calls are issued by
    the trusted side (the Go netpoller), as they would be denied by the
    [net]-only filter. *)

val pkg : string
(** ["fasthttp"] *)

val dep_count : int
(** 100 public dependencies, as in Table 2. *)

val packages : unit -> Encl_golike.Runtime.pkgdef list

type request = { meth : string; path : string }

val serve_enclosed :
  Encl_golike.Runtime.t ->
  port:int ->
  enclosure:string option ->
  handler:(request -> Encl_golike.Gbuf.t) ->
  unit
(** Start the server. [enclosure = Some name] runs the accept/parse/write
    loop inside the named enclosure (linked by the application);
    [None] is the baseline. [handler] runs in a separate trusted
    goroutine either way.

    Here and in {!serve_zc}, each answered request counts ["http.served"], and a
    request that faults ends only its connection's fiber and counts
    ["http.conn_failed"] ({!Serve.connection}); the fd stays open for
    trusted code, since the [net]-only filter denies close(2). *)

val serve_zc :
  Encl_golike.Runtime.t ->
  port:int ->
  ring:Encl_golike.Runtime.netring ->
  file_fd:int ->
  file_len:int ->
  enclosure:string option ->
  unit
(** The zero-copy serving mode: requests are read in place from the rx
    view ring ({!Encl_golike.Runtime.netring_recv}) and the static body
    is spliced from the VFS file open on [file_fd] with sendfile(2) —
    no per-request body staging or assembly blit. The enclosure needs
    ["netring:R"] in its view and the [net] and [io] system-call
    categories. The identical call sequence is issued with
    {!Encl_sim.Zerocopy} off; only cost and the bytes_copied ledger
    move. *)
