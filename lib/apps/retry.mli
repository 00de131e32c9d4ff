(** Capped exponential backoff for transient network errors.

    The simulated kernel surfaces transient conditions as [EINTR] /
    [EAGAIN] (including the ones planted by the fault injector); real Go
    network code retries those with a short backoff. The backoff "sleep"
    is simulated time consumed directly off the clock — [nanosleep(2)] is
    in the time syscall category, which net-only enclosure filters deny,
    so these helpers are safe to call from inside an enclosure. Each
    retry increments the ["retry"] counter and, when the machine's sink
    is enabled, records a ["retry:<op> attempt=<n>"] mark.
    {!Serve.accept_loop} applies {!transient} to a server's accept(2). *)

val transient : Encl_kernel.Kernel.errno -> bool
(** [EINTR] or [EAGAIN]. *)

val with_backoff :
  ?attempts:int ->
  Encl_golike.Runtime.t ->
  op:string ->
  (unit -> ('a, Encl_kernel.Kernel.errno) result) ->
  ('a, Encl_kernel.Kernel.errno) result
(** Run the call, retrying up to [attempts] (default 5) times on a
    transient errno with exponentially growing, capped backoff. The last
    errno is returned when the attempts are exhausted; a non-transient
    errno returns immediately. *)

val send_all :
  ?attempts:int ->
  Encl_golike.Runtime.t ->
  op:string ->
  fd:int ->
  buf:int ->
  len:int ->
  (int, Encl_kernel.Kernel.errno) result
(** Send [len] bytes at address [buf], resuming after short writes (the
    kernel may deliver a prefix, as with a full socket buffer) and
    retrying transient errnos per {!with_backoff}. [Ok len] on success;
    [Error Epipe] if the peer vanishes mid-write. *)
