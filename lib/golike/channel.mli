(** Go-like channels: typed, bounded, blocking queues.

    The paper's FastHTTP and wiki applications use channels as the
    communication boundary between enclosed servers and trusted handler
    goroutines ("the enclosure forwards requests to a trusted handler
    goroutine via go channels", §6.2). Channel payloads are OCaml values:
    the channel is runtime machinery, not guest memory — sharing guest
    pointers across a channel is exactly the explicit-sharing decision the
    developer makes. *)

type 'a t

val create : Sched.t -> cap:int -> 'a t
(** [cap >= 1]. *)

val send : 'a t -> 'a -> unit
(** Blocks the current goroutine while the channel is full. *)

val recv : 'a t -> 'a
(** Blocks while empty. *)

val length : 'a t -> int

(** {2 Select}

    Go's [select] statement: wait on several channels at once. *)

type 'r case

val case : 'a t -> ('a -> 'r) -> 'r case
(** A receive arm: when the channel has a value, consume it and apply
    the continuation. *)

val select : Sched.t -> ?default:(unit -> 'r) -> 'r case list -> 'r
(** Take from the first ready arm (in list order). With [default], never
    blocks; without it, blocks the goroutine until an arm is ready. *)
