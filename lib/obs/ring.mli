(** Fixed-capacity ring buffer.

    Pushing past the capacity silently overwrites the oldest element;
    {!dropped} reports how many were lost, so exporters can state
    truncation explicitly instead of pretending full coverage. The slots
    grow by doubling up to the capacity as elements arrive, so a ring
    nothing is recorded into costs a few words. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int
(** Elements currently retained ([min pushed capacity]). *)

val pushed : 'a t -> int
(** Total elements ever pushed. *)

val dropped : 'a t -> int
(** [max 0 (pushed - capacity)]: overwritten elements. *)

val push : 'a t -> 'a -> unit
val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)

val clear : 'a t -> unit
(** Empty the ring and release its slots. *)
