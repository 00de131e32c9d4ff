(** Maps keyed by virtual page number, for the simulated MMU's page
    tables, the kernel's frame ownership map and LitterBox's section
    registry.

    A radix layout: a directory of fixed-size leaves of 256 slots, each
    slot an ['a option]. A vpn's leaf is [vpn lsr 8] and its slot in the
    leaf is [vpn land 255]. The directory grows by doubling to cover the
    highest vpn added (one word per 256 pages below it); a leaf no vpn
    has been added to is the empty array, and a leaf is never freed. A
    lookup is therefore two array loads and allocates nothing: it
    returns the option stored in the slot.

    Vpns lie in [\[0, 2^36)], which covers every page of a 48-bit
    address space. A vpn outside that range is never present: lookups
    answer [None] or [false], and {!add} raises [Invalid_argument]. *)

type 'a t

val in_range : int -> bool
(** [in_range vpn] is [0 <= vpn < 2^36]: whether {!add} accepts [vpn]. *)

val create : unit -> 'a t
(** An empty map. *)

val find_opt : 'a t -> int -> 'a option
(** The value at [vpn], if any. Allocates nothing. *)

val mem : 'a t -> int -> bool

val add : 'a t -> int -> 'a -> unit
(** Bind [vpn], replacing any previous binding. Raises
    [Invalid_argument] when [vpn] is not {!in_range}. *)

val remove : 'a t -> int -> unit
(** Unbind [vpn]; a no-op when it is absent. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** In ascending vpn order. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** A fresh map with the same vpns, each value passed through [f]. *)
