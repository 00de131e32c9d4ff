(** Simulated physical memory: a growable store of 4 KiB page frames.

    Frames are identified by physical page numbers (PPNs). The store backs
    every virtual address space in the simulation; page tables map virtual
    page numbers to PPNs allocated here.

    Frames are demand-zero, as Linux anonymous mappings are: allocating a
    frame only reserves its PPN, and the frame reads as zeros until its
    first write gives it its own zeroed 4 KiB. Nothing but host memory
    tells an untouched frame from a written one: every access to an
    allocated frame behaves the same either way.

    Every access raises [Invalid_argument] for a PPN never allocated, a
    freed PPN, or a byte range outside the frame (for an untouched frame
    too). *)

val page_size : int
(** 4096 bytes. *)

type t

val create : unit -> t

val alloc_page : t -> int
(** Allocate a frame that reads as zeros; returns its PPN. Freed PPNs are
    reused first. *)

val free_page : t -> int -> unit
(** Return a frame to the free list. Double frees raise
    [Invalid_argument]. *)

val page_count : t -> int
(** Number of frames currently allocated (live, not freed), whether
    written or not. *)

val read8 : t -> ppn:int -> off:int -> int
val write8 : t -> ppn:int -> off:int -> int -> unit

val read64 : t -> ppn:int -> off:int -> int64
(** Little-endian; [off] must leave 8 bytes within the frame. *)

val write64 : t -> ppn:int -> off:int -> int64 -> unit

val blit_to_bytes : t -> ppn:int -> off:int -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes t ~ppn ~off dst dst_off len] copies out of one frame;
    the range must not cross the frame boundary. *)

val blit_of_bytes : t -> ppn:int -> off:int -> Bytes.t -> int -> int -> unit
(** Copy bytes into one frame; same boundary rule. *)
