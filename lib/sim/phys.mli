(** Simulated physical memory: a growable store of 4 KiB page frames.

    Frames are identified by physical page numbers (PPNs). The store backs
    every virtual address space in the simulation; page tables map virtual
    page numbers to PPNs allocated here.

    Frames share storage until written. A frame may read through another
    frame's bytes; its first write gives it its own copy, so a write to
    one frame never shows in any other. Two cases make frames share:

    - {!alloc_page}: a new frame shares one page of zeros, as the zero
      page backs Linux anonymous mappings, so allocating reserves only a
      PPN and the frame gets its own zeroed 4 KiB at its first write;
    - {!share_page}: a whole-page copy makes the destination share the
      source's storage instead of moving its bytes.

    Nothing but host memory tells a sharing frame from one with its own
    storage: every access to an allocated frame behaves the same either
    way.

    Every access raises [Invalid_argument] for a PPN never allocated, a
    freed PPN, or a byte range outside the frame (for a sharing frame
    too). *)

val page_size : int
(** 4096 bytes. *)

val page_shift : int
(** 12: [page_size = 1 lsl page_shift]. *)

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
    sharing storage or not. *)

val read8 : t -> ppn:int -> off:int -> int
val write8 : t -> ppn:int -> off:int -> int -> unit

val read64 : t -> ppn:int -> off:int -> int64
(** Little-endian; [off] must leave 8 bytes within the frame. *)

val write64 : t -> ppn:int -> off:int -> int64 -> unit

val sign64 : t -> ppn:int -> off:int -> int
(** [Int64.compare (read64 t ~ppn ~off) 0L], without boxing the word. *)

val add64 : t -> ppn:int -> off:int -> int -> unit
(** [write64] of [read64] plus the int (two's complement, wrapping as
    [Int64.add] does), without boxing the word. *)

val blit_to_bytes : t -> ppn:int -> off:int -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes t ~ppn ~off dst dst_off len] copies out of one frame;
    the range must not cross the frame boundary. *)

val blit_of_bytes : t -> ppn:int -> off:int -> Bytes.t -> int -> int -> unit
(** Copy bytes into one frame; same boundary rule. *)

val blit : t -> src:int -> src_off:int -> dst:int -> dst_off:int -> int -> unit
(** [blit t ~src ~src_off ~dst ~dst_off len] copies [len] bytes from
    frame [src] to frame [dst]; neither range may cross its frame's
    boundary. With [src = dst] the ranges may overlap and move as
    [memmove] does. *)

val share_page : t -> src:int -> dst:int -> unit
(** From now on frame [dst] reads exactly as frame [src] does, until
    either is written: a whole-page copy that moves no byte. [src = dst]
    is a no-op. *)
