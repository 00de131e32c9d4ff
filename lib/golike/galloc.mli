(** The Go-like dynamic memory allocator ([mallocgc]).

    The heap is divided into fixed-size spans. Spans are carved out of
    larger chunks obtained from the OS with [mmap] and are dynamically
    assigned to package arenas; each assignment (and each reuse of a freed
    span by another package) calls LitterBox's [Transfer] hook so every
    execution environment sees the new ownership (paper §5.1).

    When LitterBox is active, the chunk-refill [mmap] runs as a controlled
    excursion to the trusted environment (the runtime, not the enclosed
    code, owns the address space). *)

val span_bytes : int
(** 4 pages (16 KiB) per span; the OS hands out chunks of 10 spans. *)

type t

val create :
  machine:Encl_litterbox.Machine.t ->
  lb:Encl_litterbox.Litterbox.t option ->
  unit ->
  t
(** [lb = None] is the unmodified-Go baseline: no transfers, plain
    syscalls. *)

val alloc : t -> pkg:string -> int -> int
(** [alloc t ~pkg size] returns the address of [size] fresh bytes in
    [pkg]'s arena. Small objects share the package's current span; large
    objects get dedicated spans. *)

val release_arena : t -> pkg:string -> unit
(** Return all of a package's spans to the central free list; subsequent
    allocations (by any package) may reuse them, triggering transfers
    across packages. *)

val spans_of : t -> pkg:string -> int
(** Number of spans currently assigned to the package's arena. *)

val alloc_count : t -> int
val transfer_count : t -> int
(** Transfers issued by this allocator (0 for the baseline). *)
