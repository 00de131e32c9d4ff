(** Address-space management for the simulated process.

    One {!t} describes the single virtual address space of the application.
    Several page tables can view that address space: LB_MPK uses exactly
    one; LB_VTX registers the trusted page table plus one clone per
    enclosure. Mapping operations apply to {e all} registered page tables
    (same frames); permission, protection-key, and present-bit changes can
    be applied globally or to one table. *)

type t

val create : phys:Phys.t -> base:int -> t
(** [base] is the first virtual address handed out (page aligned). *)

val phys : t -> Phys.t
val add_pt : t -> Pagetable.t -> unit

val map_at : t -> addr:int -> len:int -> perms:Pte.perms -> unit
(** Back the (page-aligned) range with fresh zeroed frames and install
    entries in every registered page table. Raises [Invalid_argument],
    changing nothing, if any page of the range is already mapped or lies
    outside {!Vpn_map.in_range}. *)

val map : t -> len:int -> perms:Pte.perms -> int
(** {!map_at} at the next free address, which then moves past the range;
    returns the address. Raises [Invalid_argument], changing nothing (the
    next free address included), when the range passes the end of the
    address space. *)

val unmap : t -> addr:int -> len:int -> unit
(** Remove the range from every page table and free the frames. Raises
    [Invalid_argument], changing nothing, if any page of the range is not
    mapped or lies outside {!Vpn_map.in_range}. *)

val protect : t -> ?pt:Pagetable.t -> addr:int -> len:int -> Pte.perms -> unit
(** Change permissions in one table, or all when [pt] is not given. *)

val set_pkey : t -> addr:int -> len:int -> int -> unit
(** Retag the range (all page tables — key tags live in the PTEs). Raises
    [Invalid_argument], changing nothing, if any page of the range is not
    mapped or the key is outside 0–15. *)

val set_present : t -> pt:Pagetable.t -> addr:int -> len:int -> bool -> unit

val page_span : addr:int -> len:int -> int * int
(** [(first_vpn, last_vpn)] covered by the byte range, flooring as
    {!Cpu} does (a negative address is on a negative page) and without
    overflow for any length; exposed for tests. *)

val is_mapped : t -> addr:int -> bool
