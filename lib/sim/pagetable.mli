(** A per-address-space page table: virtual page number -> {!Pte.t}.

    The simulation keeps one page table per LB_VTX execution environment
    and a single shared page table for LB_MPK (whose environments differ
    only in the PKRU register value). *)

type t

val create : name:string -> t
(** A fresh, empty table with a process-unique {!id}. *)

val id : t -> int
(** The table's identity: distinct for every table {!create} or {!clone}
    returns. The TLB model keys translations by it, and a CR3 move is a
    change of id. *)

val name : t -> string
(** A label for messages and reports; two tables may share one. *)

val map : t -> vpn:int -> Pte.t -> unit
(** Install an entry. Raises [Invalid_argument] if [vpn] is mapped. *)

val unmap : t -> vpn:int -> unit
(** Remove an entry entirely. Raises [Invalid_argument] if absent. *)

val walk : t -> vpn:int -> Pte.t option
(** Lookup; [None] when the vpn has no entry. A non-present entry is
    still returned (callers must check {!Pte.t.present}). *)

val protect : t -> vpn:int -> Pte.perms -> unit
(** Change access rights of a mapped page. *)

val set_present : t -> vpn:int -> bool -> unit
(** Toggle the present bit (the LB_VTX transfer fast path). *)

val set_pkey : t -> vpn:int -> int -> unit
(** Retag a page with an MPK key (0..15). *)

val clone : t -> name:string -> t
(** Deep copy (fresh [Pte.t] records, shared frames): used by LB_VTX to
    derive per-enclosure page tables from the trusted one. *)

val pp : Format.formatter -> t -> unit
