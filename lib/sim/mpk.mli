(** Intel MPK model: 16 protection keys and the PKRU register.

    PKRU encodes, per key [k], two bits: AD (access disable, bit [2k]) and
    WD (write disable, bit [2k+1]). Data accesses to a page tagged with key
    [k] are refused if AD is set, and writes are additionally refused if WD
    is set. Key 0 is conventionally the default key.

    The real ISA leaves instruction fetches unchecked; LB_MPK compensates
    with binary scanning and call-gate verification (as in ERIM). The
    simulation models that software check as part of the execution
    environment, not of this module. *)

val nr_keys : int
(** 16. *)

type pkru = int32
(** Register value; 2 bits per key. *)

val pkru_all_access : pkru
(** Every key readable and writable (all bits clear). *)

val pkru_deny_all : pkru
(** Every key access-disabled. *)

type key_rights = No_access | Read_only | Read_write

val set_key : pkru -> key:int -> key_rights -> pkru
val key_rights : pkru -> key:int -> key_rights

val allows : pkru -> key:int -> write:bool -> bool
(** [allows pkru ~key ~write] is the hardware data-access check. *)

val pp_pkru : Format.formatter -> pkru -> unit

(** {2 Key allocation (kernel side)} *)

type allocator

val allocator : unit -> allocator
(** Fresh allocator; key 0 is pre-allocated as the default key. *)

val pkey_alloc : allocator -> (int, string) result
(** Allocate an unused key, or [Error] when all 16 are in use. *)

val pkey_free : allocator -> int -> (unit, string) result
