(** The defense registry: one switch per hardening mechanism, modelled
    on the attack taxonomy of {e Garmr: defending the gates of PKU-based
    sandboxing} and {e Making 'syscall' a privilege, not a right}.

    Every defense defaults to {e on} and adds zero simulated cost — the
    checks are flag tests and integer compares on paths that already
    exist, so benign traffic behaves bit-identically whether or not the
    corpus is ever run. Each flag is load-bearing, not dead code:
    disabling it re-opens the specific attack in [lib/attack] it is
    paired with ([test_attack] proves this per defense).

    The initial state comes from [ENCL_DEFENSES_OFF], a comma-separated
    list of {!name}s to disable (unknown names are ignored); tests and
    [bin/attacks.exe prove-defenses] flip individual flags at runtime. *)

type t =
  | Gate_integrity
      (** Only registered call gates may switch the execution
          environment (PKRU write / CR3 move / SFI tag). *)
  | Syscall_origin
      (** A trap from untrusted code must originate inside a call gate
          ("syscall as a privilege"). *)
  | Mm_guard
      (** [mmap]/[munmap]/[pkey_*] are a trusted-runtime privilege;
          enclosures may not reshape the address space. *)
  | Ring_integrity
      (** Sysring entries are evaluated under their submitter's
          environment and drained before the submitter's epilog. *)
  | Resume_check
      (** The scheduler may not resume into a quarantined enclosure. *)
  | Cache_epoch
      (** Verdict-cache entries die when the seccomp program or a
          page's key changes. *)
  | Sfi_mask  (** The SFI mask-and-bounds sequence runs on every access. *)
  | Tainted_boundary
      (** Tainted boundary values must pass verification before the
          trusted side consumes them. *)

val all : t list
val name : t -> string  (** kebab-case identifier, e.g. ["gate-integrity"] *)

val of_string : string -> t option
(** Accepts the kebab-case {!name} (underscores tolerated, case-folded). *)

val enabled : t -> bool
val set : t -> bool -> unit

val with_disabled : t -> (unit -> 'a) -> 'a
(** Run [f] with defense [d] off, restoring the previous state on exit. *)
