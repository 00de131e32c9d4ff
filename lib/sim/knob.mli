(** The optimization knobs: flags gating semantics-preserving fast
    paths. Enforcement (verdicts, faults, quarantine, workload syscalls)
    is identical with any knob on or off; a knob changes only which
    costs are charged. The knobs live in [lib/sim] because the kernel,
    LitterBox and the runtimes all read them.

    A knob starts from its environment variable: ["0"], ["false"] or
    ["off"] disable it, any other value enables it, unset means its
    default. The value is mutable so tests and tools can run the same
    workload both ways in one process. *)

type t = private {
  name : string;  (** command-line spelling, e.g. ["fastpath"] *)
  env : string;  (** e.g. ["ENCL_FASTPATH"] *)
  default : bool;
  mutable value : bool;  (** hot paths read this field directly *)
}

val fastpath : t
(** Switch elision, the seccomp verdict cache, transfer coalescing and
    enclosure-affinity scheduling. *)

val sysring : t
(** The batched syscall ring: one crossing drains a batch. *)

val zerocopy : t
(** The zero-copy data plane: rx-ring views, sendfile, pylike
    [localcopy] elision. *)

val all : t list
(** fastpath, sysring, zerocopy. *)

val find : string -> t option
val set : t -> bool -> unit

val with_value : t -> bool -> (unit -> 'a) -> 'a
(** Run [f] with the knob forced to [b], restoring it on exit. *)
