(** Seccomp: install and evaluate BPF system-call filters.

    The LB_MPK backend compiles all enclosure filters into one program that
    dispatches on the PKRU value found in the seccomp data (the paper's
    kernel patch exposes PKRU to seccomp), then whitelists the permitted
    system-call numbers for that execution environment — optionally
    constraining the first argument, which implements the §6.5 mitigation
    "extend the sysfilter categories to only allow connect system calls to
    a list of pre-defined IP addresses". *)

type rule = {
  sysno : Sysno.t;
  arg0_allowed : int list option;
      (** [None]: any arguments; [Some l]: argument 0 must be one of [l]. *)
}

val rule : ?arg0:int list -> Sysno.t -> rule

type env_filter = { pkru : Mpk.pkru; rules : rule list }
(** Allowed system calls for the execution environment whose PKRU value is
    [pkru]; everything else kills the program. *)

val compile : trusted_pkrus:Mpk.pkru list -> env_filter list -> Bpf.program
(** Build the dispatch program: the trusted PKRU values are allowed
    everything (placed first, so they decide within a few instructions —
    the fast path); each listed environment gets its whitelist; an unknown
    PKRU value is killed. The result is validated. *)

type t

val create : unit -> t
val install : t -> Bpf.program -> (unit, string) result
(** Validates and installs; a second install replaces the filter (the
    simulation models a single-filter seccomp for simplicity). *)

val installed : t -> bool
val check : t -> Bpf.data -> Bpf.action
(** [Allow] when no filter is installed. *)

(** {2 Verdict cache (fast path)}

    Memoizes [(PKRU, nr, arg0) -> action]. The key covers every field a
    program built by {!compile} can load, so a hit is always the verdict
    a full evaluation would return — including the per-IP [connect]
    rules, which dispatch on argument 0. The cache is flushed whenever
    the installed program changes ({!install}) and on explicit
    {!invalidate} (rights-vector changes). Inactive while the fastpath
    knob is off: {!check_memo} then always evaluates, and its outcome is
    neither a hit nor a miss.

    The cache is {e per simulated core} (like a real per-CPU cache, so
    no cross-core locking is being hand-waved away): the kernel passes
    the core the trap arrived on, each core warms its own verdicts, and
    invalidation shoots down every core's cache at once. The kernel
    counts hits and misses machine-wide from {!check_memo}'s outcome
    ([Kernel.seccomp_cache_stats]).

    Each core's table is keyed exactly by the three fields — the PKRU
    as its 32-bit pattern, the syscall number and the whole of arg0, of
    any sign or size — and hashed and compared as ints, with no
    polymorphic hashing on the trap path. The three do not pack
    losslessly into one int, so the key stays a record. *)

type outcome =
  | Hit  (** verdict came from the cache *)
  | Evaluated of int  (** full evaluation; payload is BPF steps run *)

val check_memo : ?core:int -> t -> Bpf.data -> Bpf.action * outcome
(** Evaluate the installed filter, consulting [core]'s verdict cache
    first when the fast path is enabled (default core 0 — the
    single-core machine). With the fast path on, [Hit] is a cache hit
    and [Evaluated] a miss. No filter installed: [(Allow, Evaluated 0)]. *)

val invalidate : t -> unit
(** Drop every core's cached verdicts (counted once in
    {!invalidation_count}). *)

val invalidation_count : t -> int

(** {2 Label-resolving assembler}

    Helper used by [compile]; exposed for tests and for hand-written
    filters. *)
module Asm : sig
  type item =
    | Insn of Bpf.insn
    | Label of string
    | Jeq_lbl of int * string  (** if A = k goto label, else fall through *)
    | Jmp_lbl of string

  val assemble : item list -> Bpf.program
  (** Resolve labels to relative offsets. Raises [Invalid_argument] on
      unknown or duplicate labels. *)
end
