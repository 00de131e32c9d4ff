(** The Go-like language runtime: program construction ("compiler" +
    linker front door), startup, and the services generated code uses —
    allocation tagged with the calling package, enclosure invocation,
    system calls, goroutines, and GC.

    A program is a set of package definitions. Function bodies are OCaml
    closures, but every function has a linked symbol with an address in
    its package's text section: {!in_function} performs the
    instruction-fetch check against the current execution environment
    before running the body, which is how calling a function of an
    unmapped package faults. *)

module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel

type t

(** {2 Program definition} *)

type pkgdef

val package :
  string ->
  ?imports:string list ->
  ?functions:(string * int) list ->
  ?globals:(string * int * Bytes.t option) list ->
  ?constants:(string * int * Bytes.t option) list ->
  ?enclosures:Encl_elf.Objfile.enclosure_decl list ->
  ?init:(t -> unit) ->
  unit ->
  pkgdef
(** [functions] are [(name, code size)] pairs. *)

type config = {
  backend : Lb.backend option;  (** [None] = unmodified-Go baseline *)
  costs : Costs.t;
  clustering : bool;  (** meta-package clustering (ablation switch) *)
  cores : int;
      (** simulated cores the machine is sharded into (see
          {!Sched}); 1 = the classic single-core machine *)
}

val baseline : config
val with_backend : Lb.backend -> config
(** Both default [cores] to [ENCL_CORES] when that variable holds an
    int >= 1 (the CI matrix's knob), else 1. Benchmarks pin the field
    explicitly so committed baselines never depend on the
    environment. *)

val boot :
  config -> packages:pkgdef list -> entry:string -> (t, string) result
(** Compile (validating enclosure policies), link, create the machine,
    initialize LitterBox when a backend is selected, and run package
    [init] functions in dependency order. *)

(** {2 Accessors} *)

val machine : t -> Machine.t
val lb : t -> Lb.t option
val image : t -> Encl_elf.Image.t
val sched : t -> Sched.t
val galloc : t -> Galloc.t
val clock : t -> Clock.t

(** {2 Services for generated code} *)

val in_function : t -> pkg:string -> fn:string -> (unit -> 'a) -> 'a
(** Instruction-fetch check on the function's symbol, then run the body
    with the allocation context set to [pkg]. *)

val alloc : t -> int -> Gbuf.t
(** Allocate in the current package's arena (mallocgc tagged with the
    caller's package identifier, paper §5.1). *)

val alloc_in : t -> pkg:string -> int -> Gbuf.t

val syscall : t -> K.call -> (int, K.errno) result
(** Through LitterBox when active, straight to the kernel otherwise. *)

val syscall_exn : t -> K.call -> int
(** Like {!syscall} but failwith on errno (for workloads that expect
    success). *)

val syscall_batched : t -> K.call -> (int, K.errno) result
(** Like {!syscall}, but routed through the enclosure's syscall ring
    when {!Encl_sim.Sysring} is on and LitterBox is active: the call is
    submitted without a privilege crossing, the calling goroutine parks
    on the completion, and the scheduler drains the accumulated batch in
    a single crossing once every goroutine has suspended. Results,
    errnos and enclosure faults are exactly {!syscall}'s; with the ring
    off this {e is} {!syscall}. *)

val syscall_nowait : t -> K.call -> unit
(** Submit a call whose result the caller discards (housekeeping:
    epoll_ctl, futex wakes, clock reads). With the ring on it completes
    at the next drain point without suspending the caller; off, it is
    [ignore (syscall t call)]. A denial still faults and is accounted
    identically — but surfaces at the drain point rather than here. *)

(** {2 The rx view ring (zero-copy data plane)} *)

val netring_pkg : string
(** ["netring"] — the package that owns the ring arena. A program using
    {!attach_netring} must define it; an enclosure reading descriptors
    needs ["netring:R"] in its policy. *)

type netring
(** Ring geometry handle returned by {!attach_netring}. *)

val attach_netring : t -> ?slots:int -> ?slot_bytes:int -> unit -> netring
(** Allocate [slots * slot_bytes] bytes in {!netring_pkg} (mallocgc
    transfers the spans to that package, batched) and attach it as the
    kernel's rx descriptor ring. Defaults: 16 slots of 16 KiB payload
    plus the {!K.ring_hdr_bytes} header. *)

val netring_recv :
  t -> netring -> fd:int -> ((int * Gbuf.t) option, K.errno) result
(** Fill the next descriptor from [fd] ({!K.call.Recv_ring} — recvfrom
    to the seccomp filter) and return [(slot, payload view)];
    [Ok None] is EOF. The payload buffer aliases kernel-filled ring
    memory the caller holds R on — read it in place, consume with
    {!netring_consume}, never write it. [EAGAIN] means no data {e or}
    every descriptor is granted (backpressure: consume first). *)

val netring_consume : t -> int -> unit
(** Release a granted descriptor back to the kernel — an io_uring-style
    shared-memory head advance, not a system call. *)

val with_enclosure : t -> string -> (unit -> 'a) -> 'a
(** Call a closure inside the named enclosure (linked statically). In
    baseline mode this is a vanilla closure call. *)

val go : t -> (unit -> unit) -> unit
val yield : t -> unit
val run_main : t -> (unit -> unit) -> unit
val kick : t -> unit

val go_supervised : t -> (unit -> unit) -> int
(** Spawn a panic/recover-style goroutine: any exception kills only this
    fiber; query the outcome with {!fiber_result} using the returned id.
    See {!Sched.spawn_supervised}. *)

val fiber_result : t -> int -> Sched.exit_status option

val absorb_fault : t -> exn -> string option
(** [Some message] when the exception is an enclosure fault (accounting
    it if not yet accounted), [None] otherwise — app-level handlers use
    this to contain a faulting request without guessing exception
    shapes. Delegates to {!Lb.absorb_fault} when a backend is active. *)

val gc : t -> unit
(** A stop-the-world collection pass: runs with full access to program
    resources in a trusted execution environment (paper §5.1); cost
    proportional to the number of live spans. *)

val global : t -> pkg:string -> string -> Gbuf.t
(** The buffer of a linked global/constant symbol. *)

val stats : t -> string
(** One-line summary: switches, transfers, faults, syscalls, clock. *)

(** {2 The run audit} *)

val audit : t -> string list
(** The invariants every finished run keeps, one line per broken one
    naming it and both values; [[]] when all hold. Each compares
    quantities two layers derive independently:
    - the syscall ring: submitted = drained + pending, and nothing is
      pending (["N syscall-ring entries never drained"]);
    - the rx view ring: granted = consumed + reclaimed + in flight, and
      nothing is in flight (["rx ring unbalanced"]);
    - [Machine.bytes_copied] equals the registry's ["bytes_copied.app"];
    - ["syscall.allowed"] + ["syscall.denied"] - guest denials = the
      kernel's syscall count - its [exit] calls;
    - the per-core steal tallies sum to the steal total, and one core
      steals nothing;
    - with observability on: no span was dropped, there is one
      attribution ledger per core, each core's cells sum to its total,
      the core totals sum to the machine's, and that equals the elapsed
      clock;
    - with the witness on and LitterBox attached: the witness's allowed
      and denied totals, and each category's, equal the registry's
      ["syscall.allowed"], ["syscall.denied"] and ["syscall.<cat>"].

    [trace_dump], the A/B runner, the policy miner, chaos and the
    enforcement oracle hold every run to it. *)
