(** LitterBox: the language-independent enclosure-enforcement backend
    (paper §4, §5.3).

    The API mirrors the paper's six entry points:
    - {!init} (and, for dynamic languages, {!register_package} /
      {!register_enclosure}, which may be called repeatedly);
    - {!prolog} / {!epilog}: the switch into and out of an enclosure's
      execution environment;
    - {!syscall}: system-call filtering ([FilterSyscall]);
    - {!transfer}: dynamic repartitioning of heap memory between package
      arenas;
    - {!execute}: environment switch for user-level thread scheduling.

    Four backends are supported, each an implementation of
    {!Backend.S}: {!Mpk} (PKRU switches, seccomp filtering indexed by
    PKRU, [pkey_mprotect] transfers), {!Vtx} (per-enclosure page
    tables, switches as guest system calls, host system calls via
    hypercall), {!Lwc} (kernel-held per-context memory views, switches
    as ordinary system calls) and {!Sfi} (software fault isolation:
    near-zero-cost sandbox crossings, every load/store paying a
    mask-and-bounds check — the mirror-image trade-off of VTX). *)

type backend = Backend.t = Mpk | Vtx | Lwc | Sfi

val backend_name : backend -> string
(** [Lwc] is the hardware-free alternative the paper's related-work
    section sketches (light-weight contexts): per-enclosure memory views
    held by the kernel, switches as ordinary system calls — no MPK keys,
    no VM, correspondingly slower switches but baseline-cost system
    calls. [Sfi] is RLBox/Wasm-style instrumentation: no hardware
    switches at all; enforcement rides the instrumented access sequence
    and the ordinary seccomp trap path (dispatching on a synthetic
    per-sandbox tag in place of the PKRU). *)

exception Fault of { reason : string; enclosure : string option }
(** An enclosure violated its policy, or a switch was rejected. "A fault
    stops the execution of the closure and aborts the program." *)

exception Quarantined of { enclosure : string; faults : int }
(** Raised by {!prolog} when the target enclosure has exhausted its fault
    budget: fail-closed degradation — the enclosure can no longer be
    entered (no cost is charged, no new fault recorded) until a trusted
    caller {!unquarantine}s it. *)

type t

(** {2 Initialization} *)

val init :
  machine:Machine.t -> backend:backend -> image:Encl_elf.Image.t ->
  ?binary_scan:(string * string) list ->
  ?clustering:bool ->
  unit ->
  (t, string) result
(** Bulk initialization for statically linked languages: loads the image,
    validates the configuration (alignment, overlap, policy
    satisfiability), computes every enclosure's memory view, clusters
    meta-packages, and programs the chosen hardware. [binary_scan] is the
    list of [(package, function)] sites found to write the PKRU register;
    LB_MPK refuses any outside ["litterbox.user"] (the ERIM-style scan,
    §5.3). [clustering] (default [true]) enables meta-package clustering;
    disabling it gives every package its own protection key, which makes
    LB_MPK initialization fail beyond 15 packages — the ablation
    motivating the paper's §5.3 optimization. *)

val machine : t -> Machine.t
val backend : t -> backend
val graph : t -> Encl_pkg.Graph.t

(** {2 Dynamic registration (Python-style frontends)}

    Each registration reprograms the backend, and either succeeds or
    changes nothing: its arguments are checked before anything is
    recorded, LB_MPK checks its protection-key budget before it assigns
    a cluster or a key, and a refused registration is rolled back.
    LB_MPK reprograms from the trusted side whatever environment is
    current — a lazy import inside an enclosure included: its page
    tagging goes through LitterBox's retag gate under the trusted
    environment, and once the new seccomp program is installed the
    current stack's rebuilt environment is re-installed through the
    switch gate, so no code keeps running under a PKRU the program no
    longer knows. *)

val register_package :
  t ->
  name:string ->
  imports:string list ->
  sections:Encl_elf.Section.t list ->
  (unit, string) result
(** Register a lazily imported module and its (already mapped) sections.
    Existing enclosure views are recomputed: by default new packages
    become available to executing enclosures unless their policies
    restrict them (paper §5.2). Counts toward the delayed-initialization
    cost. Refused for a name already in the package graph, an import
    that is not, or a section sharing a page with a registered one. *)

val register_enclosure :
  t ->
  name:string ->
  owner:string ->
  deps:string list ->
  policy:string ->
  closure_addr:int ->
  (unit, string) result
(** [deps] are the closure's direct dependencies (what its body invokes);
    the default view is their transitive closure. *)

val add_import : t -> importer:string -> imported:string -> (unit, string) result
(** Record a new import edge discovered at run time and recompute views. *)

(** {2 Policy overrides (the policy miner's enforcement hook)} *)

val set_policy_override : enclosure:string -> string -> unit
(** Replace the policy literal an enclosure named [enclosure] would be
    built with — consulted whenever an enclosure descriptor is created
    ({!init} for static image enclosures, {!register_enclosure} for
    dynamic ones). Process-global, like the defense registry: the policy
    miner's verify and minimality probes re-boot whole runtimes around
    it. Remember to {!clear_policy_overrides} afterwards. *)

val clear_policy_overrides : unit -> unit

(** {2 Switches}

    A switch target is a {!handle}. On its first entry, and again
    after any registration, it reads the enclosure record and whether
    its call site is in the [.verif] list for the prolog and the
    epilog; so one made before its enclosure is registered works once
    it is. Entering through a resolved handle checks the same things
    {!prolog} always checked — the call site, the enclosure's
    existence, quarantine, the nesting rule — without a name lookup,
    and from the same enclosing stack as its last entry allocates
    nothing. *)

type handle

val handle : name:string -> site:string -> handle
(** The switch target "enclosure [name], called from [site]", resolved
    against a LitterBox the first time it is entered there. Never
    fails: an unknown name or an unlisted site faults when entered, as
    {!prolog} does. *)

val enter : t -> handle -> unit
(** The prolog through a handle: validates the call site against the
    [.verif] list and enforces the nesting rule (a switch may only enter
    an equal-or-more-restrictive environment). Raises {!Fault} (or
    {!Quarantined}) otherwise. *)

val leave : t -> handle -> unit
(** The epilog through a handle: leave the innermost enclosure,
    returning to the enclosing (less restrictive) environment. *)

val call : t -> handle -> ('a -> 'b) -> 'a -> 'b
(** [call t h f x]: {!enter}, [f x], {!leave} on both exits — the body
    of every enclosure call. The body's exception is re-raised once the
    enclosure is left; an exception from {!leave} itself surfaces as
    [Fun.Finally_raised], as it did from [Fun.protect]. No closure. *)

val prolog : t -> name:string -> site:string -> unit
(** {!enter} through a handle made for this one call. *)

val epilog : t -> site:string -> unit
(** {!leave} for a call site given by name. *)

val in_enclosure : t -> string option
(** Name of the innermost active enclosure, if any. *)

(** {2 System calls} *)

val syscall : t -> Encl_kernel.Kernel.call ->
  (int, Encl_kernel.Kernel.errno) result
(** Dispatch a system call under the current environment's filter. LB_MPK
    defers to the kernel's seccomp program (killed calls raise
    {!Fault}); LB_VTX checks the filter in the guest OS and pays a
    hypercall round-trip for permitted calls. *)

(** {2 Syscall ring}

    An io_uring-style submission/completion queue (see
    {!Encl_sim.Sysring}): untrusted code enqueues syscall descriptors
    without a privilege crossing and a single drain — one kernel trap
    (MPK/LWC) or one VM EXIT (VTX) — dispatches the whole batch, with
    per-entry filtering inside the kernel. Each entry captures the
    enclosure stack at submit time, so it is always evaluated under the
    filter in force when it was enqueued; {!epilog} drains the queue
    before the innermost environment leaves the stack (no entry may be
    evaluated under a later enclosure's filter, and none outlives its
    enclosure). Verdicts, fault/quarantine accounting and errno results
    are identical to {!syscall}'s, in submission order. *)

type completion
(** One submitted call's completion cell: pending until a drain posts
    either the kernel's result or the {!Fault} the direct path would
    have raised. *)

val submit : t -> Encl_kernel.Kernel.call -> completion
(** Enqueue a call under the current environment. Drains first when the
    queue is full (capacity 64), so submission order is preserved. *)

val drain : t -> unit
(** Flush the submission queue (no-op when empty): one crossing for the
    batch, then per-entry verdict + execution in submission order.
    Denied entries complete as stored faults; they are accounted
    (fault log, counters, quarantine budget) here, not when awaited. *)

val completion_ready : completion -> bool

val await : t -> completion -> (int, Encl_kernel.Kernel.errno) result
(** The completed result, draining first if still pending. Re-raises the
    stored {!Fault} for a denied/killed entry — the same exception the
    direct {!syscall} path raises at the call site. *)

val ring_pending : t -> int
(** Entries submitted but not yet drained, summed over every core's
    ring: each simulated core owns a private submission queue (selected
    by the clock's lane at submit time), batching its own traffic and
    draining it on its own lane. *)

(** {2 Runtime hooks} *)

val transfer :
  t -> addr:int -> len:int -> to_pkg:string -> site:string -> unit
(** Move a memory section into [to_pkg]'s arena, updating every execution
    environment (paper §4.2). Must come from a verified call-site. *)

val transfer_range :
  t -> addr:int -> len:int -> chunk:int -> to_pkg:string -> site:string -> unit
(** Transfer [len] bytes at [addr] in [chunk]-byte pieces. Registry and
    enforcement effects are exactly those of the equivalent loop of
    {!transfer} calls (one Arena section per chunk), but with the fast
    path enabled the adjacent chunks share a single hardware update —
    one [pkey_mprotect] (MPK) or page-table pass (VTX/LWC) over the
    whole range. [addr] and [chunk] must be page-aligned for the batched
    update to cover the same pages as the loop. With
    {!Encl_sim.Fastpath.enabled} false this {e is} the loop. *)

val owner_of : t -> addr:int -> string option
(** Which package owns the page containing [addr] (section registry). *)

type env_ref
(** A captured execution-environment stack, carried by a user-level
    thread. *)

val capture_env : t -> env_ref
val trusted_env_ref : t -> env_ref

val env_scope : env_ref -> string
(** Innermost enclosure name of a captured environment, or ["trusted"] —
    the attribution lane a fiber carrying it runs in. *)

val env_matches : t -> env_ref -> bool
(** Whether the current environment stack already equals the captured one
    (schedulers use this to skip redundant [execute] switches). *)

val env_refs_equal : env_ref -> env_ref -> bool
(** Whether two captured environment stacks denote the same enclosure
    nesting (the SMP scheduler's core-affinity comparison: does a
    fiber's environment match what a given core last had installed). *)

val install_core_env : t -> env_ref -> unit
(** SMP core hop: re-install the environment a core already had loaded
    when the interleaver last left it. Costs nothing, counts no switch
    and keeps the core's TLB warm — on real hardware each core has its
    own PKRU register and CR3, so moving the interleaver between cores
    rewrites nothing. The scheduler must only pass an environment this
    core previously installed through the costed paths ({!execute},
    {!prolog}); gate integrity is still enforced. *)

val execute : t -> env_ref -> site:string -> unit
(** Scheduler switch: resume the captured environment (paper's [Execute]
    hook). Unlike {!prolog}, this transition is not subject to the
    nesting rule — the scheduler may resume any previously captured
    (hence already validated) environment. *)

(** {2 Trusted excursions} *)

val apply_trusted : t -> ('a -> 'b) -> 'a -> 'b
(** [apply_trusted t f x]: a controlled switch to the trusted
    environment, [f x], and the switch back, paying the backend's
    switch costs both ways (used by runtimes for GC / reference-count
    updates on read-only objects, paper §5.2). The switch back runs on
    both exits; an exception from it surfaces as [Fun.Finally_raised].
    Allocates nothing itself. *)

val with_trusted : t -> (unit -> 'a) -> 'a
(** [apply_trusted t f ()]. *)

(** {2 Introspection} *)

val view_of : t -> string -> View.t option

val enclosed : t -> bool
(** Is an enclosure active? *)

val current_view : t -> View.t
(** The innermost active enclosure's view, an immutable value: a
    runtime may memoize what it derives from one by its physical
    identity, since registration and import install new views rather
    than mutate old ones. [Invalid_argument] when no enclosure is
    active. *)

val current_access : t -> string -> Types.access option
(** Access the innermost active enclosure has on a package; [None] when
    running trusted. Language runtimes use this to decide whether a
    metadata update (e.g. a reference count on a read-only object) needs
    a controlled switch to the trusted environment (paper §5.2). *)

val cluster : t -> Cluster.t
val enclosure_names : t -> string list

val enclosure_deps : t -> string -> string list option
(** Direct dependencies the named enclosure was declared with (the
    miner recomputes its base dependency-closure view from these). *)

(** {2 Counters}

    Every [*_count] below that has a [metrics.json] name is a read of
    that counter's total in the machine's registry
    ({!Encl_obs.Metrics}), its only home; the registry counts whether or
    not observability is enabled. *)

val switch_count : t -> int
(** ["switch"]. *)

val switch_elided_count : t -> int
(** How many of {!switch_count}'s switches took the elision fast path
    (target environment already installed; see {!Encl_sim.Fastpath}).
    Always [<= switch_count]; 0 with the fast path disabled.
    ["switch_elided"]. *)

val transfer_count : t -> int
(** ["transfer"]. *)

val transfer_coalesced_count : t -> int
(** How many of {!transfer_count}'s chunk transfers were batched by
    {!transfer_range} into shared hardware updates.
    ["transfer_coalesced"]. *)

val fault_count : t -> int
(** ["fault"]. *)

val ring_submitted_count : t -> int
val ring_drained_count : t -> int
(** Lifetime ring counters; [ring_submitted_count t =
    ring_drained_count t + ring_pending t] always holds.
    ["ring_submitted"] / ["ring_drained"]. *)

val ring_batches_count : t -> int
(** Non-empty per-core drains so far: each paid exactly one privilege
    crossing. ["ring_batches"]. A drain initiated on one core that
    flushes another core's non-empty ring (the IPI a real kernel would
    send) also counts ["ring_ipi"]; always 0 on one core. *)

val guest_denied_count : t -> int
(** Calls denied guest-side (VTX/LWC filter checks, direct or drained)
    that therefore never reached the kernel's syscall counters (each
    also counts ["syscall.denied"]). Trace checks use it to reconcile
    the verdict totals with the kernel count. *)

val vmexit_count : t -> int
(** VM EXITs taken so far (VTX backend; 0 elsewhere). *)

val vm_mode : t -> Vtx.mode option
(** The VT-x mode the application runs in (VTX backend; [None]
    elsewhere): [Non_root] except inside a hypercall. *)

val sfi_masked_access_count : t -> int
(** Instrumented loads/stores executed so far (SFI backend; 0
    elsewhere). ["sfi_masked_access"], fed by the SFI backend's access
    hook. *)

val sfi_guard_fault_count : t -> int
(** Masked accesses whose address escaped the sandbox and landed in a
    guard zone (each also recorded as an ordinary fault). *)

val note_tainted_verified : t -> unit
val note_tainted_rejected : t -> unit
(** Called by the {!Enclosure.Tainted} boundary layer for each
    successful / failed verification of a tainted value, so the counts
    sit with the rest of the enforcement telemetry
    (["tainted_verified"] / ["tainted_rejected"]). *)

val tainted_verified_count : t -> int
val tainted_rejected_count : t -> int

val witness : t -> Encl_obs.Witness.t
(** The machine's witness recorder ({!Encl_obs.Witness}): every tap in
    this runtime — the direct syscall path, the ring drains (attributed
    to the {e submitting} enclosure via the SQE), the retag excursion,
    transfers, trusted excursions, tainted-boundary verdicts, and the
    per-access CPU hook — records into it when witnessing is enabled. *)

val gate_violation_count : t -> int
(** Gate-hardening violations across the layers: forged environment
    writes and unregistered-gate entries (CPU call-gate integrity),
    syscalls killed by origin verification and mm-shaping calls denied
    to enclosures (kernel). ["gate_violation"], which every layer
    increments at its detection point; zero on benign traffic. *)

val fault_log : t -> string list
(** Root-cause traces of the faults seen so far, most recent first (the
    paper's LB_VTX "prints a trace of the root-cause"). Memory faults are
    annotated with the owning package of the offending address. Every
    fault — raised, CPU, or seccomp kill — contributes exactly one
    entry, matching {!fault_count}. *)

(** {2 Quarantine}

    Each enclosure carries a fault counter; when it reaches the
    LitterBox-wide budget the enclosure is {e quarantined} and further
    {!prolog} calls raise {!Quarantined} without entering it. The budget
    defaults to [max_int] (quarantine disabled). *)

val set_fault_budget : t -> int -> unit
(** Set the per-enclosure fault budget (>= 1, else [Invalid_argument]).
    Applies to faults recorded from then on. *)

val quarantined : t -> string -> bool

val enclosure_fault_count : t -> string -> int
(** Faults attributed to the named enclosure so far. *)

val unquarantine : t -> string -> (unit, string) result
(** Trusted reset: clear the enclosure's quarantine flag and its fault
    counter. Errors on an unknown enclosure name. *)

(** {2 Fault absorption} *)

val absorb_fault : t -> exn -> string option
(** [absorb_fault t e] is [Some message] when [e] belongs to the fault
    family ({!Fault}, {!Quarantined}, {!Cpu.Fault},
    {!Encl_kernel.Kernel.Syscall_killed}) and [None] otherwise. A
    {!Cpu.Fault} or seccomp kill that escaped the lower layers uncounted
    is recorded here (counter, log, obs, quarantine budget), attributed
    to the enclosure named by the faulting environment label; [Fault]
    and [Quarantined] were already accounted at their raise site. The
    supervisor layers (scheduler, [run_protected]) are its callers. *)

val describe_fault : exn -> string option
(** The baseline's description of a fault-family exception that can
    arise with no LitterBox at all ({!Cpu.Fault},
    {!Encl_kernel.Kernel.Syscall_killed}); [None] otherwise. Accounts
    nothing. The frontends' unprotected configuration uses it, so a
    seccomp kill reads the same with and without a backend. *)

val run_protected : t -> (unit -> 'a) -> ('a, string) result
(** Run [f], mapping enclosure faults ({!Fault}, {!Quarantined},
    {!Cpu.Fault}, seccomp kills) to [Error message]. The paper aborts
    the program; a library embedding reports the fault to its caller
    instead. *)
