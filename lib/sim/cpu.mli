(** The simulated CPU: an MMU that enforces the current execution
    environment on every guest memory access.

    An {e execution environment} pairs a page table with a PKRU value (and,
    in MPK mode, a software fetch check standing in for ERIM-style binary
    scanning / call-gate verification, since real MPK does not police
    instruction fetches). All simulated application memory traffic must go
    through this module so that enclosure violations fault exactly where
    hardware would fault. *)

type access_kind = Read | Write | Exec

val access_kind_name : access_kind -> string

type fault = {
  kind : access_kind;
  vaddr : int;
  env : string;  (** label of the faulting environment *)
  reason : string;
}

exception Fault of fault
(** Raised on any violation; the program is expected to abort (paper §2.2:
    "a fault stops the execution of the closure and aborts the program"). *)

val pp_fault : Format.formatter -> fault -> unit

type sfi_ctx = {
  sfi : Sfi.t;
  sfi_ok : write:bool -> vpn:int -> bool;
      (** does the masked address stay inside the sandbox's view? *)
}
(** SFI instrumentation context (LB_SFI): when an environment carries
    one, every data access runs the sandbox's mask-and-bounds-check
    sequence — {!Sfi.masked_access} charges the per-access cost and a
    predicate miss faults as a guard-zone hit. *)

type env = {
  label : string;
  pt : Pagetable.t;
  pkru : Mpk.pkru;
  exec_ok : (vpn:int -> bool) option;
      (** software fetch filter (MPK/SFI modes); [None] means PTE-only. *)
  sfi : sfi_ctx option;
      (** SFI instrumentation; [None] for every other backend. *)
}

val trusted_env : Pagetable.t -> env
(** Full-access environment over [pt] (PKRU all-access, no fetch filter). *)

type t

val create : phys:Phys.t -> clock:Clock.t -> env -> t

val env : t -> env

val set_env : t -> env -> unit
(** Raw environment switch; costs are accounted by the caller
    (LitterBox). Moving to a different page table (another
    {!Pagetable.id}, whatever its name) flushes the TLB model (a CR3
    write); changing only the PKRU value does not.

    Under {!Defense.Gate_integrity}, a switch issued while untrusted
    code (label prefix ["enc:"]) is executing outside a registered call
    gate is a forged [wrpkru]/CR3/tag write: it raises {!Fault} instead
    of switching (Garmr's call-gate integrity property). *)

val restore_env : t -> env -> unit
(** Re-install an environment the current core already owns. On real
    SMP every core has a private PKRU register and CR3, so moving the
    interleaver between cores rewrites nothing — the target core's
    protection state is still loaded. Unlike {!set_env} this never
    flushes the core's TLB (its entries were filled under this very
    environment); the gate-integrity rule still applies. Only the
    scheduler's core-hop path may use it, with an environment that was
    previously installed on this core via {!set_env}. *)

(** {2 Call-gate integrity}

    Registered gates model the scanned, write-protected gate pages of
    ERIM/Garmr: binary inspection has proven they restore the
    environment on every exit, so only code dynamically inside one may
    change the environment or trap to the kernel. *)

val untrusted_label : string -> bool
(** Is [label] an untrusted (enclosure) environment? True exactly for
    the ["enc:"] prefix every backend gives its enclosure envs. *)

val register_gate : t -> string -> unit
(** Mark [name] as a vetted gate site (done once at runtime init). *)

val with_gate : t -> name:string -> (unit -> 'a) -> 'a
(** Run [f] inside gate [name]. If {!Defense.Gate_integrity} is on and
    [name] was never registered, raises {!Fault} (and counts a gate
    violation) before [f] runs. Gates nest. *)

val in_gate : t -> bool
(** Is execution currently inside a registered gate? The kernel's
    syscall-origin check consults this at trap time. *)

val gate_violation_count : t -> int
(** Forged environment writes and unregistered-gate entries observed. *)

val set_gate_violation_hook : t -> (string -> unit) option -> unit
(** Observer called (before the fault is raised) on each gate
    violation; the machine mirrors these into the obs counter
    ["gate_violation"]. Must not raise. *)

val tlb : t -> Tlb.t
(** The {e current core's} translation cache (statistics only; see
    {!Tlb}). Each simulated core owns a private TLB, selected by the
    clock's lane; on a single-core machine this is always the one TLB
    the machine ever had. *)

val set_injector : t -> Encl_fault.Fault.t -> unit
(** Attach a chaos injector and register the CPU's hook points
    ([cpu.spurious_fault], [cpu.pte_perm_flip]). Both inject {e
    transient} faults: the page tables are never mutated, so a retried
    access succeeds. Consultations carry the current environment label,
    letting plans target only enclosure code (prefix ["enc:"]). *)

val set_fault_hook : t -> (fault -> unit) option -> unit
(** Observer called just before a {!Fault} is raised (telemetry: the
    machine marks an instant span so fault delivery shows up in traces).
    The hook must not raise; it runs inside the faulting access. *)

val set_access_hook : t -> (access_kind -> vaddr:int -> unit) option -> unit
(** Observer called once per page-level access check that {e passed}
    every permission layer (page table, exec filter, SFI mask, MPK key).
    This is the witness recorder's memory feed: the single checkpoint
    all four backends funnel through. The hook must not raise and must
    not consume simulated time; [None] (the default) keeps the access
    path branch-only. *)

val check : t -> access_kind -> addr:int -> len:int -> unit
(** Validate an access of [len] bytes at [addr] in the current environment;
    raises {!Fault} on the first offending page. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read64 : t -> int -> int64
val write64 : t -> int -> int64 -> unit

val read_bytes : t -> addr:int -> len:int -> Bytes.t
val write_bytes : t -> addr:int -> Bytes.t -> unit

val fetch : t -> addr:int -> unit
(** Instruction-fetch check at [addr] (entering a function). *)
