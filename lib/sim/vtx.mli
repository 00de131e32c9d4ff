(** Intel VT-x / KVM model used by the LB_VTX backend.

    The application runs inside a single virtual machine in non-root user
    mode. Execution-environment switches are specialized system calls into
    the guest operating system (which LitterBox's [super] package
    implements): the handler validates the call site and moves CR3 to the
    target page table. Host system calls leave the VM through a hypercall
    (VM EXIT), execute in root mode, and come back with VM RESUME.

    Costs: a guest syscall is [costs.vtx_guest_syscall]; a hypercall
    round-trip is [costs.vmexit_roundtrip] on top of the host syscall
    itself; VM creation is the one-time [costs.kvm_setup]. *)

type mode = Root | Non_root

type t

val create : clock:Clock.t -> costs:Costs.t -> trusted_pt:Pagetable.t -> t
(** Creates the VM (consumes [kvm_setup], accounted to [Init]). *)

val mode : t -> mode
val cr3 : t -> Pagetable.t

val enter_vm : t -> unit
(** Enter non-root mode with the trusted page table as CR3. *)

val guest_syscall : t -> validate:(unit -> bool) -> target:Pagetable.t ->
  (unit, string) result
(** A switch: consumes one guest-syscall cost; if [validate ()] fails the
    transition is refused (the caller turns that into a fault). On success
    CR3 now points at [target]. *)

val guest_sysret : t -> validate:(unit -> bool) -> target:Pagetable.t ->
  (unit, string) result
(** The return path of a switch (epilog): same validation, slightly
    cheaper return-style transition. *)

val hypercall : t -> ('a -> 'b) -> 'a -> 'b
(** [hypercall t f x]: leave the VM (VM EXIT), run [f x] in root mode,
    VM RESUME. Consumes the VM-exit round-trip cost and counts one
    exit. The mode is restored on both exits, without a closure. *)

val vmexits : t -> int
