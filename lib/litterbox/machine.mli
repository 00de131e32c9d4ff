(** The simulated machine: one object wiring hardware and OS together.

    Creates, in order: physical memory, the simulated clock, the trusted
    page table, the CPU (starting in the trusted environment), the
    address-space manager (heap above the linker's regions), the
    filesystem, the network, and the kernel. *)

type t = {
  phys : Phys.t;
  clock : Clock.t;
  costs : Costs.t;
  cores : int;
      (** Simulated core count. The machine stays a single sequential
          simulation — one clock, one kernel — but the scheduler shards
          its run queue per core, each core charges its own clock lane,
          and per-core hardware state (TLB, seccomp verdict cache,
          sysring) is selected by the current lane. *)
  trusted_pt : Pagetable.t;
  trusted_env : Cpu.env;
  cpu : Cpu.t;
  mm : Encl_kernel.Mm.t;
  vfs : Encl_kernel.Vfs.t;
  net : Encl_kernel.Net.t;
  kernel : Encl_kernel.Kernel.t;
  obs : Encl_obs.Obs.t;
      (** Observability sink reading the simulated clock; disabled by
          default ({!Encl_obs.Obs.default_enabled}). *)
  inject : Encl_fault.Fault.t;
      (** The machine-wide chaos injector. CPU, kernel and network hook
          points are registered at creation; inert until a plan is armed.
          Each firing counts ["inject"] in the registry under the
          current scope (the per-scope export of the injector's own
          per-point fire counts, which stay in {!Encl_fault.Fault}
          because they enforce each point's [max_fires]) and, when the
          sink is enabled, records an ["inject:<point>"] mark. *)
  mutable bytes_copied : int;
      (** Guest-side bytes_copied ledger: buffer-to-buffer copies guest
          code performs (response assembly, pylike localcopy). The
          kernel's half, for user-memory passes, lives only in the
          registry. This half stays a field as well, because the
          repository benchmark reads it as one; {!note_copied} is its
          only writer and keeps it equal to the registry's
          ["bytes_copied.app"] total. *)
}

val create : ?costs:Costs.t -> ?cores:int -> unit -> t
(** [cores] (default 1) must be >= 1. With [cores = 1] the machine is
    byte-for-byte the old single-core one. *)

val note_copied : t -> int -> unit
(** Charge [n] bytes to the guest-side copy ledger: the [bytes_copied]
    field and the registry's ["bytes_copied.app"]. Free of simulated
    time (the copy itself pays through its CPU accesses). *)

