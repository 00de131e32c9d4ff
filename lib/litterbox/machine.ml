type t = {
  phys : Phys.t;
  clock : Clock.t;
  costs : Costs.t;
  cores : int;
  trusted_pt : Pagetable.t;
  trusted_env : Cpu.env;
  cpu : Cpu.t;
  mm : Encl_kernel.Mm.t;
  vfs : Encl_kernel.Vfs.t;
  net : Encl_kernel.Net.t;
  kernel : Encl_kernel.Kernel.t;
  obs : Encl_obs.Obs.t;
  inject : Encl_fault.Fault.t;
  mutable bytes_copied : int;
}

let inject_counter = Encl_obs.Metrics.counter "inject"
let copied_counter = Encl_obs.Metrics.counter "bytes_copied.app"

let create ?(costs = Costs.default) ?(cores = 1) () =
  if cores < 1 then invalid_arg "Machine.create: cores must be >= 1";
  let phys = Phys.create () in
  let clock = Clock.create () in
  let trusted_pt = Pagetable.create ~name:"trusted" in
  let trusted_env = Cpu.trusted_env trusted_pt in
  let cpu = Cpu.create ~phys ~clock trusted_env in
  let mm = Encl_kernel.Mm.create ~phys ~base:Encl_elf.Linker.heap_base in
  Encl_kernel.Mm.add_pt mm trusted_pt;
  let vfs = Encl_kernel.Vfs.create () in
  let net = Encl_kernel.Net.create () in
  let obs = Encl_obs.Obs.create ~now:(fun () -> Clock.now clock) () in
  let kernel =
    Encl_kernel.Kernel.create ~clock ~costs ~cpu ~trusted_env ~vfs ~net ~mm ~obs
  in
  (* One injector spans the whole machine: every component registers its
     hook points here, and every firing lands in the registry and, when
     the sink is enabled, as a mark. Inert (nothing armed, `active`
     false) unless a chaos plan arms it. *)
  let inject = Encl_fault.Fault.create () in
  (* The CPU's gate violations count as "gate_violation", next to the
     kernel's. *)
  let metrics = Encl_obs.Obs.metrics obs in
  Cpu.set_gate_violation_hook cpu
    (Some
       (fun _reason ->
         Encl_obs.Metrics.incr metrics Encl_kernel.Kernel.gate_violation_counter));
  Cpu.set_injector cpu inject;
  Encl_kernel.Kernel.set_injector kernel inject;
  Encl_kernel.Net.set_injector net inject;
  Encl_fault.Fault.on_fire inject (fun ~point ~env:_ ->
      Encl_obs.Metrics.incr metrics inject_counter;
      if Encl_obs.Obs.enabled obs then
        Encl_obs.Obs.span_mark obs ~name:("inject:" ^ point)
          ~category:Encl_obs.Span.Fault ());
  (* Attribution hooks, attached only when the sink is enabled at
     creation: the clock feeds every tick into the ledger, and CPU fault
     delivery leaves an instant span. Disabled machines keep both hooks
     [None], so the hot paths cost one comparison. *)
  if Encl_obs.Obs.enabled obs then begin
    (* Every core gets a ledger up front: an idle core must show up in
       the exported artifacts as an explicit zero, not be absent. *)
    Encl_obs.Attrib.ensure_cores (Encl_obs.Obs.attribution obs) cores;
    Clock.set_observer clock
      (Some
         (fun _cat ns ->
           Encl_obs.Obs.clock_tick ~core:(Clock.lane clock) obs ns));
    Cpu.set_fault_hook cpu
      (Some
         (fun (f : Cpu.fault) ->
           let lane =
             Option.value (Cpu.enclosure_of_label f.Cpu.env) ~default:"trusted"
           in
           Encl_obs.Obs.span_mark obs ~lane
             ~name:("cpu_fault:" ^ Cpu.access_kind_name f.Cpu.kind)
             ~category:Encl_obs.Span.Fault ()))
  end;
  {
    phys;
    clock;
    costs;
    cores;
    trusted_pt;
    trusted_env;
    cpu;
    mm;
    vfs;
    net;
    kernel;
    obs;
    inject;
    bytes_copied = 0;
  }

(* The guest-side half of the bytes_copied ledger: buffer-to-buffer
   copies performed by guest code (Gbuf.blit response assembly, pylike
   localcopy). The only writer of the [bytes_copied] field, which it
   keeps equal to the "bytes_copied.app" total. Zero simulated time —
   the copy's cost is charged by the CPU accesses that perform it. *)
let note_copied t n =
  if n > 0 then begin
    t.bytes_copied <- t.bytes_copied + n;
    Encl_obs.Metrics.add (Encl_obs.Obs.metrics t.obs) copied_counter n
  end
