type mode = Root | Non_root

type t = {
  clock : Clock.t;
  costs : Costs.t;
  trusted_pt : Pagetable.t;
  mutable mode : mode;
  mutable cr3 : Pagetable.t;
  mutable vmexits : int;
}

let create ~clock ~costs ~trusted_pt =
  Clock.consume clock Clock.Init costs.Costs.kvm_setup;
  {
    clock;
    costs;
    trusted_pt;
    mode = Root;
    cr3 = trusted_pt;
    vmexits = 0;
  }

let mode t = t.mode
let cr3 t = t.cr3

let enter_vm t =
  t.mode <- Non_root;
  t.cr3 <- t.trusted_pt

let guest_syscall t ~validate ~target =
  Clock.consume t.clock Clock.Switch t.costs.Costs.vtx_guest_syscall;
  if validate () then begin
    t.cr3 <- target;
    Ok ()
  end
  else Error "guest OS refused the transition (call-site verification failed)"

let guest_sysret t ~validate ~target =
  Clock.consume t.clock Clock.Switch t.costs.Costs.vtx_guest_sysret;
  if validate () then begin
    t.cr3 <- target;
    Ok ()
  end
  else Error "guest OS refused the transition (call-site verification failed)"

let hypercall t f x =
  t.vmexits <- t.vmexits + 1;
  Clock.consume t.clock Clock.Syscall t.costs.Costs.vmexit_roundtrip;
  let saved = t.mode in
  t.mode <- Root;
  match f x with
  | v ->
      t.mode <- saved;
      v
  | exception e ->
      t.mode <- saved;
      raise e

let vmexits t = t.vmexits
