type access_kind = Read | Write | Exec

let access_kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Exec -> "exec"

type fault = { kind : access_kind; vaddr : int; env : string; reason : string }

exception Fault of fault

let pp_fault ppf f =
  Format.fprintf ppf "FAULT[%s]: %s at %#x (%s)" f.env
    (access_kind_name f.kind) f.vaddr f.reason

type sfi_ctx = {
  sfi : Sfi.t;
  sfi_ok : write:bool -> vpn:int -> bool;
      (** does the masked address stay inside the sandbox's view? *)
}

type env = {
  label : string;
  pt : Pagetable.t;
  pkru : Mpk.pkru;
  exec_ok : (vpn:int -> bool) option;
  sfi : sfi_ctx option;
}

let trusted_env pt =
  { label = "trusted"; pt; pkru = Mpk.pkru_all_access; exec_ok = None; sfi = None }

type t = {
  phys : Phys.t;
  clock : Clock.t;
  mutable tlbs : Tlb.t array;
      (** one translation cache per simulated core, indexed by the
          clock's current lane; grown on demand. *)
  mutable current : env;
  mutable inject : Encl_fault.Fault.t option;
  mutable on_fault : (fault -> unit) option;
  mutable on_access : (access_kind -> vaddr:int -> unit) option;
  (* Witness tap: called once per successful [check_page], after every
     permission layer has admitted the access. Pure observer — it must
     not raise or consume simulated time. *)
  (* Call-gate integrity (Garmr): the set of scanned, registered gate
     sites, and whether execution is currently inside one. Depth (not a
     bool) because gates nest: the litterbox switch gate can run the
     kernel's copy gate. *)
  gates : (string, unit) Hashtbl.t;
  mutable gate_depth : int;
  mutable gate_violations : int;
  mutable on_gate_violation : (string -> unit) option;
}

let create ~phys ~clock env =
  {
    phys;
    clock;
    tlbs = [| Tlb.create () |];
    current = env;
    inject = None;
    on_fault = None;
    on_access = None;
    gates = Hashtbl.create 8;
    gate_depth = 0;
    gate_violations = 0;
    on_gate_violation = None;
  }

let set_fault_hook t f = t.on_fault <- f
let set_access_hook t f = t.on_access <- f

let set_injector t inj =
  Encl_fault.Fault.register inj ~point:"cpu.spurious_fault"
    ~doc:"page fault raised before the walk, as if the TLB lied";
  Encl_fault.Fault.register inj ~point:"cpu.pte_perm_flip"
    ~doc:"transient permission denial on an otherwise-valid PTE";
  t.inject <- Some inj

(* The current core's TLB: each simulated core owns a private
   translation cache, selected by the clock's lane. On one core this is
   always [tlbs.(0)] — exactly the old single-TLB machine. *)
let tlb t =
  let lane = Clock.lane t.clock in
  if lane >= Array.length t.tlbs then begin
    let n = Array.length t.tlbs in
    t.tlbs <-
      Array.init
        (max (lane + 1) (2 * n))
        (fun i -> if i < n then t.tlbs.(i) else Tlb.create ())
  end;
  t.tlbs.(lane)

let env t = t.current

let vpn_of_addr addr = addr / Phys.page_size
let addr_of_vpn vpn = vpn * Phys.page_size

let fault t kind vaddr reason =
  let f = { kind; vaddr; env = t.current.label; reason } in
  (match t.on_fault with None -> () | Some hook -> hook f);
  raise (Fault f)

(* Call-gate integrity. Registered gates stand in for the scanned,
   write-protected gate pages of ERIM/Garmr: the binary inspection pass
   has proven they restore the environment on every exit path, so only
   code running inside one may write PKRU / move CR3 / retag. *)

let untrusted_label label =
  String.length label > 4 && String.sub label 0 4 = "enc:"

let register_gate t name = Hashtbl.replace t.gates name ()
let in_gate t = t.gate_depth > 0
let gate_violation_count t = t.gate_violations
let set_gate_violation_hook t f = t.on_gate_violation <- f

let gate_violation t reason =
  t.gate_violations <- t.gate_violations + 1;
  (match t.on_gate_violation with None -> () | Some hook -> hook reason);
  fault t Exec 0 reason

let with_gate t ~name f =
  if Defense.enabled Defense.Gate_integrity && not (Hashtbl.mem t.gates name)
  then
    gate_violation t
      (Printf.sprintf "call gate %S is not a registered gate site" name);
  t.gate_depth <- t.gate_depth + 1;
  Fun.protect ~finally:(fun () -> t.gate_depth <- t.gate_depth - 1) f

let set_env t env =
  (* The privileged transition itself: a wrpkru / CR3 write / SFI tag
     move. From untrusted code it is only legal inside a registered
     gate — a stray one is exactly the forged-wrpkru attack. *)
  if
    t.gate_depth = 0
    && untrusted_label t.current.label
    && Defense.enabled Defense.Gate_integrity
  then
    gate_violation t
      "environment write (wrpkru/CR3/tag) outside a registered call gate";
  (* A different page table means a CR3 move: no PCID, so the current
     core's TLB is flushed. PKRU-only changes (LB_MPK switches) keep it
     warm. *)
  if Pagetable.id env.pt <> Pagetable.id t.current.pt then Tlb.flush (tlb t);
  t.current <- env

(* Re-install an environment a core already owns: on real SMP each core
   has its own PKRU register and CR3, so hopping the interleaver from
   one core to another does not rewrite anything — the target core's
   protection state is still loaded. The gate-integrity rule still
   applies (this is only reachable from the trusted scheduler's gate),
   but the core's TLB keeps every entry: they were filled under this
   very environment. *)
let restore_env t env =
  if
    t.gate_depth = 0
    && untrusted_label t.current.label
    && Defense.enabled Defense.Gate_integrity
  then
    gate_violation t
      "environment write (wrpkru/CR3/tag) outside a registered call gate";
  t.current <- env

(* Chaos hook: consult the injector at [point], charging the fault to
   the current environment. Transient by construction — nothing in the
   page tables is mutated, so the retry after recovery succeeds. *)
let injected t point =
  match t.inject with
  | None -> false
  | Some inj ->
      Encl_fault.Fault.active inj
      && Encl_fault.Fault.fires inj ~env:t.current.label point

(* Check one page; returns the PTE for data movement. *)
let check_page t kind vaddr =
  let vpn = vpn_of_addr vaddr in
  if injected t "cpu.spurious_fault" then
    fault t kind vaddr "injected spurious page fault";
  ignore (Tlb.access (tlb t) ~space:(Pagetable.id t.current.pt) ~vpn);
  match Pagetable.walk t.current.pt ~vpn with
  | None -> fault t kind vaddr "page not mapped"
  | Some pte ->
      if not pte.Pte.present then fault t kind vaddr "page not present";
      (match kind with
      | Read -> if not pte.Pte.perms.Pte.r then fault t kind vaddr "no read permission"
      | Write -> if not pte.Pte.perms.Pte.w then fault t kind vaddr "no write permission"
      | Exec ->
          if not pte.Pte.perms.Pte.x then fault t kind vaddr "no exec permission";
          (match t.current.exec_ok with
          | Some ok when not (ok ~vpn) ->
              fault t kind vaddr "package not executable in this environment"
          | Some _ | None -> ()));
      (* MPK polices data accesses only; SFI instruments them. *)
      (match kind with
      | Read | Write ->
          let write = kind = Write in
          (match t.current.sfi with
          | None -> ()
          | Some _ when not (Defense.enabled Defense.Sfi_mask) ->
              (* Defense off models a pointer the instrumentation pass
                 missed: the raw access goes straight to MPK, whose
                 key-0 pages the synthetic SFI tag can read. *)
              ()
          | Some s ->
              (* The instrumented mask-and-check sequence runs on every
                 load/store; a miss lands the access in a guard zone. *)
              if not (Sfi.masked_access s.sfi ~allowed:(s.sfi_ok ~write ~vpn))
              then
                fault t kind vaddr
                  (Printf.sprintf "sfi guard zone: masked %s escapes the sandbox"
                     (access_kind_name kind)));
          if not (Mpk.allows t.current.pkru ~key:pte.Pte.pkey ~write) then
            fault t kind vaddr
              (Printf.sprintf "protection key %d denies %s" pte.Pte.pkey
                 (access_kind_name kind))
      | Exec -> ());
      if injected t "cpu.pte_perm_flip" then
        fault t kind vaddr "injected transient PTE permission flip";
      (match t.on_access with None -> () | Some hook -> hook kind ~vaddr);
      pte

let check t kind ~addr ~len =
  if len < 0 then invalid_arg "Cpu.check: negative length";
  if len > 0 then begin
    let first = vpn_of_addr addr and last = vpn_of_addr (addr + len - 1) in
    for vpn = first to last do
      ignore (check_page t kind (addr_of_vpn vpn))
    done;
    (* The loop has already checked the start page, at its base
       address, so a real violation there never reaches this re-check.
       It stays because dropping it would change the TLB statistics and
       the sequence of injector draws and access-hook calls. *)
    ignore (check_page t kind addr)
  end

let read8 t addr =
  let pte = check_page t Read addr in
  Phys.read8 t.phys ~ppn:pte.Pte.ppn ~off:(addr mod Phys.page_size)

let write8 t addr v =
  let pte = check_page t Write addr in
  Phys.write8 t.phys ~ppn:pte.Pte.ppn ~off:(addr mod Phys.page_size) v

let read64 t addr =
  if addr mod Phys.page_size <= Phys.page_size - 8 then begin
    let pte = check_page t Read addr in
    ignore (check_page t Read (addr + 7));
    Phys.read64 t.phys ~ppn:pte.Pte.ppn ~off:(addr mod Phys.page_size)
  end
  else begin
    (* Crosses a page boundary: assemble byte by byte. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read8 t (addr + i)))
    done;
    !v
  end

let write64 t addr v =
  if addr mod Phys.page_size <= Phys.page_size - 8 then begin
    let pte = check_page t Write addr in
    ignore (check_page t Write (addr + 7));
    Phys.write64 t.phys ~ppn:pte.Pte.ppn ~off:(addr mod Phys.page_size) v
  end
  else
    for i = 0 to 7 do
      write8 t (addr + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

let read_bytes t ~addr ~len =
  check t Read ~addr ~len;
  let dst = Bytes.create len in
  let rec copy src_addr dst_off remaining =
    if remaining > 0 then begin
      let off = src_addr mod Phys.page_size in
      let chunk = min remaining (Phys.page_size - off) in
      let vpn = vpn_of_addr src_addr in
      let pte = Option.get (Pagetable.walk t.current.pt ~vpn) in
      Phys.blit_to_bytes t.phys ~ppn:pte.Pte.ppn ~off dst dst_off chunk;
      copy (src_addr + chunk) (dst_off + chunk) (remaining - chunk)
    end
  in
  copy addr 0 len;
  dst

let write_bytes t ~addr src =
  let len = Bytes.length src in
  check t Write ~addr ~len;
  let rec copy dst_addr src_off remaining =
    if remaining > 0 then begin
      let off = dst_addr mod Phys.page_size in
      let chunk = min remaining (Phys.page_size - off) in
      let vpn = vpn_of_addr dst_addr in
      let pte = Option.get (Pagetable.walk t.current.pt ~vpn) in
      Phys.blit_of_bytes t.phys ~ppn:pte.Pte.ppn ~off src src_off chunk;
      copy (dst_addr + chunk) (src_off + chunk) (remaining - chunk)
    end
  in
  copy addr 0 len

let fetch t ~addr = ignore (check_page t Exec addr)
