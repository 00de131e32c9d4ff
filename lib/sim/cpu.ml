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
  (* Call-gate integrity (Garmr): the scanned, registered gate sites,
     each a handle stamped with this CPU's [owner] token, and whether
     execution is currently inside one. Depth (not a bool) because
     gates nest: the litterbox switch gate can run the kernel's copy
     gate. *)
  owner : unit ref;
  gates : (string, gate) Hashtbl.t;
  mutable gate_depth : int;
  mutable on_gate_violation : (string -> unit) option;
}

(* A gate site, resolved once. [g_owner] is the registering CPU's
   token; a handle for a name never registered carries a fresh token
   no CPU owns, so entering it is the unscanned-gate attack. *)
and gate = { g_name : string; g_owner : unit ref }

let create ~phys ~clock env =
  {
    phys;
    clock;
    tlbs = [| Tlb.create () |];
    current = env;
    inject = None;
    on_fault = None;
    on_access = None;
    owner = ref ();
    gates = Hashtbl.create 8;
    gate_depth = 0;
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

(* Floor page arithmetic: a negative address lies on a negative page,
   which no page table maps, never on page 0. *)
let vpn_of_addr addr = addr asr Phys.page_shift
let addr_of_vpn vpn = vpn lsl Phys.page_shift
let page_off addr = addr land (Phys.page_size - 1)

(* The whole pages of [len - 1] plus what its remainder carries past
   [addr]'s offset: [addr + len - 1] itself would wrap. *)
let last_vpn ~addr ~len =
  let n = len - 1 in
  vpn_of_addr addr + vpn_of_addr n + vpn_of_addr (page_off addr + page_off n)

let fault t kind vaddr reason =
  let f = { kind; vaddr; env = t.current.label; reason } in
  (match t.on_fault with None -> () | Some hook -> hook f);
  raise (Fault f)

(* Call-gate integrity. Registered gates stand in for the scanned,
   write-protected gate pages of ERIM/Garmr: the binary inspection pass
   has proven they restore the environment on every exit path, so only
   code running inside one may write PKRU / move CR3 / retag. *)

let enclosure_label name = "enc:" ^ name

let untrusted_label label =
  String.length label > 4
  && label.[0] = 'e' && label.[1] = 'n' && label.[2] = 'c' && label.[3] = ':'

let enclosure_of_label label =
  if untrusted_label label then
    let stop =
      Option.value (String.index_opt label ' ') ~default:(String.length label)
    in
    Some (String.sub label 4 (stop - 4))
  else None

let register_gate t name =
  match Hashtbl.find_opt t.gates name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_owner = t.owner } in
      Hashtbl.replace t.gates name g;
      g

let gate t name =
  match Hashtbl.find_opt t.gates name with
  | Some g -> g
  | None -> { g_name = name; g_owner = ref () }

let in_gate t = t.gate_depth > 0
let set_gate_violation_hook t f = t.on_gate_violation <- f

let gate_violation t reason =
  (match t.on_gate_violation with None -> () | Some hook -> hook reason);
  fault t Exec 0 reason

(* The one registration check, a pointer comparison: only a handle
   this CPU's [register_gate] made carries its token. *)
let enter_gate t g =
  if g.g_owner != t.owner && Defense.enabled Defense.Gate_integrity then
    gate_violation t
      (Printf.sprintf "call gate %S is not a registered gate site" g.g_name);
  t.gate_depth <- t.gate_depth + 1

let leave_gate t = t.gate_depth <- t.gate_depth - 1

(* No closure and no [Fun.protect]: the gate is left on both exits and
   the body's exception re-raised as it came. *)
let with_gate t g f x =
  enter_gate t g;
  match f x with
  | v ->
      leave_gate t;
      v
  | exception e ->
      leave_gate t;
      raise e

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

(* Inside a gate (depth > 0) neither write can raise: the forged-write
   rule only polices writes outside every gate. *)
let switch_env t g env =
  enter_gate t g;
  set_env t env;
  leave_gate t

(* Re-install an environment a core already owns: on real SMP each core
   has its own PKRU register and CR3, so hopping the interleaver from
   one core to another does not rewrite anything — the target core's
   protection state is still loaded. It goes through the caller's gate
   like any other environment write, but the core's TLB keeps every
   entry: they were filled under this very environment. *)
let restore_env t g env =
  enter_gate t g;
  t.current <- env;
  leave_gate t

(* The one trusted-excursion primitive: [f x] under [env] inside gate
   [g], the previous environment back on both exits. *)
let with_env t g env f x =
  enter_gate t g;
  let saved = t.current in
  set_env t env;
  match f x with
  | v ->
      set_env t saved;
      leave_gate t;
      v
  | exception e ->
      set_env t saved;
      leave_gate t;
      raise e

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
    (* Overflow-safe: a wrapped [addr + len - 1] would check no page. *)
    let first = vpn_of_addr addr and last = last_vpn ~addr ~len in
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
  Phys.read8 t.phys ~ppn:pte.Pte.ppn ~off:(page_off addr)

let write8 t addr v =
  let pte = check_page t Write addr in
  Phys.write8 t.phys ~ppn:pte.Pte.ppn ~off:(page_off addr) v

let read64 t addr =
  if page_off addr <= Phys.page_size - 8 then begin
    let pte = check_page t Read addr in
    ignore (check_page t Read (addr + 7));
    Phys.read64 t.phys ~ppn:pte.Pte.ppn ~off:(page_off addr)
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
  if page_off addr <= Phys.page_size - 8 then begin
    let pte = check_page t Write addr in
    ignore (check_page t Write (addr + 7));
    Phys.write64 t.phys ~ppn:pte.Pte.ppn ~off:(page_off addr) v
  end
  else
    for i = 0 to 7 do
      write8 t (addr + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

(* A read-modify-write of the word at [addr], checked exactly as
   [read64] then [write64] check it, and without boxing the word when
   it lies within one page (the only case the runtimes produce). *)
let add64 t addr d =
  if page_off addr <= Phys.page_size - 8 then begin
    let pte = check_page t Read addr in
    ignore (check_page t Read (addr + 7));
    if d < 0 && Phys.sign64 t.phys ~ppn:pte.Pte.ppn ~off:(page_off addr) <= 0
    then false
    else begin
      let pte = check_page t Write addr in
      ignore (check_page t Write (addr + 7));
      Phys.add64 t.phys ~ppn:pte.Pte.ppn ~off:(page_off addr) d;
      true
    end
  end
  else
    let v = read64 t addr in
    if d < 0 && Int64.compare v 0L <= 0 then false
    else begin
      write64 t addr (Int64.add v (Int64.of_int d));
      true
    end

(* The frame behind [addr] in the current page table; the caller has
   already checked the access. *)
let ppn_at t addr =
  (Option.get (Pagetable.walk t.current.pt ~vpn:(vpn_of_addr addr))).Pte.ppn

(* Move [len] bytes between guest memory at [addr] and [b] at [pos], one
   page at a time through the current page table; the caller has already
   checked the range. *)
let rec blit_out t ~addr b ~pos ~len =
  if len > 0 then begin
    let off = page_off addr in
    let chunk = min len (Phys.page_size - off) in
    Phys.blit_to_bytes t.phys ~ppn:(ppn_at t addr) ~off b pos chunk;
    blit_out t ~addr:(addr + chunk) b ~pos:(pos + chunk) ~len:(len - chunk)
  end

let rec blit_in t ~addr b ~pos ~len =
  if len > 0 then begin
    let off = page_off addr in
    let chunk = min len (Phys.page_size - off) in
    Phys.blit_of_bytes t.phys ~ppn:(ppn_at t addr) ~off b pos chunk;
    blit_in t ~addr:(addr + chunk) b ~pos:(pos + chunk) ~len:(len - chunk)
  end

let read_bytes t ~addr ~len =
  check t Read ~addr ~len;
  let dst = Bytes.create len in
  blit_out t ~addr dst ~pos:0 ~len;
  dst

let write_bytes t ~addr src =
  let len = Bytes.length src in
  check t Write ~addr ~len;
  blit_in t ~addr src ~pos:0 ~len

(* One piece of a copy, inside one page on each side: a whole page on
   both sides shares the source frame's storage, anything else is one
   frame-to-frame blit. *)
let copy_piece t ~src ~dst n =
  let src_ppn = ppn_at t src and dst_ppn = ppn_at t dst in
  if n = Phys.page_size then Phys.share_page t.phys ~src:src_ppn ~dst:dst_ppn
  else
    Phys.blit t.phys ~src:src_ppn ~src_off:(page_off src) ~dst:dst_ppn
      ~dst_off:(page_off dst) n

(* Walk up from the starts: each piece runs to the nearer of the next
   source and destination page boundaries. *)
let rec copy_up t ~src ~dst ~len =
  if len > 0 then begin
    let n = min len (Phys.page_size - max (page_off src) (page_off dst)) in
    copy_piece t ~src ~dst n;
    copy_up t ~src:(src + n) ~dst:(dst + n) ~len:(len - n)
  end

(* Walk down from the (exclusive) ends: each piece runs back to the
   nearer of the previous source and destination page boundaries. *)
let rec copy_down t ~src_end ~dst_end ~len =
  if len > 0 then begin
    let n = min len (1 + min (page_off (src_end - 1)) (page_off (dst_end - 1))) in
    let src = src_end - n and dst = dst_end - n in
    copy_piece t ~src ~dst n;
    copy_down t ~src_end:src ~dst_end:dst ~len:(len - n)
  end

let copy t ~src ~dst ~len ~note =
  check t Read ~addr:src ~len;
  note len;
  check t Write ~addr:dst ~len;
  (* Within one page table every page has its own frame, so ranges that
     do not overlap virtually share no byte. When they overlap with the
     destination above, walking down (memmove order) never reads a byte
     an earlier piece has overwritten. *)
  if dst > src && dst < src + len then
    copy_down t ~src_end:(src + len) ~dst_end:(dst + len) ~len
  else copy_up t ~src ~dst ~len

let fetch t ~addr = ignore (check_page t Exec addr)
