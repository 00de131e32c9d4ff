module K = Encl_kernel.Kernel
module Sysno = Encl_kernel.Sysno
module Seccomp = Encl_kernel.Seccomp
module Mm = Encl_kernel.Mm
module Image = Encl_elf.Image
module Section = Encl_elf.Section
module Obs = Encl_obs.Obs
module Event = Encl_obs.Event
module Span = Encl_obs.Span
module Witness = Encl_obs.Witness

type backend = Backend.t = Mpk | Vtx | Lwc | Sfi

let backend_name = Backend.name

exception Fault of { reason : string; enclosure : string option }
exception Quarantined of { enclosure : string; faults : int }

let log_src = Logs.Src.create "litterbox" ~doc:"LitterBox enclosure backend"

module Log = (val Logs.src_log log_src : Logs.LOG)

let super_pkg = "litterbox.super"
let user_pkg = "litterbox.user"

type enc_rt = {
  e_name : string;
  e_owner : string;
  e_deps : string list;
  e_policy : Policy.t;
  e_closure_addr : int;
  mutable e_view : View.t;
  mutable e_pkru : Mpk.pkru;
  mutable e_pt : Pagetable.t option;
  mutable e_env : Cpu.env option;
  mutable e_faults : int;
  mutable e_quarantined : bool;
}

type env_ref = enc_rt list

(* Syscall ring (see {!Sysring}): submission entries capture the
   enclosure stack at submit time so the drain evaluates each entry
   under the filter that was in force when the call was enqueued —
   never under a later enclosure's — and completions carry either the
   kernel's result or the same [Fault] the direct path would have
   raised at the call site. *)
type completion_state =
  | Pending
  | Done of (int, K.errno) result
  | Faulted of exn

type completion = { mutable c_state : completion_state }

type sq_entry = {
  sq_call : K.call;
  sq_env : enc_rt list;  (** submit-time enclosure stack *)
  sq_site : string;
      (** submit-time call-site signature for the witness recorder
          (empty when witnessing is off); the drain taps use it so
          batched calls keep the {e submitting} context, not the drain
          point's *)
  sq_core : int;  (** core (clock lane) the entry was submitted on *)
  sq_comp : completion;
}

let ring_capacity = 64

type t = {
  machine : Machine.t;
  backend : backend;
  graph : Encl_pkg.Graph.t;
  registry : (int, string * Section.kind) Hashtbl.t;
  pkg_sections : (string, Section.t list ref) Hashtbl.t;
  encs : (string, enc_rt) Hashtbl.t;
  mutable enc_order : string list;  (** registration order, first first *)
  verif : (string * Image.hook, unit) Hashtbl.t;
  mutable clusters : Cluster.t;
  mutable keys : int array;  (** cluster index -> MPK key *)
  mutable vtx : Vtx.t option;
  mutable sfi : Sfi.t option;
  clustering : bool;
  mutable app_trusted : Cpu.env;
  mutable stack : enc_rt list;
  mutable switches : int;
  mutable switch_elided : int;  (** subset of [switches] served by elision *)
  mutable transfers : int;
  mutable coalesced : int;  (** subset of [transfers] batched by {!transfer_range} *)
  mutable faults : int;
  mutable fault_log : string list;
  mutable fault_budget : int;  (** per-enclosure; [max_int] = no quarantine *)
  mutable rings : sq_entry Queue.t array;
      (** one submission queue per simulated core (indexed by clock
          lane, grown on demand): each core batches its own traffic and
          drains it on its own lane. *)
  mutable ring_submitted : int;
  mutable ring_drained : int;
  mutable ring_batches : int;  (** non-empty per-core drains *)
  mutable ring_ipis : int;
      (** IPI-style cross-core wakeups: remote non-empty rings flushed
          because another core hit a drain point *)
  mutable denied_guest : int;
      (** guest-side denials (VTX/LWC filter checks, direct or drained):
          calls the kernel's own counters never saw *)
  mutable tainted_verified : int;
      (** Tainted-boundary validations that accepted the value *)
  mutable tainted_rejected : int;
      (** Tainted-boundary validations that rejected the value *)
}

let machine t = t.machine
let backend t = t.backend
let graph t = t.graph
let obs t = t.machine.Machine.obs

(* Observability taps. Counter increments must track t.switches/t.faults
   exactly — one Obs increment per mutation, at the same program point —
   so the per-scope totals reconcile with switch_count/fault_count even
   when an operation aborts mid-switch. All are no-ops when disabled. *)

let note_fault t reason =
  let o = obs t in
  if Obs.enabled o then begin
    Obs.incr o "fault";
    Obs.emit o (Event.Fault { reason })
  end

let note_switch t scope =
  let o = obs t in
  if Obs.enabled o then Obs.incr o ~scope "switch"

let emit_switch t ~t0 kind =
  let o = obs t in
  if Obs.enabled o then begin
    let dur = Clock.now t.machine.Machine.clock - t0 in
    Obs.observe o "switch_ns" dur;
    Obs.emit o ~dur kind
  end

let scope_name = function [] -> "trusted" | enc :: _ -> enc.e_name
let env_scope = scope_name

(* Which enclosure does an environment label ("enc:<name>") belong to?
   The kernel's origin/mm-guard kills annotate the label with a
   parenthesized cause after a space; stop there so attribution still
   lands on the right enclosure. *)
let enc_of_env_label label =
  if String.length label > 4 && String.sub label 0 4 = "enc:" then begin
    let rest = String.sub label 4 (String.length label - 4) in
    match String.index_opt rest ' ' with
    | None -> Some rest
    | Some i -> Some (String.sub rest 0 i)
  end
  else None

(* The single fault-accounting point: every fault — raised by [fault],
   caught from the CPU or from seccomp — flows through here exactly
   once, keeping t.faults, t.fault_log, the obs "fault" counter and the
   per-enclosure quarantine budget in lockstep. [trace] is the log-book
   entry; [reason] is what the obs event carries. *)
let record_fault t ?enclosure ~trace reason =
  t.faults <- t.faults + 1;
  t.fault_log <- trace :: t.fault_log;
  Log.err (fun m -> m "%s" trace);
  note_fault t reason;
  match Option.bind enclosure (Hashtbl.find_opt t.encs) with
  | None -> ()
  | Some enc ->
      enc.e_faults <- enc.e_faults + 1;
      if (not enc.e_quarantined) && enc.e_faults >= t.fault_budget then begin
        enc.e_quarantined <- true;
        Log.warn (fun m ->
            m "enclosure %s quarantined after %d faults" enc.e_name enc.e_faults);
        let o = obs t in
        if Obs.enabled o then begin
          Obs.incr o "quarantine";
          Obs.emit o
            (Event.Quarantine { enclosure = enc.e_name; faults = enc.e_faults })
        end
      end

let fault t ?enclosure reason =
  let trace =
    Printf.sprintf "fault%s: %s"
      (match enclosure with Some e -> " in " ^ e | None -> "")
      reason
  in
  record_fault t ?enclosure ~trace reason;
  raise (Fault { reason; enclosure })

(* ------------------------------------------------------------------ *)
(* Section registry                                                    *)

let register_section t (s : Section.t) =
  let first = s.Section.addr / Phys.page_size in
  let last = (Section.end_addr s - 1) / Phys.page_size in
  for vpn = first to last do
    Hashtbl.replace t.registry vpn (s.Section.owner, s.Section.kind)
  done;
  let lst =
    match Hashtbl.find_opt t.pkg_sections s.Section.owner with
    | Some lst -> lst
    | None ->
        let lst = ref [] in
        Hashtbl.replace t.pkg_sections s.Section.owner lst;
        lst
  in
  lst := s :: !lst

let sections_of t pkg =
  match Hashtbl.find_opt t.pkg_sections pkg with Some l -> !l | None -> []

let owner_of t ~addr =
  Option.map fst (Hashtbl.find_opt t.registry (addr / Phys.page_size))

(* ------------------------------------------------------------------ *)
(* Views and environments                                              *)

let ordered_encs t =
  List.rev_map (fun name -> Hashtbl.find t.encs name) t.enc_order |> List.rev

(* The closure function lives in its own section owned by the declaring
   package (paper §4.1); it must stay executable inside the enclosure even
   when the declaring package is not part of the view. *)
let closure_vpn enc = enc.e_closure_addr / Phys.page_size

let exec_filter t enc ~vpn =
  (enc.e_closure_addr <> 0 && vpn = closure_vpn enc)
  ||
  match Hashtbl.find_opt t.registry vpn with
  | Some (pkg, _) -> View.access enc.e_view pkg = Types.RWX
  | None -> false

(* The SFI access predicate: does the masked address stay inside the
   sandbox's view? Page-granular and consulted at access time, so a
   [transfer] that re-homes a range in the section registry takes
   effect with no hardware update at all — the bounds metadata IS the
   registry plus the view. Pages outside every section are the guard
   zone. *)
let sfi_filter t enc ~write ~vpn =
  match Hashtbl.find_opt t.registry vpn with
  | None -> false
  | Some (pkg, _kind) -> (
      match View.access enc.e_view pkg with
      | Types.U -> false
      | Types.R -> not write
      | Types.RW | Types.RWX -> true)

let mpk_env t enc =
  {
    Cpu.label = "enc:" ^ enc.e_name;
    pt = t.machine.Machine.trusted_pt;
    pkru = enc.e_pkru;
    exec_ok = Some (fun ~vpn -> exec_filter t enc ~vpn);
    sfi = None;
  }

(* Shared by VTX and LWC: enforcement is the per-enclosure page table. *)
let vtx_env _t enc =
  {
    Cpu.label = "enc:" ^ enc.e_name;
    pt = Option.get enc.e_pt;
    pkru = Mpk.pkru_all_access;
    exec_ok = None;
    sfi = None;
  }

(* SFI runs on the trusted page table (no CR3 move, warm TLB, like
   MPK) but with no protection keys in play: every page keeps key 0
   and the per-access mask carries the whole memory policy. The
   [pkru] slot holds the enclosure's synthetic {e sandbox tag} — a
   distinct value whose key-0 bits are clear — so the PKRU-indexed
   seccomp program, its verdict cache and the sysring drain all work
   verbatim for SFI. *)
let sfi_env t enc =
  {
    Cpu.label = "enc:" ^ enc.e_name;
    pt = t.machine.Machine.trusted_pt;
    pkru = enc.e_pkru;
    exec_ok = Some (fun ~vpn -> exec_filter t enc ~vpn);
    sfi =
      Some
        {
          Cpu.sfi = Option.get t.sfi;
          sfi_ok = (fun ~write ~vpn -> sfi_filter t enc ~write ~vpn);
        };
  }

let build_env t enc =
  match t.backend with
  | Mpk -> mpk_env t enc
  | Vtx | Lwc -> vtx_env t enc
  | Sfi -> sfi_env t enc

(* ------------------------------------------------------------------ *)
(* MPK backend                                                         *)

let rules_of_filter (f : Policy.sys_filter) =
  match f with
  | Policy.Sys_none -> []
  | Policy.Sys_all -> List.map (fun s -> Seccomp.rule s) Sysno.all
  | Policy.Sys_atoms atoms ->
      let cats =
        List.filter_map (function Policy.Cat c -> Some c | Policy.Connect_to _ -> None) atoms
      in
      let connects =
        List.filter_map
          (function
            | Policy.Connect_to ips -> Some (Seccomp.rule ~arg0:ips Sysno.Connect)
            | Policy.Cat _ -> None)
          atoms
      in
      let by_cat =
        List.filter
          (fun s ->
            List.mem (Sysno.category s) cats
            (* a connect(...) list overrides the category for connect(2) *)
            && not (s = Sysno.Connect && connects <> []))
          Sysno.all
        |> List.map (fun s -> Seccomp.rule s)
      in
      by_cat @ connects

let intersect_rules (r1 : Seccomp.rule list) (r2 : Seccomp.rule list) =
  List.filter_map
    (fun (a : Seccomp.rule) ->
      match List.find_opt (fun (b : Seccomp.rule) -> b.Seccomp.sysno = a.Seccomp.sysno) r2 with
      | None -> None
      | Some b ->
          let arg0 =
            match (a.Seccomp.arg0_allowed, b.Seccomp.arg0_allowed) with
            | None, x | x, None -> x
            | Some l1, Some l2 -> Some (List.filter (fun ip -> List.mem ip l2) l1)
          in
          Some { a with Seccomp.arg0_allowed = arg0 })
    r1

let mpk_recompute t =
  let encs = ordered_encs t in
  let views = List.map (fun e -> e.e_view) encs in
  let packages = Encl_pkg.Graph.packages t.graph in
  (* Ablation: without clustering, every package is its own
     meta-package and needs its own protection key. *)
  let pinned = if t.clustering then [ super_pkg ] else packages in
  t.clusters <- Cluster.compute ~packages ~views ~pinned;
  let n = Cluster.count t.clusters in
  (* One key is reserved as the enclosure marker (below), one is the
     default key 0: 14 remain for meta-packages. *)
  if n > Mpk.nr_keys - 2 then
    Error
      (Printf.sprintf
         "LB_MPK: %d meta-packages exceed the %d available protection keys \
          (libmpk-style virtualization not implemented)"
         n (Mpk.nr_keys - 2))
  else begin
    t.keys <- Array.init n (fun i -> i + 1);
    (* Tag every package section with its cluster's key. *)
    for i = 0 to n - 1 do
      List.iter
        (fun pkg ->
          List.iter
            (fun (s : Section.t) ->
              match
                K.syscall t.machine.Machine.kernel
                  (K.Pkey_mprotect
                     {
                       addr = s.Section.addr;
                       len = Section.pages s * Phys.page_size;
                       key = t.keys.(i);
                     })
              with
              | Ok _ ->
                  (* The runtime's own tagging call: witnessed under the
                     trusted scope so witness totals reconcile with the
                     kernel's counters. *)
                  let w = Obs.witness (obs t) in
                  if Witness.enabled w then
                    Witness.syscall w ~scope:"trusted"
                      ~category:(Sysno.category_name Sysno.Cat_mem)
                      ~site:"trusted;litterbox.mpk_recompute" ~allowed:true
              | Error e ->
                  invalid_arg
                    (Printf.sprintf "LB_MPK init: pkey_mprotect failed (%s)"
                       (K.errno_name e)))
            (sections_of t pkg))
        (Cluster.members t.clusters i)
    done;
    (* Per-enclosure PKRU values. The highest key is a {e marker}: it
       tags no page, but every enclosure PKRU denies it while the
       trusted values leave it open. This keeps enclosure PKRU values
       distinct from the trusted ones even when an enclosure's memory
       view covers every package, so the PKRU-indexed seccomp dispatch
       can never mistake enclosed code for trusted code (the ERIM-style
       trusted/untrusted bit). *)
    let marker = Mpk.nr_keys - 1 in
    List.iter
      (fun enc ->
        let pkru = ref (Mpk.set_key Mpk.pkru_all_access ~key:marker Mpk.No_access) in
        for i = 0 to n - 1 do
          let rep = List.hd (Cluster.members t.clusters i) in
          let rights = Types.key_rights (View.access enc.e_view rep) in
          pkru := Mpk.set_key !pkru ~key:t.keys.(i) rights
        done;
        enc.e_pkru <- !pkru;
        enc.e_env <- Some (build_env t enc))
      encs;
    (* Application-trusted environment: everything but super. *)
    let app_pkru =
      match Cluster.cluster_of t.clusters super_pkg with
      | Some i -> Mpk.set_key Mpk.pkru_all_access ~key:t.keys.(i) Mpk.No_access
      | None -> Mpk.pkru_all_access
    in
    t.app_trusted <-
      {
        Cpu.label = "app-trusted";
        pt = t.machine.Machine.trusted_pt;
        pkru = app_pkru;
        exec_ok = None;
        sfi = None;
      };
    (* Seccomp program: dispatch on PKRU. Distinct enclosures that share a
       PKRU value but declare different filters are merged fail-closed
       (rule intersection). *)
    let by_pkru = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun enc ->
        let rules = rules_of_filter enc.e_policy.Policy.filter in
        match Hashtbl.find_opt by_pkru enc.e_pkru with
        | None ->
            Hashtbl.replace by_pkru enc.e_pkru rules;
            order := enc.e_pkru :: !order
        | Some existing -> Hashtbl.replace by_pkru enc.e_pkru (intersect_rules existing rules))
      encs;
    let env_filters =
      List.rev_map
        (fun pkru -> { Seccomp.pkru; rules = Hashtbl.find by_pkru pkru })
        !order
      |> List.rev
    in
    let prog =
      Seccomp.compile
        ~trusted_pkrus:[ Mpk.pkru_all_access; t.app_trusted.Cpu.pkru ]
        env_filters
    in
    match K.install_seccomp t.machine.Machine.kernel prog with
    | Ok () -> Ok ()
    | Error e -> Error ("LB_MPK: seccomp install failed: " ^ e)
  end

(* ------------------------------------------------------------------ *)
(* VTX backend                                                         *)

let vtx_apply_view t enc =
  let pt = Option.get enc.e_pt in
  List.iter
    (fun pkg ->
      let access = View.access enc.e_view pkg in
      List.iter
        (fun (s : Section.t) ->
          let len = Section.pages s * Phys.page_size in
          Mm.protect t.machine.Machine.mm ~pt ~addr:s.Section.addr ~len
            (Types.page_perms access s.Section.kind);
          Mm.set_present t.machine.Machine.mm ~pt ~addr:s.Section.addr ~len
            (access <> Types.U))
        (sections_of t pkg))
    (Encl_pkg.Graph.packages t.graph);
  (* Keep the closure's own text section executable in its environment. *)
  if enc.e_closure_addr <> 0 then begin
    let addr =
      Encl_util.Bitops.align_down enc.e_closure_addr Phys.page_size
    in
    Mm.protect t.machine.Machine.mm ~pt ~addr ~len:Phys.page_size
      { Pte.r = true; w = false; x = true };
    Mm.set_present t.machine.Machine.mm ~pt ~addr ~len:Phys.page_size true
  end

let vtx_recompute t =
  (* Clustering is still computed (it drives reporting and the shared
     meta-package abstraction), but VTX enforcement is per page table. *)
  let encs = ordered_encs t in
  let views = List.map (fun e -> e.e_view) encs in
  let packages = Encl_pkg.Graph.packages t.graph in
  t.clusters <- Cluster.compute ~packages ~views ~pinned:[ super_pkg ];
  List.iter
    (fun enc ->
      (match enc.e_pt with
      | Some _ -> ()
      | None ->
          let pt =
            Pagetable.clone t.machine.Machine.trusted_pt ~name:("env:" ^ enc.e_name)
          in
          enc.e_pt <- Some pt;
          Mm.add_pt t.machine.Machine.mm pt);
      vtx_apply_view t enc;
      enc.e_env <- Some (build_env t enc))
    encs;
  (* super is unmapped from the application's trusted view. *)
  List.iter
    (fun (s : Section.t) ->
      Mm.protect t.machine.Machine.mm ~pt:t.machine.Machine.trusted_pt
        ~addr:s.Section.addr
        ~len:(Section.pages s * Phys.page_size)
        Pte.no_perms)
    (sections_of t super_pkg);
  t.app_trusted <-
    {
      Cpu.label = "app-trusted";
      pt = t.machine.Machine.trusted_pt;
      pkru = Mpk.pkru_all_access;
      exec_ok = None;
      sfi = None;
    };
  Ok ()

(* ------------------------------------------------------------------ *)
(* SFI backend                                                         *)

(* Synthetic sandbox tags, one per enclosure: distinct int32 values
   whose key-0 bits (0 and 1) are clear, so {!Mpk.allows} stays
   permissive over the untagged pages while the PKRU-equality dispatch
   in the seccomp program — and the (pkru, nr, arg0) verdict cache —
   distinguishes every sandbox from trusted code and from each other.
   The base pattern keeps the tags disjoint from any real PKRU the MPK
   backend could compute. *)
let sfi_tag i = Int32.of_int (0x5F100 lor (i lsl 2))

let sfi_recompute t =
  let encs = ordered_encs t in
  let views = List.map (fun e -> e.e_view) encs in
  let packages = Encl_pkg.Graph.packages t.graph in
  (* Clustering still drives reporting and the meta-package
     abstraction, but SFI enforcement is page-granular via the section
     registry — no protection keys, hence no key-count ceiling. *)
  t.clusters <- Cluster.compute ~packages ~views ~pinned:[ super_pkg ];
  List.iteri
    (fun i enc ->
      enc.e_pkru <- sfi_tag i;
      enc.e_env <- Some (build_env t enc))
    encs;
  t.app_trusted <-
    {
      Cpu.label = "app-trusted";
      pt = t.machine.Machine.trusted_pt;
      pkru = Mpk.pkru_all_access;
      exec_ok = None;
      sfi = None;
    };
  (* Syscall filtering rides the ordinary trap path: the seccomp
     program dispatches on the sandbox tag exactly as it dispatches on
     MPK PKRU values, so verdicts, the verdict cache and the sysring
     batching behave identically across backends. *)
  let env_filters =
    List.map
      (fun enc ->
        {
          Seccomp.pkru = enc.e_pkru;
          rules = rules_of_filter enc.e_policy.Policy.filter;
        })
      encs
  in
  let prog = Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access ] env_filters in
  match K.install_seccomp t.machine.Machine.kernel prog with
  | Ok () -> Ok ()
  | Error e -> Error ("LB_SFI: seccomp install failed: " ^ e)

(* ------------------------------------------------------------------ *)
(* Backend dispatch: shared mechanism helpers, then one module per
   backend implementing {!Backend.S}. Everything above this point is
   policy computation; everything below a backend module is generic
   bookkeeping (stacks, counters, spans, elision) that calls through
   {!impl}. *)

let env_of_stack t = function
  | [] -> t.app_trusted
  | enc :: _ -> Option.get enc.e_env

let stack_top t = match t.stack with [] -> None | enc :: _ -> Some enc

let charge_switch t ns = Clock.consume t.machine.Machine.clock Clock.Switch ns

let filter_allows_call (f : Policy.sys_filter) (call : K.call) =
  match call with
  | K.Connect { ip; _ } -> Policy.filter_allows_connect f ~ip
  | _ -> Policy.filter_allows_cat f (Sysno.category (K.sysno_of_call call))

(* Witness taps. Exactly one record per syscall attempt, at the layer
   that decides its fate: the direct-path wrapper ([syscall] below)
   records on return/raise, the drain paths record per entry under the
   submit-time stack. All are branch-only no-ops while witnessing is
   off, and none consume simulated time, so witnessed runs stay
   byte-identical to unwitnessed ones. *)

let witness t = Obs.witness (obs t)

(* Call-site context: the collapsed signature of the innermost open
   span ("lane;outer;...;name"), or the scope's bare "user" frame when
   no span is open (e.g. the event ring is disabled). *)
let witness_site t =
  match Span.top (Obs.spans (obs t)) with
  | Some (_, sig_) -> sig_
  | None -> scope_name t.stack ^ ";user"

let witness_syscall t ~scope ~site call ~allowed =
  let w = witness t in
  if Witness.enabled w then begin
    let nr = K.sysno_of_call call in
    Witness.syscall w ~scope
      ~category:(Sysno.category_name (Sysno.category nr))
      ~site ~allowed;
    match call with
    | K.Connect { ip; _ } when allowed -> Witness.connect w ~scope ~ip
    | _ -> ()
  end

(* Direct path: the caller is whoever is on the stack right now. *)
let witness_call t call ~allowed =
  if Witness.enabled (witness t) then
    witness_syscall t ~scope:(scope_name t.stack) ~site:(witness_site t) call
      ~allowed

(* Drained entry: always the submitter recorded in the SQE — even with
   {!Defense.Ring_integrity} off (where {e enforcement} deliberately
   uses the drain-time stack), the witness reports ground truth about
   who submitted the call. *)
let witness_entry t (e : sq_entry) ~allowed =
  if Witness.enabled (witness t) then
    witness_syscall t ~scope:(scope_name e.sq_env) ~site:e.sq_site e.sq_call
      ~allowed

let capture_site t =
  if Witness.enabled (witness t) then witness_site t else ""

(* Guest-side denial (LB_VTX / LB_LWC): the call never reaches the
   kernel, so the kernel's tap can't see it — record it here. *)
let note_denied t call =
  t.denied_guest <- t.denied_guest + 1;
  let o = obs t in
  if Obs.enabled o then begin
    let nr = K.sysno_of_call call in
    Obs.incr o "syscall.denied";
    Obs.emit o
      (Event.Syscall
         {
           name = Sysno.name nr;
           category = Sysno.category_name (Sysno.category nr);
           verdict = Event.Denied;
         })
  end

(* A guest-filter denial found while draining: same accounting as the
   direct path's [fault t ~enclosure reason] — denial tap, fault log
   entry, quarantine budget — except the exception is stored on the
   completion instead of raised; the awaiting caller re-raises it. *)
let deny_entry t entry ~enclosure reason =
  witness_entry t entry ~allowed:false;
  note_denied t entry.sq_call;
  let trace = Printf.sprintf "fault in %s: %s" enclosure reason in
  record_fault t ~enclosure ~trace reason;
  entry.sq_comp.c_state <- Faulted (Fault { reason; enclosure = Some enclosure })

(* Only the MPK backend populates [t.keys]; elsewhere every package
   maps to key 0, so a transfer never flushes the verdict cache there
   (non-MPK filters do not dispatch on PKRU). *)
let mpk_key_of t pkg =
  match Cluster.cluster_of t.clusters pkg with
  | Some i when i < Array.length t.keys -> t.keys.(i)
  | Some _ | None -> 0

(* The trusted-context pkey_mprotect of the MPK transfer path. The
   whole excursion is a registered gate: the env writes and the trap
   are LitterBox's own, not the enclosure's. *)
let mpk_retag t ~addr ~pages ~key =
  let call = K.Pkey_mprotect { addr; len = pages * Phys.page_size; key } in
  let result =
    Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.retag" (fun () ->
        let saved = Cpu.env t.machine.Machine.cpu in
        Cpu.set_env t.machine.Machine.cpu t.machine.Machine.trusted_env;
        Fun.protect
          ~finally:(fun () -> Cpu.set_env t.machine.Machine.cpu saved)
          (fun () -> K.syscall t.machine.Machine.kernel call))
  in
  (* The runtime's own kernel call, not the enclosure's: witnessed under
     the trusted scope so witness totals reconcile exactly with the
     kernel's counters. *)
  witness_syscall t ~scope:"trusted" ~site:"trusted;litterbox.retag" call
    ~allowed:true;
  match result with
  | Ok _ -> ()
  | Error e ->
      fault t (Printf.sprintf "transfer: pkey_mprotect failed (%s)" (K.errno_name e))

(* Page-table update of the VTX/LWC transfer paths (the cost is charged
   by the caller; this is the view bookkeeping, uniform over the range
   because ownership and hence access are uniform). *)
let pt_retag t ~addr ~bytes ~to_pkg =
  List.iter
    (fun enc ->
      match enc.e_pt with
      | None -> ()
      | Some pt ->
          let access = View.access enc.e_view to_pkg in
          Mm.protect t.machine.Machine.mm ~pt ~addr ~len:bytes
            (Types.page_perms access Section.Arena);
          Mm.set_present t.machine.Machine.mm ~pt ~addr ~len:bytes
            (access <> Types.U))
    (ordered_encs t);
  Mm.protect t.machine.Machine.mm ~pt:t.machine.Machine.trusted_pt ~addr
    ~len:bytes
    { Pte.r = true; w = true; x = false }

(* The trap path (MPK and SFI): the call enters the kernel normally
   and the installed seccomp program dispatches on the environment's
   PKRU — a real PKRU under MPK, the synthetic sandbox tag under SFI.
   Killed calls surface as faults attributed to the calling
   enclosure. *)
let trap_syscall t top call =
  try
    (* The trap site is LitterBox's syscall gate: origin verification
       sees a registered gate, and the seccomp program still dispatches
       on the caller's PKRU/tag. *)
    Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.syscall" (fun () ->
        K.syscall t.machine.Machine.kernel call)
  with K.Syscall_killed { nr; env } ->
    let reason =
      Printf.sprintf "seccomp killed system call %s in %s" (Sysno.name nr) env
    in
    let enclosure = Option.map (fun e -> e.e_name) top in
    record_fault t ?enclosure ~trace:reason reason;
    raise (Fault { reason; enclosure })

(* Trap-path drain (MPK and SFI): one kernel trap for the batch, then
   per-entry dispatch under the submit-time environment — installed per
   entry, a zero-cost bookkeeping write modelling the submitter context
   recorded in the SQE. *)
let trap_drain t entries =
  let kernel = t.machine.Machine.kernel in
  Clock.consume t.machine.Machine.clock Clock.Syscall
    t.machine.Machine.costs.Costs.syscall_base;
  let cpu = t.machine.Machine.cpu in
  (* The whole drain runs inside the ring-drain gate (one trap for the
     batch; its env writes and per-entry dispatches are the runtime's). *)
  Cpu.with_gate cpu ~name:"litterbox.drain" @@ fun () ->
  let saved = Cpu.env cpu in
  Fun.protect ~finally:(fun () -> Cpu.set_env cpu saved) @@ fun () ->
  List.iter
    (fun e ->
      (* Ring integrity: dispatch under the submitter context recorded
         in the SQE. With the defense off, the entry is evaluated under
         whatever environment happens to be current at drain time — the
         confused-deputy window. *)
      if Defense.enabled Defense.Ring_integrity then
        Cpu.set_env cpu (env_of_stack t e.sq_env);
      match K.syscall_in_batch kernel e.sq_call with
      | r ->
          witness_entry t e ~allowed:true;
          e.sq_comp.c_state <- Done r
      | exception K.Syscall_killed { nr; env } ->
          witness_entry t e ~allowed:false;
          let reason =
            Printf.sprintf "seccomp killed system call %s in %s" (Sysno.name nr)
              env
          in
          let enclosure =
            match e.sq_env with [] -> None | enc :: _ -> Some enc.e_name
          in
          record_fault t ?enclosure ~trace:reason reason;
          e.sq_comp.c_state <- Faulted (Fault { reason; enclosure }))
    entries

(* Which enclosure stack polices a drained entry: the submitter's,
   recorded in the SQE (ring integrity), or — with the defense off —
   whichever stack happens to be current at drain time, the
   confused-deputy window the corpus drives through. *)
let drain_filter_env t e =
  if Defense.enabled Defense.Ring_integrity then e.sq_env else t.stack

module type IMPL =
  Backend.S with type ctx = t and type enc = enc_rt and type entry = sq_entry

module MpkB : IMPL = struct
  type ctx = t
  type enc = enc_rt
  type entry = sq_entry

  let id = Backend.Mpk
  let install = mpk_recompute
  let env_of = mpk_env
  let enter t (_ : enc) = charge_switch t t.machine.Machine.costs.Costs.mpk_prolog

  let leave t (_ : enc option) =
    charge_switch t t.machine.Machine.costs.Costs.mpk_epilog

  let resume t (_ : enc option) =
    charge_switch t t.machine.Machine.costs.Costs.wrpkru

  let excursion_costs t =
    let c = t.machine.Machine.costs in
    (c.Costs.mpk_prolog, c.Costs.mpk_epilog)

  let syscall = trap_syscall
  let drain = trap_drain

  let transfer t ~addr ~pages ~to_pkg ~key_changed =
    (* The Transfer hook gates into LitterBox, which performs the
       pkey_mprotect from a trusted context. *)
    mpk_retag t ~addr ~pages ~key:(mpk_key_of t to_pkg);
    (* Cache-epoch defense: the PKRU no longer means what the memoized
       verdicts assumed once a key changed hands. *)
    if key_changed && Defense.enabled Defense.Cache_epoch then
      K.seccomp_invalidate t.machine.Machine.kernel
end

module VtxB : IMPL = struct
  type ctx = t
  type enc = enc_rt
  type entry = sq_entry

  let id = Backend.Vtx
  let install = vtx_recompute
  let env_of = vtx_env

  let target_pt t = function
    | None -> t.machine.Machine.trusted_pt
    | Some enc -> Option.get enc.e_pt

  let enter t enc =
    let vtx = Option.get t.vtx in
    match
      Vtx.guest_syscall vtx
        ~validate:(fun () -> true)
        ~target:(Option.get enc.e_pt)
    with
    | Ok () -> ()
    | Error e -> fault t ~enclosure:enc.e_name e

  let leave t target =
    let vtx = Option.get t.vtx in
    match
      Vtx.guest_sysret vtx ~validate:(fun () -> true) ~target:(target_pt t target)
    with
    | Ok () -> ()
    | Error e -> fault t e

  let resume t target =
    let vtx = Option.get t.vtx in
    match
      Vtx.guest_syscall vtx
        ~validate:(fun () -> true)
        ~target:(target_pt t target)
    with
    | Ok () -> ()
    | Error e -> fault t e

  let excursion_costs t =
    let c = t.machine.Machine.costs in
    (c.Costs.vtx_guest_syscall, c.Costs.vtx_guest_sysret)

  let syscall t top call =
    match top with
    | Some enc when not (filter_allows_call enc.e_policy.Policy.filter call) ->
        note_denied t call;
        fault t ~enclosure:enc.e_name
          (Printf.sprintf "system call %s denied by enclosure filter"
             (Sysno.name (K.sysno_of_call call)))
    | _ -> (
        let vtx = Option.get t.vtx in
        let o = obs t in
        (* The VM-exit round-trip is paid here, outside the kernel's
           own syscall span: bracket it so the exit cost lands in the
           syscall category rather than in the caller's cell. *)
        let sp =
          if Obs.enabled o then
            Obs.span_enter o
              ~name:("hypercall:" ^ Sysno.name (K.sysno_of_call call))
              ~category:Span.Syscall ()
          else -1
        in
        match
          Vtx.hypercall vtx (fun () ->
              Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.syscall"
                (fun () -> K.syscall t.machine.Machine.kernel call))
        with
        | r ->
            Obs.span_exit o sp;
            r
        | exception e ->
            Obs.span_exit o sp;
            raise e)

  let drain t entries =
    (* Guest-side filter checks never leave the VM; only entries that
       pass share the batch's single VM EXIT. *)
    let o = obs t in
    let allowed =
      List.filter
        (fun e ->
          match drain_filter_env t e with
          | top :: _
            when not (filter_allows_call top.e_policy.Policy.filter e.sq_call)
            ->
              deny_entry t e ~enclosure:top.e_name
                (Printf.sprintf "system call %s denied by enclosure filter"
                   (Sysno.name (K.sysno_of_call e.sq_call)));
              false
          | _ -> true)
        entries
    in
    match allowed with
    | [] -> ()
    | _ :: _ ->
        let vtx = Option.get t.vtx in
        let sp2 =
          if Obs.enabled o then
            Obs.span_enter o ~name:"hypercall:ring_drain" ~category:Span.Syscall
              ()
          else -1
        in
        Fun.protect ~finally:(fun () -> Obs.span_exit (obs t) sp2) @@ fun () ->
        Vtx.hypercall vtx (fun () ->
            Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.drain"
            @@ fun () ->
            Clock.consume t.machine.Machine.clock Clock.Syscall
              t.machine.Machine.costs.Costs.syscall_base;
            List.iter
              (fun e ->
                let r = K.syscall_in_batch t.machine.Machine.kernel e.sq_call in
                witness_entry t e ~allowed:true;
                e.sq_comp.c_state <- Done r)
              allowed)

  let transfer t ~addr ~pages ~to_pkg ~key_changed:_ =
    let c = t.machine.Machine.costs in
    Clock.consume t.machine.Machine.clock Clock.Transfer
      (c.Costs.vtx_transfer_base + (pages * c.Costs.vtx_transfer_page));
    pt_retag t ~addr ~bytes:(pages * Phys.page_size) ~to_pkg
end

module LwcB : IMPL = struct
  type ctx = t
  type enc = enc_rt
  type entry = sq_entry

  let id = Backend.Lwc
  let install = vtx_recompute
  let env_of = vtx_env

  (* lwSwitch: an ordinary system call that installs the context's
     memory view. *)
  let enter t (_ : enc) = charge_switch t t.machine.Machine.costs.Costs.lwc_switch
  let leave t (_ : enc option) =
    charge_switch t t.machine.Machine.costs.Costs.lwc_switch

  let resume t (_ : enc option) =
    charge_switch t t.machine.Machine.costs.Costs.lwc_switch

  let excursion_costs t =
    let c = t.machine.Machine.costs in
    (c.Costs.lwc_switch, c.Costs.lwc_switch)

  (* The kernel holds the per-context filter: checked in the normal
     syscall path, no extra crossing. *)
  let syscall t top call =
    match top with
    | Some enc when not (filter_allows_call enc.e_policy.Policy.filter call) ->
        note_denied t call;
        fault t ~enclosure:enc.e_name
          (Printf.sprintf "system call %s denied by the context's filter"
             (Sysno.name (K.sysno_of_call call)))
    | _ ->
        Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.syscall"
          (fun () -> K.syscall t.machine.Machine.kernel call)

  (* One ordinary trap enters the kernel; the per-context filter is
     checked there per entry, as in the direct path. *)
  let drain t entries =
    let kernel = t.machine.Machine.kernel in
    Clock.consume t.machine.Machine.clock Clock.Syscall
      t.machine.Machine.costs.Costs.syscall_base;
    Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.drain" @@ fun () ->
    List.iter
      (fun e ->
        match drain_filter_env t e with
        | top :: _
          when not (filter_allows_call top.e_policy.Policy.filter e.sq_call) ->
            deny_entry t e ~enclosure:top.e_name
              (Printf.sprintf "system call %s denied by the context's filter"
                 (Sysno.name (K.sysno_of_call e.sq_call)))
        | _ ->
            let r = K.syscall_in_batch kernel e.sq_call in
            witness_entry t e ~allowed:true;
            e.sq_comp.c_state <- Done r)
      entries

  let transfer t ~addr ~pages ~to_pkg ~key_changed:_ =
    let c = t.machine.Machine.costs in
    (* A kernel call updating every context's view of the range. *)
    Clock.consume t.machine.Machine.clock Clock.Transfer
      (c.Costs.syscall_base + (pages * c.Costs.lwc_transfer_page));
    pt_retag t ~addr ~bytes:(pages * Phys.page_size) ~to_pkg
end

module SfiB : IMPL = struct
  type ctx = t
  type enc = enc_rt
  type entry = sq_entry

  let id = Backend.Sfi
  let install = sfi_recompute
  let env_of = sfi_env

  (* Crossing the sandbox boundary is a trampoline call, either
     direction: no PKRU write, no CR3 move, no kernel crossing. The
     whole memory policy is paid per access instead (see
     {!Cpu.check_page} and {!Sfi.masked_access}). *)
  let enter t (_ : enc) = Sfi.switch (Option.get t.sfi)
  let leave t (_ : enc option) = Sfi.switch (Option.get t.sfi)
  let resume t (_ : enc option) = Sfi.switch (Option.get t.sfi)

  let excursion_costs t =
    let c = t.machine.Machine.costs in
    (c.Costs.sfi_switch, c.Costs.sfi_switch)

  (* Syscalls ride the ordinary trap path: the seccomp program
     dispatches on the sandbox tag exactly as on an MPK PKRU, so
     verdicts, caching and batching are identical across the two. *)
  let syscall = trap_syscall
  let drain = trap_drain

  let transfer t ~addr:_ ~pages ~to_pkg:_ ~key_changed:_ =
    (* Re-homing a range only updates the sandbox's bounds metadata
       (the section registry the access predicate consults): no
       syscall, no page-table pass, no key re-tagging. *)
    Clock.consume t.machine.Machine.clock Clock.Transfer
      (pages * t.machine.Machine.costs.Costs.sfi_transfer_page)
end

let impl t : (module IMPL) =
  match t.backend with
  | Mpk -> (module MpkB)
  | Vtx -> (module VtxB)
  | Lwc -> (module LwcB)
  | Sfi -> (module SfiB)

let recompute t =
  let (module B) = impl t in
  B.install t

(* ------------------------------------------------------------------ *)
(* Initialization                                                      *)

let charge_init t ~packages ~enclosures =
  let c = t.machine.Machine.costs in
  Clock.consume t.machine.Machine.clock Clock.Init
    ((packages * c.Costs.init_per_package) + (enclosures * c.Costs.init_per_enclosure))

(* Policy overrides: the miner's enforcement hook. A mapping from
   enclosure name to a replacement policy literal, consulted whenever an
   enclosure descriptor is built (static image enclosures at [init],
   dynamic ones via [register_enclosure]). Process-global, like the
   defense registry: the miner's verify/minimality probes re-boot whole
   runtimes around it. *)
let policy_overrides : (string, string) Hashtbl.t = Hashtbl.create 8

let set_policy_override ~enclosure literal =
  Hashtbl.replace policy_overrides enclosure literal

let clear_policy_overrides () = Hashtbl.reset policy_overrides

let make_enc t ~name ~owner ~deps ~policy ~closure_addr =
  let policy =
    match Hashtbl.find_opt policy_overrides name with
    | Some literal -> literal
    | None -> policy
  in
  match Policy.parse policy with
  | Error e -> Error (Printf.sprintf "enclosure %s: bad policy: %s" name e)
  | Ok p -> (
      match View.compute ~graph:t.graph ~deps ~policy:p with
      | Error e -> Error (Printf.sprintf "enclosure %s: %s" name e)
      | Ok view ->
          Ok
            {
              e_name = name;
              e_owner = owner;
              e_deps = deps;
              e_policy = p;
              e_closure_addr = closure_addr;
              e_view = view;
              e_pkru = Mpk.pkru_all_access;
              e_pt = None;
              e_env = None;
              e_faults = 0;
              e_quarantined = false;
            })

let init ~machine ~backend ~image ?(binary_scan = []) ?(clustering = true) () =
  match Loader.load machine image with
  | Error e -> Error ("LitterBox init: " ^ e)
  | Ok () -> (
      let t =
        {
          machine;
          backend;
          graph = image.Image.graph;
          registry = Hashtbl.create 4096;
          pkg_sections = Hashtbl.create 64;
          encs = Hashtbl.create 16;
          enc_order = [];
          verif = Hashtbl.create 32;
          clusters = Cluster.compute ~packages:[] ~views:[] ~pinned:[];
          keys = [||];
          vtx = None;
          sfi = None;
          clustering;
          app_trusted = machine.Machine.trusted_env;
          stack = [];
          switches = 0;
          switch_elided = 0;
          transfers = 0;
          coalesced = 0;
          faults = 0;
          fault_log = [];
          fault_budget = max_int;
          rings = [| Queue.create () |];
          ring_submitted = 0;
          ring_drained = 0;
          ring_batches = 0;
          ring_ipis = 0;
          denied_guest = 0;
          tainted_verified = 0;
          tainted_rejected = 0;
        }
      in
      Obs.set_backend machine.Machine.obs (backend_name backend);
      (* LitterBox's switch, trap, drain and retag sites are the
         scanned, registered call gates of this runtime: the only
         places untrusted execution may legally change environment or
         enter the kernel. *)
      List.iter
        (Cpu.register_gate machine.Machine.cpu)
        [
          "litterbox.gate";
          "litterbox.syscall";
          "litterbox.drain";
          "litterbox.retag";
        ];
      (* Witness memory feed: one record per page-level access check
         that passed every permission layer — [Cpu.check_page] is the
         single checkpoint all four backends funnel through. The scope
         comes from the installed environment's label, not the litterbox
         stack: kernel copy excursions run under the trusted env and
         attribute there, and ring-integrity drains that reinstall the
         submitter's env attribute to the submitter. Owner resolution
         goes through the live section registry, so transferred ranges
         attribute to their current owner. *)
      Cpu.set_access_hook machine.Machine.cpu
        (Some
           (fun kind ~vaddr ->
             let w = Obs.witness machine.Machine.obs in
             if Witness.enabled w then
               match owner_of t ~addr:vaddr with
               | None -> ()
               | Some pkg ->
                   let scope =
                     match
                       enc_of_env_label
                         (Cpu.env machine.Machine.cpu).Cpu.label
                     with
                     | Some e -> e
                     | None -> "trusted"
                   in
                   Witness.touch w ~scope ~pkg
                     ~mode:
                       (match kind with
                       | Cpu.Read -> Witness.R
                       | Cpu.Write -> Witness.W
                       | Cpu.Exec -> Witness.X)
                     ~addr:vaddr));
      List.iter (register_section t) image.Image.sections;
      List.iter
        (fun (v : Image.verif_entry) ->
          Hashtbl.replace t.verif (v.Image.ve_site, v.Image.ve_hook) ())
        image.Image.verif;
      (* ERIM-style binary scan: only litterbox.user may write PKRU. *)
      let offender =
        List.find_opt (fun (pkg, _fn) -> pkg <> user_pkg) binary_scan
      in
      match offender with
      | Some (pkg, fn) ->
          Error
            (Printf.sprintf
               "LB init: binary scan found a PKRU write outside LitterBox: %s.%s"
               pkg fn)
      | None -> (
          (* Build enclosure runtime descriptors. *)
          let rec build = function
            | [] -> Ok ()
            | (e : Image.enclosure_desc) :: rest -> (
                match
                  make_enc t ~name:e.Image.ed_name ~owner:e.Image.ed_owner
                    ~deps:e.Image.ed_direct_deps ~policy:e.Image.ed_policy
                    ~closure_addr:e.Image.ed_closure_addr
                with
                | Error err -> Error err
                | Ok enc ->
                    Hashtbl.replace t.encs enc.e_name enc;
                    t.enc_order <- t.enc_order @ [ enc.e_name ];
                    build rest)
          in
          match build image.Image.enclosures with
          | Error e -> Error e
          | Ok () -> (
              (if backend = Vtx then begin
                 let vtx =
                   Vtx.create ~clock:machine.Machine.clock ~costs:machine.Machine.costs
                     ~trusted_pt:machine.Machine.trusted_pt
                 in
                 Vtx.enter_vm vtx;
                 t.vtx <- Some vtx
               end);
              (if backend = Sfi then begin
                 let sfi =
                   Sfi.create ~clock:machine.Machine.clock
                     ~costs:machine.Machine.costs
                 in
                 (* Obs mirror in lockstep with the Sfi counter: one
                    increment per masked access, at the same point. *)
                 Sfi.set_observer sfi
                   (Some
                      (fun () ->
                        let o = machine.Machine.obs in
                        if Obs.enabled o then Obs.incr o "sfi_masked_access"));
                 t.sfi <- Some sfi
               end);
              match recompute t with
              | Error e -> Error e
              | Ok () ->
                  charge_init t
                    ~packages:(List.length (Encl_pkg.Graph.packages t.graph))
                    ~enclosures:(Hashtbl.length t.encs);
                  Cpu.set_env machine.Machine.cpu t.app_trusted;
                  Log.info (fun m ->
                      m "%s initialized: %d packages, %d enclosures, %d meta-packages"
                        (backend_name backend)
                        (List.length (Encl_pkg.Graph.packages t.graph))
                        (Hashtbl.length t.encs)
                        (Cluster.count t.clusters));
                  Ok t)))

(* ------------------------------------------------------------------ *)
(* Dynamic registration                                                *)

let register_package t ~name ~imports ~sections =
  if Hashtbl.mem t.pkg_sections name && Encl_pkg.Graph.mem t.graph name then
    Error (Printf.sprintf "package %s already registered" name)
  else begin
    Encl_pkg.Graph.add_package t.graph name;
    match
      List.find_opt (fun i -> not (Encl_pkg.Graph.mem t.graph i)) imports
    with
    | Some missing ->
        Error (Printf.sprintf "package %s imports unknown package %s" name missing)
    | None -> (
      (* Layout assumption (paper 2.3): packages cannot share pages.
         Verify the new sections against everything already registered. *)
      let conflict =
        List.find_map
          (fun (s : Section.t) ->
            let first = s.Section.addr / Phys.page_size in
            let last = (Section.end_addr s - 1) / Phys.page_size in
            let rec scan vpn =
              if vpn > last then None
              else
                match Hashtbl.find_opt t.registry vpn with
                | Some (owner, _) when owner <> name ->
                    Some (s.Section.name, owner)
                | Some _ | None -> scan (vpn + 1)
            in
            scan first)
          sections
      in
      match conflict with
      | Some (sec, owner) ->
          Error
            (Printf.sprintf
               "package %s: section %s shares a page with package %s" name sec
               owner)
      | None ->
        List.iter
          (fun imported -> Encl_pkg.Graph.add_import t.graph ~importer:name ~imported)
          imports;
        List.iter (register_section t) sections;
        (* Recompute views: new packages become visible per the default
           policy unless explicitly restricted. *)
        let rec update = function
          | [] -> Ok ()
          | enc :: rest -> (
              match
                View.compute ~graph:t.graph ~deps:enc.e_deps ~policy:enc.e_policy
              with
              | Error e -> Error e
              | Ok view ->
                  enc.e_view <- view;
                  update rest)
        in
        (match update (ordered_encs t) with
        | Error e -> Error e
        | Ok () -> (
            match recompute t with
            | Error e -> Error e
            | Ok () ->
                charge_init t ~packages:1 ~enclosures:0;
                Ok ())))
  end

let register_enclosure t ~name ~owner ~deps ~policy ~closure_addr =
  if Hashtbl.mem t.encs name then
    Error (Printf.sprintf "enclosure %s already registered" name)
  else
    match make_enc t ~name ~owner ~deps ~policy ~closure_addr with
    | Error e -> Error e
    | Ok enc -> (
        Hashtbl.replace t.encs name enc;
        t.enc_order <- t.enc_order @ [ name ];
        let site = "enclosure:" ^ name in
        Hashtbl.replace t.verif (site, Image.Prolog) ();
        Hashtbl.replace t.verif (site, Image.Epilog) ();
        match recompute t with
        | Error e -> Error e
        | Ok () ->
            charge_init t ~packages:0 ~enclosures:1;
            Ok ())

let add_import t ~importer ~imported =
  if not (Encl_pkg.Graph.mem t.graph importer) then
    Error (Printf.sprintf "unknown importer %s" importer)
  else if not (Encl_pkg.Graph.mem t.graph imported) then
    Error (Printf.sprintf "unknown imported package %s" imported)
  else begin
    Encl_pkg.Graph.add_import t.graph ~importer ~imported;
    let rec update = function
      | [] -> Ok ()
      | enc :: rest -> (
          match View.compute ~graph:t.graph ~deps:enc.e_deps ~policy:enc.e_policy with
          | Error e -> Error e
          | Ok view ->
              enc.e_view <- view;
              update rest)
    in
    match update (ordered_encs t) with
    | Error e -> Error e
    | Ok () -> (
        match recompute t with
        | Error e -> Error e
        | Ok () ->
            charge_init t ~packages:0 ~enclosures:0;
            Ok ())
  end

(* ------------------------------------------------------------------ *)
(* Switches                                                            *)

let check_site t site hook =
  if not (Hashtbl.mem t.verif (site, hook)) then
    fault t
      (Printf.sprintf "call-site %s not in the .verif list for %s" site
         (Image.hook_name hook))

let set_hw_env t env =
  (* Every runtime-driven switch runs inside the switch gate, so the
     gate-integrity check can tell it from a forged wrpkru/CR3 write. *)
  Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.gate" (fun () ->
      Cpu.set_env t.machine.Machine.cpu env)

(* Single point through which the enclosure stack changes: keeps the
   hardware environment and the observability context in lockstep. *)
let set_stack t stack =
  t.stack <- stack;
  Obs.set_context (obs t)
    (match stack with [] -> None | enc :: _ -> Some enc.e_name);
  set_hw_env t (env_of_stack t stack)

(* Core hop (SMP): re-install the environment stack a core already had
   loaded when the interleaver last left it. On real hardware nothing is
   written — each core keeps its own PKRU register, CR3 and TLB — so
   this is pure bookkeeping: the stack and the obs context move, the CPU
   model's notion of "current env" moves via {!Cpu.restore_env} (no TLB
   flush, no cost, no switch counted). Only the scheduler may call it,
   and only with a stack this core previously installed through the
   costed paths. *)
let install_core_env t stack =
  t.stack <- stack;
  Obs.set_context (obs t)
    (match stack with [] -> None | enc :: _ -> Some enc.e_name);
  Cpu.with_gate t.machine.Machine.cpu ~name:"litterbox.gate" (fun () ->
      Cpu.restore_env t.machine.Machine.cpu (env_of_stack t stack))

(* Switch elision (fast path). A switch whose target hardware
   environment is bit-identical to the installed one — same PKRU, same
   page-table root — does not need the paid PKRU/CR3 write: the check
   below is the rdpkru-class comparison the real runtime would do, and
   when it holds the switch charges [switch_elided] instead of the
   backend's switch cost. Everything else is unchanged: the stack still
   moves through [set_stack] (obs context, env install — a no-op write),
   the switch still counts in [switches] and the obs "switch" metric (so
   trace cross-checks reconcile), and validation/quarantine checks ran
   before we got here. Only the cost differs, which is what
   "semantics-preserving" means for this path. *)
let hw_env_equal t (target : Cpu.env) =
  let cur = Cpu.env t.machine.Machine.cpu in
  Int32.equal cur.Cpu.pkru target.Cpu.pkru
  && Pagetable.id cur.Cpu.pt = Pagetable.id target.Cpu.pt

let can_elide t stack = Fastpath.enabled () && hw_env_equal t (env_of_stack t stack)

let note_elision t scope =
  t.switch_elided <- t.switch_elided + 1;
  let o = obs t in
  if Obs.enabled o then Obs.incr o ~scope "switch_elided"

(* ------------------------------------------------------------------ *)
(* Syscall ring                                                        *)

(* Drain the submission queue: one privilege crossing for the whole
   batch — a single kernel trap (MPK/LWC/SFI) or a single VM EXIT
   (VTX) — then per-entry dispatch inside the kernel via
   [K.syscall_in_batch]. Each entry is checked under its submit-time
   environment: guest-side filters (VTX/LWC) against the captured stack
   top, the trap-path seccomp program against the captured
   environment's PKRU or sandbox tag. Verdicts, fault accounting and
   errno results are exactly what the direct path produces, in
   submission order. The per-backend mechanism lives in the
   {!Backend.S} implementations above. *)
let drain_one_ring t ~entries =
  let n = List.length entries in
  t.ring_batches <- t.ring_batches + 1;
  t.ring_drained <- t.ring_drained + n;
  let o = obs t in
  if Obs.enabled o then begin
    Obs.incr o "ring_batches";
    Obs.incr o ~by:n "ring_drained"
  end;
  let sp =
    if Obs.enabled o then
      Obs.span_enter o
        ~name:(Printf.sprintf "ring_drain:%d" n)
        ~category:Span.Syscall ()
    else -1
  in
  Fun.protect ~finally:(fun () -> Obs.span_exit (obs t) sp) @@ fun () ->
  let (module B) = impl t in
  B.drain t entries

(* Each core drains its own ring on its own lane, in core order. The
   core that hit the drain point flushes remote non-empty rings too —
   the IPI a real kernel would send to make a sibling core flush — and
   each remote flush is counted as a cross-core wakeup. On one core
   this is exactly the old single-ring drain. *)
let drain t =
  let clock = t.machine.Machine.clock in
  let initiator = Clock.lane clock in
  Array.iteri
    (fun core ring ->
      if not (Queue.is_empty ring) then begin
        let entries = List.of_seq (Queue.to_seq ring) in
        Queue.clear ring;
        if core <> initiator then begin
          t.ring_ipis <- t.ring_ipis + 1;
          let o = obs t in
          if Obs.enabled o then Obs.incr o "ring_ipi"
        end;
        Clock.set_lane clock core;
        Fun.protect
          ~finally:(fun () -> Clock.set_lane clock initiator)
          (fun () -> drain_one_ring t ~entries)
      end)
    t.rings

let ring_for t core =
  if core >= Array.length t.rings then begin
    let n = Array.length t.rings in
    t.rings <-
      Array.init
        (max (core + 1) (2 * n))
        (fun i -> if i < n then t.rings.(i) else Queue.create ())
  end;
  t.rings.(core)

let submit t call =
  let core = Clock.lane t.machine.Machine.clock in
  let ring = ring_for t core in
  (* Queue-full is a drain point: flush first so the new entry keeps
     submission order. *)
  if Queue.length ring >= ring_capacity then drain t;
  let comp = { c_state = Pending } in
  Queue.add
    {
      sq_call = call;
      sq_env = t.stack;
      sq_site = capture_site t;
      sq_core = core;
      sq_comp = comp;
    }
    ring;
  t.ring_submitted <- t.ring_submitted + 1;
  Clock.consume t.machine.Machine.clock Clock.Syscall
    t.machine.Machine.costs.Costs.ring_submit;
  let o = obs t in
  if Obs.enabled o then Obs.incr o "ring_submitted";
  comp

let completion_ready c =
  match c.c_state with Pending -> false | Done _ | Faulted _ -> true

let await t c =
  (match c.c_state with Pending -> drain t | Done _ | Faulted _ -> ());
  match c.c_state with
  | Done r -> r
  | Faulted e -> raise e
  | Pending -> assert false (* drain completes every queued entry *)

let ring_pending t =
  Array.fold_left (fun acc ring -> acc + Queue.length ring) 0 t.rings

let prolog t ~name ~site =
  Log.debug (fun m -> m "prolog %s (site %s)" name site);
  check_site t site Image.Prolog;
  match Hashtbl.find_opt t.encs name with
  | None -> fault t (Printf.sprintf "unknown enclosure %s" name)
  | Some enc ->
      (* Fail-closed degradation: a quarantined enclosure can no longer
         be entered — refuse before charging any switch cost. Not a new
         fault (the budget-crossing fault was already recorded). *)
      if enc.e_quarantined then
        raise (Quarantined { enclosure = name; faults = enc.e_faults });
      (match t.stack with
      | [] -> ()
      | top :: _ ->
          (* Only equal-or-more-restrictive transitions are allowed. *)
          if
            not
              (View.subset enc.e_view top.e_view
              && Policy.filter_leq enc.e_policy.Policy.filter
                   top.e_policy.Policy.filter)
          then
            fault t ~enclosure:top.e_name
              (Printf.sprintf
                 "switch into %s would escalate privileges (nested enclosures \
                  may only restrict)"
                 name));
      t.switches <- t.switches + 1;
      note_switch t enc.e_name;
      let o = obs t in
      let sp =
        if Obs.enabled o then
          Obs.span_enter o ~lane:name ~name:("prolog:" ^ name)
            ~category:Span.Prolog ()
        else -1
      in
      let t0 = Clock.now t.machine.Machine.clock in
      let c = t.machine.Machine.costs in
      (match
         if can_elide t (enc :: t.stack) then begin
           Clock.consume t.machine.Machine.clock Clock.Switch
             c.Costs.switch_elided;
           note_elision t enc.e_name
         end
         else
           let (module B) = impl t in
           B.enter t enc
       with
      | () ->
          set_stack t (enc :: t.stack);
          emit_switch t ~t0 (Event.Prolog { enclosure = name; site });
          Obs.span_exit o sp
      | exception e ->
          Obs.span_exit o sp;
          raise e)

let epilog t ~site =
  check_site t site Image.Epilog;
  (* Epilog-drain invariant: no submission-queue entry may be evaluated
     under a later enclosure's filter — flush before this enclosure's
     environment leaves the stack. Entries carry their submit-time
     environment, so verdicts are correct by construction; the drain
     here additionally keeps kernel-effect ordering ahead of whatever
     trusted code runs after the switch. Half of the ring-integrity
     defense (the other half is submit-time environment capture): with
     it off, leftover entries survive the epilog and drain later under
     whoever is current — the corpus' confused-deputy window. *)
  if Defense.enabled Defense.Ring_integrity then drain t;
  match t.stack with
  | [] -> fault t "epilog with no active enclosure"
  | top :: rest ->
      t.switches <- t.switches + 1;
      note_switch t top.e_name;
      let o = obs t in
      let sp =
        if Obs.enabled o then
          Obs.span_enter o ~lane:top.e_name ~name:("epilog:" ^ top.e_name)
            ~category:Span.Epilog ()
        else -1
      in
      let t0 = Clock.now t.machine.Machine.clock in
      let c = t.machine.Machine.costs in
      (match
         if can_elide t rest then begin
           Clock.consume t.machine.Machine.clock Clock.Switch
             c.Costs.switch_elided;
           note_elision t top.e_name
         end
         else
           let (module B) = impl t in
           B.leave t (match rest with [] -> None | e :: _ -> Some e)
       with
      | () ->
          set_stack t rest;
          emit_switch t ~t0 (Event.Epilog { site });
          Obs.span_exit o sp
      | exception e ->
          Obs.span_exit o sp;
          raise e)

let in_enclosure t = match t.stack with [] -> None | e :: _ -> Some e.e_name

(* ------------------------------------------------------------------ *)
(* System calls                                                        *)

let syscall t call =
  let (module B) = impl t in
  match B.syscall t (stack_top t) call with
  | r ->
      witness_call t call ~allowed:true;
      r
  | exception e ->
      (* Any exception out of the backend's verdict path — guest filter
         fault, seccomp kill surfaced as [Fault] — is a denial. *)
      witness_call t call ~allowed:false;
      raise e

(* ------------------------------------------------------------------ *)
(* Transfer                                                            *)

(* Re-home one range in the section registry: add the new Arena section
   for [to_pkg] and drop the range from its previous owner's list.
   Returns whether the range's MPK key assignment changed — the event
   that must flush the seccomp verdict cache (a meta-package's rights
   over the range are not what any cached verdict could have assumed).
   Only the MPK backend populates [t.keys]; elsewhere every package
   maps to key 0, so a transfer never flushes the verdict cache there
   (non-MPK filters do not dispatch on PKRU or the SFI tag). *)
let rehome_range t ~addr ~len ~to_pkg =
  let sec =
    Section.make
      ~name:(Printf.sprintf "%s.arena@%#x" to_pkg addr)
      ~owner:to_pkg ~kind:Section.Arena ~addr ~size:len
  in
  let key_changed =
    match owner_of t ~addr with
    | Some prev when prev <> to_pkg ->
        (match Hashtbl.find_opt t.pkg_sections prev with
        | Some lst ->
            lst :=
              List.filter (fun (s : Section.t) -> s.Section.addr <> addr) !lst
        | None -> ());
        mpk_key_of t prev <> mpk_key_of t to_pkg
    | Some _ -> false
    | None -> false
  in
  register_section t sec;
  key_changed

let transfer t ~addr ~len ~to_pkg ~site =
  Log.debug (fun m -> m "transfer %#x+%d -> %s" addr len to_pkg);
  check_site t site Image.Transfer;
  if not (Encl_pkg.Graph.mem t.graph to_pkg) then
    fault t (Printf.sprintf "transfer to unknown package %s" to_pkg);
  t.transfers <- t.transfers + 1;
  (if Obs.enabled (obs t) then Obs.incr (obs t) "transfer");
  (let w = witness t in
   if Witness.enabled w then Witness.transfer w ~scope:(scope_name t.stack));
  let sp =
    let o = obs t in
    if Obs.enabled o then
      Obs.span_enter o ~name:("transfer:" ^ to_pkg) ~category:Span.Transfer ()
    else -1
  in
  Fun.protect ~finally:(fun () -> Obs.span_exit (obs t) sp) @@ fun () ->
  let t0 = Clock.now t.machine.Machine.clock in
  let pages = (max len 1 + Phys.page_size - 1) / Phys.page_size in
  let key_changed = rehome_range t ~addr ~len ~to_pkg in
  let (module B) = impl t in
  B.transfer t ~addr ~pages ~to_pkg ~key_changed;
  let o = obs t in
  if Obs.enabled o then begin
    let dur = Clock.now t.machine.Machine.clock - t0 in
    Obs.observe o "transfer_ns" dur;
    Obs.emit o ~dur (Event.Transfer { to_pkg; pages })
  end

(* Coalesced transfer (fast path): hand [len] bytes at [addr] to
   [to_pkg] in [chunk]-sized pieces — exactly what a loop of [transfer]
   calls over the adjacent sub-ranges would do to the section registry
   (one Arena section per chunk, so later exact-address re-transfers and
   [mpk_recompute] re-tagging behave identically) — but with a single
   hardware update over the whole range: one pkey_mprotect syscall (MPK)
   or one page-table walk (VTX/LWC) instead of one per chunk. Counters
   stay in lockstep with the slow path: [transfers] and the obs
   "transfer" metric advance by the number of chunks. With the fast path
   off (or a single chunk) this {e is} the loop of [transfer] calls. *)
let transfer_range t ~addr ~len ~chunk ~to_pkg ~site =
  if chunk <= 0 then invalid_arg "Litterbox.transfer_range: chunk must be > 0";
  if len <= 0 then invalid_arg "Litterbox.transfer_range: len must be > 0";
  let n = (len + chunk - 1) / chunk in
  let chunk_len i = min chunk (len - (i * chunk)) in
  if (not (Fastpath.enabled ())) || n <= 1 then
    for i = 0 to n - 1 do
      transfer t ~addr:(addr + (i * chunk)) ~len:(chunk_len i) ~to_pkg ~site
    done
  else begin
    Log.debug (fun m ->
        m "transfer %#x+%d -> %s (coalesced, %d chunks)" addr len to_pkg n);
    check_site t site Image.Transfer;
    if not (Encl_pkg.Graph.mem t.graph to_pkg) then
      fault t (Printf.sprintf "transfer to unknown package %s" to_pkg);
    t.transfers <- t.transfers + n;
    t.coalesced <- t.coalesced + n;
    (let w = witness t in
     if Witness.enabled w then
       for _ = 1 to n do
         Witness.transfer w ~scope:(scope_name t.stack)
       done);
    let o = obs t in
    (if Obs.enabled o then begin
       Obs.incr o ~by:n "transfer";
       Obs.incr o ~by:n "transfer_coalesced"
     end);
    let sp =
      if Obs.enabled o then
        Obs.span_enter o ~name:("transfer:" ^ to_pkg) ~category:Span.Transfer ()
      else -1
    in
    Fun.protect ~finally:(fun () -> Obs.span_exit (obs t) sp) @@ fun () ->
    let t0 = Clock.now t.machine.Machine.clock in
    let key_changed = ref false in
    let pages = ref 0 in
    for i = 0 to n - 1 do
      let clen = chunk_len i in
      if rehome_range t ~addr:(addr + (i * chunk)) ~len:clen ~to_pkg then
        key_changed := true;
      pages := !pages + ((max clen 1 + Phys.page_size - 1) / Phys.page_size)
    done;
    let (module B) = impl t in
    B.transfer t ~addr ~pages:!pages ~to_pkg ~key_changed:!key_changed;
    if Obs.enabled o then begin
      let dur = Clock.now t.machine.Machine.clock - t0 in
      Obs.observe o "transfer_ns" dur;
      Obs.emit o ~dur (Event.Transfer { to_pkg; pages = !pages })
    end
  end

(* ------------------------------------------------------------------ *)
(* Execute (scheduler switches) and trusted excursions                 *)

let capture_env t = t.stack
let trusted_env_ref _t = []

let env_matches t env_ref =
  List.length t.stack = List.length env_ref
  && List.for_all2 (fun a b -> a.e_name = b.e_name) t.stack env_ref

let env_refs_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> x.e_name = y.e_name) a b

let execute t env_ref ~site =
  check_site t site Image.Execute;
  (* Resume-check defense: a captured environment may have been
     quarantined while its fiber was parked; re-installing it would be
     the stale-PKRU re-entry attack. Prolog already polices fresh
     entries — this closes the scheduler's resume path. *)
  (if Defense.enabled Defense.Resume_check then
     match List.find_opt (fun e -> e.e_quarantined) env_ref with
     | Some enc ->
         raise (Quarantined { enclosure = enc.e_name; faults = enc.e_faults })
     | None -> ());
  t.switches <- t.switches + 1;
  let target_scope = scope_name env_ref in
  note_switch t target_scope;
  let o = obs t in
  let sp =
    if Obs.enabled o then
      Obs.span_enter o ~lane:target_scope ~name:("execute:" ^ target_scope)
        ~category:Span.Sched ()
    else -1
  in
  let t0 = Clock.now t.machine.Machine.clock in
  let c = t.machine.Machine.costs in
  (match
     if can_elide t env_ref then begin
       Clock.consume t.machine.Machine.clock Clock.Switch c.Costs.switch_elided;
       note_elision t target_scope
     end
     else
       let (module B) = impl t in
       B.resume t (match env_ref with [] -> None | e :: _ -> Some e)
   with
  | () ->
      set_stack t env_ref;
      emit_switch t ~t0
        (Event.Execute
           {
             target =
               (match env_ref with [] -> None | enc :: _ -> Some enc.e_name);
           });
      Obs.span_exit o sp
  | exception e ->
      Obs.span_exit o sp;
      raise e)

let with_trusted t f =
  let saved = t.stack in
  let scope = scope_name saved in
  (let w = witness t in
   if Witness.enabled w && saved <> [] then Witness.trusted_call w ~scope);
  let o = obs t in
  let c = t.machine.Machine.costs in
  let switch_cost, return_cost =
    let (module B) = impl t in
    B.excursion_costs t
  in
  (* The excursion's switch costs are attributed to the enclosure that
     requested it (two short spans); the work inside [f] stays in the
     caller's cell — usually gc, which opens its own span. *)
  let sp =
    if Obs.enabled o then
      Obs.span_enter o ~lane:scope ~name:"excursion:enter"
        ~category:Span.Prolog ()
    else -1
  in
  (if can_elide t [] then begin
     Clock.consume t.machine.Machine.clock Clock.Switch c.Costs.switch_elided;
     note_elision t scope
   end
   else Clock.consume t.machine.Machine.clock Clock.Switch switch_cost);
  Obs.span_exit o sp;
  t.switches <- t.switches + 1;
  note_switch t scope;
  set_stack t [];
  Fun.protect
    ~finally:(fun () ->
      let sp =
        if Obs.enabled o then
          Obs.span_enter o ~lane:scope ~name:"excursion:exit"
            ~category:Span.Epilog ()
        else -1
      in
      (if can_elide t saved then begin
         Clock.consume t.machine.Machine.clock Clock.Switch
           c.Costs.switch_elided;
         note_elision t scope
       end
       else Clock.consume t.machine.Machine.clock Clock.Switch return_cost);
      Obs.span_exit o sp;
      t.switches <- t.switches + 1;
      note_switch t scope;
      set_stack t saved)
    f

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let view_of t name = Option.map (fun e -> e.e_view) (Hashtbl.find_opt t.encs name)

let current_access t pkg =
  match t.stack with
  | [] -> None
  | enc :: _ -> Some (View.access enc.e_view pkg)

let pkru_of t name =
  match t.backend with
  | Vtx | Lwc | Sfi -> None
  | Mpk -> Option.map (fun e -> e.e_pkru) (Hashtbl.find_opt t.encs name)

let cluster t = t.clusters
let enclosure_names t = t.enc_order

let enclosure_deps t name =
  Option.map (fun e -> e.e_deps) (Hashtbl.find_opt t.encs name)

let policy_of t name =
  Option.map (fun e -> e.e_policy) (Hashtbl.find_opt t.encs name)
let switch_count t = t.switches
let switch_elided_count t = t.switch_elided
let transfer_count t = t.transfers
let transfer_coalesced_count t = t.coalesced
let fault_count t = t.faults
let fault_log t = t.fault_log
let ring_submitted_count t = t.ring_submitted
let ring_drained_count t = t.ring_drained
let ring_batches_count t = t.ring_batches
let ring_ipi_count t = t.ring_ipis
let guest_denied_count t = t.denied_guest
let vmexit_count t = match t.vtx with Some v -> Vtx.vmexits v | None -> 0

let sfi_masked_access_count t =
  match t.sfi with Some s -> Sfi.masked_accesses s | None -> 0

let sfi_guard_fault_count t =
  match t.sfi with Some s -> Sfi.guard_faults s | None -> 0

(* Tainted-boundary accounting (see {!Enclosure.Tainted}): the boundary
   layer reports each verification here so the counters live next to
   the rest of the enforcement telemetry, with obs mirrors moved at the
   same program point. *)
let note_tainted_verified t =
  t.tainted_verified <- t.tainted_verified + 1;
  (let w = witness t in
   if Witness.enabled w then
     Witness.tainted w ~scope:(scope_name t.stack) ~verified:true);
  if Obs.enabled (obs t) then Obs.incr (obs t) "tainted_verified"

let note_tainted_rejected t =
  t.tainted_rejected <- t.tainted_rejected + 1;
  (let w = witness t in
   if Witness.enabled w then
     Witness.tainted w ~scope:(scope_name t.stack) ~verified:false);
  if Obs.enabled (obs t) then Obs.incr (obs t) "tainted_rejected"

let tainted_verified_count t = t.tainted_verified
let tainted_rejected_count t = t.tainted_rejected

(* Gate violations across the layers: forged environment writes and
   unregistered-gate entries (CPU), non-gate-origin syscall kills and
   denied mm-shaping calls (kernel). The obs counter "gate_violation"
   mirrors this sum — each layer increments it at the same point. *)
let gate_violation_count t =
  Cpu.gate_violation_count t.machine.Machine.cpu
  + K.origin_kill_count t.machine.Machine.kernel
  + K.mm_denied_count t.machine.Machine.kernel

(* ------------------------------------------------------------------ *)
(* Quarantine control                                                  *)

let set_fault_budget t n =
  if n < 1 then invalid_arg "Litterbox.set_fault_budget: budget must be >= 1";
  t.fault_budget <- n

let fault_budget t = t.fault_budget

let quarantined t name =
  match Hashtbl.find_opt t.encs name with
  | Some enc -> enc.e_quarantined
  | None -> false

let enclosure_fault_count t name =
  match Hashtbl.find_opt t.encs name with Some enc -> enc.e_faults | None -> 0

let unquarantine t name =
  match Hashtbl.find_opt t.encs name with
  | None -> Error (Printf.sprintf "unknown enclosure %s" name)
  | Some enc ->
      enc.e_quarantined <- false;
      enc.e_faults <- 0;
      Ok ()

(* ------------------------------------------------------------------ *)
(* Fault absorption                                                    *)

(* Turn a fault-family exception into a description, accounting it if
   (and only if) it has not been accounted yet: [Fault] and
   [Quarantined] were recorded at the raise site; a [Cpu.Fault] or
   [K.Syscall_killed] escaped the lower layers uncounted and is charged
   here, attributed to the enclosure named by the faulting environment's
   label. Non-fault exceptions yield [None]. *)
let absorb_fault t = function
  | Fault { reason; enclosure } ->
      Some
        (Printf.sprintf "enclosure fault%s: %s"
           (match enclosure with Some e -> " in " ^ e | None -> "")
           reason)
  | Quarantined { enclosure; faults } ->
      Some
        (Printf.sprintf "enclosure %s is quarantined (%d faults)" enclosure
           faults)
  | Cpu.Fault info ->
      (* Root-cause trace: name the package that owns the address. *)
      let owner =
        match owner_of t ~addr:info.Cpu.vaddr with
        | Some pkg -> Printf.sprintf " (address belongs to package %s)" pkg
        | None -> " (address is outside any package section)"
      in
      let trace = Format.asprintf "%a%s" Cpu.pp_fault info owner in
      record_fault t
        ?enclosure:(enc_of_env_label info.Cpu.env)
        ~trace trace;
      Some trace
  | K.Syscall_killed { nr; env } ->
      let reason =
        Printf.sprintf "seccomp killed system call %s in %s" (Sysno.name nr) env
      in
      record_fault t ?enclosure:(enc_of_env_label env) ~trace:reason reason;
      Some reason
  | _ -> None

let run_protected t f =
  let o = obs t in
  let sp =
    if Obs.enabled o then
      Obs.span_enter o ~name:"run_protected" ~category:Span.User ()
    else -1
  in
  match f () with
  | v ->
      Obs.span_exit o sp;
      Ok v
  | exception e -> (
      Obs.span_exit o sp;
      match absorb_fault t e with Some msg -> Error msg | None -> raise e)

