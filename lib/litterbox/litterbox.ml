module K = Encl_kernel.Kernel
module Sysno = Encl_kernel.Sysno
module Seccomp = Encl_kernel.Seccomp
module Mm = Encl_kernel.Mm
module Image = Encl_elf.Image
module Section = Encl_elf.Section
module Obs = Encl_obs.Obs
module Metrics = Encl_obs.Metrics
module Span = Encl_obs.Span
module Witness = Encl_obs.Witness

type backend = Backend.t = Mpk | Vtx | Lwc | Sfi

let backend_name = Backend.name

exception Fault of { reason : string; enclosure : string option }
exception Quarantined of { enclosure : string; faults : int }

let log_src = Logs.Src.create "litterbox" ~doc:"LitterBox enclosure backend"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* LitterBox's counters in the machine's registry. *)
module C = struct
  let switch = Metrics.counter "switch"
  let switch_elided = Metrics.counter "switch_elided"
  let transfer = Metrics.counter "transfer"
  let transfer_coalesced = Metrics.counter "transfer_coalesced"
  let fault = Metrics.counter "fault"
  let quarantine = Metrics.counter "quarantine"
  let ring_submitted = Metrics.counter "ring_submitted"
  let ring_drained = Metrics.counter "ring_drained"
  let ring_batches = Metrics.counter "ring_batches"
  let ring_ipi = Metrics.counter "ring_ipi"
  let tainted_verified = Metrics.counter "tainted_verified"
  let tainted_rejected = Metrics.counter "tainted_rejected"
  let sfi_masked_access = Metrics.counter "sfi_masked_access"
end

let super_pkg = "litterbox.super"
let user_pkg = "litterbox.user"

type enc_rt = {
  e_name : string;
  e_owner : string;
  e_deps : string list;
  e_policy : Policy.t;
  e_closure_addr : int;
  e_scope : Metrics.scope;  (** interned once, at registration *)
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

(* Registry epochs come from one process-wide counter, so a handle
   resolved against one LitterBox never passes for resolved against
   another. *)
let epochs = ref 0

let fresh_epoch () =
  incr epochs;
  !epochs

type t = {
  machine : Machine.t;
  backend : backend;
  graph : Encl_pkg.Graph.t;
  registry : (string * Section.kind) Vpn_map.t;
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
  mutable fault_log : string list;
  mutable fault_budget : int;  (** per-enclosure; [max_int] = no quarantine *)
  mutable rings : sq_entry Queue.t array;
      (** one submission queue per simulated core (indexed by clock
          lane, grown on demand): each core batches its own traffic and
          drains it on its own lane. *)
  mutable denied_guest : int;
      (** guest-side denials (VTX/LWC filter checks, direct or drained):
          calls the kernel's own counters never saw *)
  mutable reg_epoch : int;
      (** renewed whenever [encs] or [verif] changes: a {!handle}
          resolved at another epoch resolves again *)
  g_switch : Cpu.gate;  (** ["litterbox.gate"]: every runtime switch *)
  g_syscall : Cpu.gate;  (** ["litterbox.syscall"]: the trap site *)
  g_drain : Cpu.gate;  (** ["litterbox.drain"]: a ring drain *)
  g_retag : Cpu.gate;  (** ["litterbox.retag"]: LitterBox's pkey_mprotect *)
  gated_syscall : K.call -> (int, K.errno) result;
      (** [K.syscall] on this machine's kernel, issued inside
          [g_syscall]; built once *)
  mutable exc_in : int;
  mutable exc_out : int;
      (** the backend's trusted-excursion switch costs, read once *)
}

(* An enclosure and its call site, resolved on first entry and again
   after any registration: what a switch used to look up by name on
   every call. [h_stack] memoizes the last stack
   entering built, [enc :: base], so entering again from the same base
   allocates nothing. *)
type handle = {
  h_name : string;
  h_site : string;
  mutable h_epoch : int;  (** [reg_epoch] the fields below were read at *)
  mutable h_enc : enc_rt option;
  mutable h_prolog_ok : bool;  (** [(h_site, Prolog)] is in [.verif] *)
  mutable h_epilog_ok : bool;  (** [(h_site, Epilog)] is in [.verif] *)
  mutable h_stack : enc_rt list;
}

let machine t = t.machine
let backend t = t.backend
let graph t = t.graph
let obs t = t.machine.Machine.obs
let metrics t = Obs.metrics (obs t)
let count t c = Metrics.total (metrics t) c

(* A switch counts under the enclosure it enters, leaves or resumes,
   before the switch happens, so an operation that aborts mid-switch is
   still counted. *)
let note_switch t scope = Metrics.incr_in (metrics t) ~scope C.switch

let scope_name = function [] -> "trusted" | enc :: _ -> enc.e_name
let env_scope = scope_name
let stack_scope = function [] -> Metrics.trusted | enc :: _ -> enc.e_scope

(* The single fault-accounting point: every fault — raised by [fault],
   caught from the CPU or from seccomp — flows through here exactly
   once, keeping the "fault" counter, t.fault_log and the per-enclosure
   quarantine budget in lockstep. [trace] is the log-book entry;
   [reason] is what the fault mark carries, on the enclosure's lane. *)
let record_fault t ?enclosure ~trace reason =
  Metrics.incr (metrics t) C.fault;
  t.fault_log <- trace :: t.fault_log;
  Log.err (fun m -> m "%s" trace);
  (let o = obs t in
   if Obs.enabled o then
     Obs.span_mark o ?lane:enclosure ~name:("fault:" ^ reason)
       ~category:Span.Fault ());
  match Option.bind enclosure (Hashtbl.find_opt t.encs) with
  | None -> ()
  | Some enc ->
      enc.e_faults <- enc.e_faults + 1;
      if (not enc.e_quarantined) && enc.e_faults >= t.fault_budget then begin
        enc.e_quarantined <- true;
        Log.warn (fun m ->
            m "enclosure %s quarantined after %d faults" enc.e_name enc.e_faults);
        Metrics.incr (metrics t) C.quarantine;
        let o = obs t in
        if Obs.enabled o then
          Obs.span_mark o ~lane:enc.e_name
            ~name:
              (Printf.sprintf "quarantine:%s faults=%d" enc.e_name enc.e_faults)
            ~category:Span.Fault ()
      end

let fault t ?enclosure reason =
  let trace =
    Printf.sprintf "fault%s: %s"
      (match enclosure with Some e -> " in " ^ e | None -> "")
      reason
  in
  record_fault t ?enclosure ~trace reason;
  raise (Fault { reason; enclosure })

(* The one text of a seccomp kill, whichever path caught it. *)
let kill_reason nr env =
  Printf.sprintf "seccomp killed system call %s in %s" (Sysno.name nr) env

(* Account a seccomp kill as a fault of [enclosure] (the log-book entry
   is the reason itself) and return the reason. *)
let record_kill t ?enclosure nr env =
  let reason = kill_reason nr env in
  record_fault t ?enclosure ~trace:reason reason;
  reason

let describe_fault = function
  | Cpu.Fault info -> Some (Format.asprintf "%a" Cpu.pp_fault info)
  | K.Syscall_killed { nr; env } -> Some (kill_reason nr env)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Section registry                                                    *)

(* A section's first and last vpn. Addresses map to pages by flooring,
   as in {!Cpu}, so a negative address is never taken for page 0. *)
let vpns (s : Section.t) =
  (s.Section.addr asr Phys.page_shift, (Section.end_addr s - 1) asr Phys.page_shift)

let register_section t (s : Section.t) =
  let first, last = vpns s in
  for vpn = first to last do
    Vpn_map.add t.registry vpn (s.Section.owner, s.Section.kind)
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
  Option.map fst (Vpn_map.find_opt t.registry (addr asr Phys.page_shift))

(* ------------------------------------------------------------------ *)
(* Views and environments                                              *)

let ordered_encs t =
  List.rev_map (fun name -> Hashtbl.find t.encs name) t.enc_order |> List.rev

(* The closure function lives in its own section owned by the declaring
   package (paper §4.1); it must stay executable inside the enclosure even
   when the declaring package is not part of the view. *)
let closure_vpn enc = enc.e_closure_addr asr Phys.page_shift

let exec_filter t enc ~vpn =
  (enc.e_closure_addr <> 0 && vpn = closure_vpn enc)
  ||
  match Vpn_map.find_opt t.registry vpn with
  | Some (pkg, _) -> View.access enc.e_view pkg = Types.RWX
  | None -> false

(* The SFI access predicate: does the masked address stay inside the
   sandbox's view? Page-granular and consulted at access time, so a
   [transfer] that re-homes a range in the section registry takes
   effect with no hardware update at all — the bounds metadata IS the
   registry plus the view. Pages outside every section are the guard
   zone. *)
let sfi_filter t enc ~write ~vpn =
  match Vpn_map.find_opt t.registry vpn with
  | None -> false
  | Some (pkg, _kind) -> (
      match View.access enc.e_view pkg with
      | Types.U -> false
      | Types.R -> not write
      | Types.RW | Types.RWX -> true)

let mpk_env t enc =
  {
    Cpu.label = Cpu.enclosure_label enc.e_name;
    pt = t.machine.Machine.trusted_pt;
    pkru = enc.e_pkru;
    exec_ok = Some (fun ~vpn -> exec_filter t enc ~vpn);
    sfi = None;
  }

(* Shared by VTX and LWC: enforcement is the per-enclosure page table. *)
let vtx_env _t enc =
  {
    Cpu.label = Cpu.enclosure_label enc.e_name;
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
    Cpu.label = Cpu.enclosure_label enc.e_name;
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
(* LitterBox's own page-tagging calls (install and transfer)           *)

(* Witness taps. Exactly one record per syscall attempt, at the layer
   that decides its fate: the direct-path wrapper ([syscall] below)
   records on return/raise, the drain paths record per entry under the
   submit-time stack. All are branch-only no-ops while witnessing is
   off, and none consume simulated time, so witnessed runs stay
   byte-identical to unwitnessed ones. *)

let witness t = Obs.witness (obs t)

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

(* LitterBox's own pkey_mprotect, issued from the trusted environment
   whatever environment is current: the whole excursion is the retag
   gate, so the env writes and the trap are the runtime's, never an
   enclosure's. Both LB_MPK's install and its transfer path tag through
   here. Witnessed under the trusted scope at [site] so witness totals
   reconcile exactly with the kernel's counters. *)
let trusted_pkey_mprotect t ~site ~addr ~len ~key =
  let call = K.Pkey_mprotect { addr; len; key } in
  let result =
    Cpu.with_env t.machine.Machine.cpu t.g_retag t.machine.Machine.trusted_env
      (K.syscall t.machine.Machine.kernel)
      call
  in
  witness_syscall t ~scope:"trusted" ~site call ~allowed:true;
  result

(* Page-table side of a view (VTX/LWC): the range gets the rights
   [access] grants on a [kind] section, and is unmapped when it grants
   none. *)
let set_access t ~pt ~addr ~len access kind =
  let mm = t.machine.Machine.mm in
  Mm.protect mm ~pt ~addr ~len (Types.page_perms access kind);
  Mm.set_present mm ~pt ~addr ~len (access <> Types.U)

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

let mpk_recompute t encs clusters =
  let n = Cluster.count clusters in
  (* One key is reserved as the enclosure marker (below), one is the
     default key 0: 14 remain for meta-packages. Checked before
     anything is assigned, so a refused configuration changes nothing. *)
  if n > Mpk.nr_keys - 2 then
    Error
      (Printf.sprintf
         "LB_MPK: %d meta-packages exceed the %d available protection keys \
          (libmpk-style virtualization not implemented)"
         n (Mpk.nr_keys - 2))
  else begin
    let keys = Array.init n (fun i -> i + 1) in
    t.keys <- keys;
    (* Tag every package section with its cluster's key. *)
    for i = 0 to n - 1 do
      List.iter
        (fun pkg ->
          List.iter
            (fun (s : Section.t) ->
              match
                trusted_pkey_mprotect t ~site:"trusted;litterbox.mpk_recompute"
                  ~addr:s.Section.addr
                  ~len:(Section.pages s * Phys.page_size)
                  ~key:keys.(i)
              with
              | Ok _ -> ()
              | Error e ->
                  invalid_arg
                    (Printf.sprintf "LB_MPK init: pkey_mprotect failed (%s)"
                       (K.errno_name e)))
            (sections_of t pkg))
        (Cluster.members clusters i)
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
          let rep = List.hd (Cluster.members clusters i) in
          let rights = Types.key_rights (View.access enc.e_view rep) in
          pkru := Mpk.set_key !pkru ~key:keys.(i) rights
        done;
        enc.e_pkru <- !pkru;
        enc.e_env <- Some (build_env t enc))
      encs;
    (* Application-trusted environment: everything but super. *)
    let app_pkru =
      match Cluster.cluster_of clusters super_pkg with
      | Some i -> Mpk.set_key Mpk.pkru_all_access ~key:keys.(i) Mpk.No_access
      | None -> Mpk.pkru_all_access
    in
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
      Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access; app_pkru ] env_filters
    in
    match K.install_seccomp t.machine.Machine.kernel prog with
    | Ok () -> Ok app_pkru
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
          set_access t ~pt ~addr:s.Section.addr
            ~len:(Section.pages s * Phys.page_size)
            access s.Section.kind)
        (sections_of t pkg))
    (Encl_pkg.Graph.packages t.graph);
  (* Keep the closure's own text section executable in its environment. *)
  if enc.e_closure_addr <> 0 then
    set_access t ~pt
      ~addr:(Encl_util.Bitops.align_down enc.e_closure_addr Phys.page_size)
      ~len:Phys.page_size Types.RWX Section.Text

(* VTX and LWC enforcement is the per-enclosure page table. *)
let vtx_recompute t encs _clusters =
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
  Ok Mpk.pkru_all_access

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

(* SFI enforcement is page-granular via the section registry: no
   protection keys, hence no key-count ceiling. *)
let sfi_recompute t encs _clusters =
  List.iteri
    (fun i enc ->
      enc.e_pkru <- sfi_tag i;
      enc.e_env <- Some (build_env t enc))
    encs;
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
  | Ok () -> Ok Mpk.pkru_all_access
  | Error e -> Error ("LB_SFI: seccomp install failed: " ^ e)

(* ------------------------------------------------------------------ *)
(* Backend dispatch: shared mechanism helpers, then one module per
   backend implementing {!Backend.S}, mechanism only. Everything after
   {!impl} is the one generic body of each LitterBox operation (stacks,
   counters, spans, elision), calling through it. *)

let env_of_stack t = function
  | [] -> t.app_trusted
  | enc :: _ -> Option.get enc.e_env

(* Every runtime-driven switch runs inside the switch gate, so the
   gate-integrity check can tell it from a forged wrpkru/CR3 write. *)
let set_hw_env t env = Cpu.switch_env t.machine.Machine.cpu t.g_switch env

let charge_switch t ns = Clock.consume t.machine.Machine.clock Clock.Switch ns

let filter_allows_call (f : Policy.sys_filter) (call : K.call) =
  match call with
  | K.Connect { ip; _ } -> Policy.filter_allows_connect f ~ip
  | _ -> Policy.filter_allows_cat f (Sysno.category (K.sysno_of_call call))

(* Call-site context: the collapsed signature of the innermost open
   span ("lane;outer;...;name"), or the scope's bare "user" frame when
   no span is open (e.g. the sink is disabled). *)
let witness_site t =
  match Span.top (Obs.spans (obs t)) with
  | Some (_, sig_) -> sig_
  | None -> scope_name t.stack ^ ";user"

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
let note_denied t =
  t.denied_guest <- t.denied_guest + 1;
  Metrics.incr (metrics t) K.denied_counter

(* A guest-filter denial found while draining: same accounting as the
   direct path's [fault t ~enclosure reason] — denial tap, fault log
   entry, quarantine budget — except the exception is stored on the
   completion instead of raised; the awaiting caller re-raises it. *)
let deny_entry t entry ~enclosure reason =
  witness_entry t entry ~allowed:false;
  note_denied t;
  let trace = Printf.sprintf "fault in %s: %s" enclosure reason in
  record_fault t ~enclosure ~trace reason;
  entry.sq_comp.c_state <- Faulted (Fault { reason; enclosure = Some enclosure })

(* Which enclosure stack polices a drained entry: the submitter's,
   recorded in the SQE (ring integrity), or — with the defense off —
   whichever stack happens to be current at drain time, the
   confused-deputy window the corpus drives through. *)
let drain_filter_env t e =
  if Defense.enabled Defense.Ring_integrity then e.sq_env else t.stack

(* The guest-side filter of LB_VTX and LB_LWC: the innermost
   enclosure's policy must admit the call before it leaves the guest
   (VT-x) or passes the kernel's per-context check (LWC). [filter] names
   the filter in the fault text. One check for the direct path, which
   raises, and one admit for the drain, which stores the fault on the
   entry and keeps it out of the batch. *)
let denial call ~filter =
  Printf.sprintf "system call %s denied by %s"
    (Sysno.name (K.sysno_of_call call))
    filter

let guest_check t stack call ~filter =
  match stack with
  | enc :: _ when not (filter_allows_call enc.e_policy.Policy.filter call) ->
      note_denied t;
      fault t ~enclosure:enc.e_name (denial call ~filter)
  | _ -> ()

let guest_admit t ~filter e =
  match drain_filter_env t e with
  | enc :: _ when not (filter_allows_call enc.e_policy.Policy.filter e.sq_call)
    ->
      deny_entry t e ~enclosure:enc.e_name (denial e.sq_call ~filter);
      false
  | _ -> true

(* An admitted entry runs inside the batch's crossing. *)
let run_entry t e =
  let r = K.syscall_in_batch t.machine.Machine.kernel e.sq_call in
  witness_entry t e ~allowed:true;
  e.sq_comp.c_state <- Done r

(* Only the MPK backend populates [t.keys]; elsewhere every package
   maps to key 0, so a transfer never flushes the verdict cache there
   (non-MPK filters do not dispatch on PKRU). *)
let mpk_key_of t pkg =
  match Cluster.cluster_of t.clusters pkg with
  | Some i when i < Array.length t.keys -> t.keys.(i)
  | Some _ | None -> 0

let mpk_retag t ~addr ~pages ~key =
  match
    trusted_pkey_mprotect t ~site:"trusted;litterbox.retag" ~addr
      ~len:(pages * Phys.page_size) ~key
  with
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
          set_access t ~pt ~addr ~len:bytes (View.access enc.e_view to_pkg)
            Section.Arena)
    (ordered_encs t);
  Mm.protect t.machine.Machine.mm ~pt:t.machine.Machine.trusted_pt ~addr
    ~len:bytes
    { Pte.r = true; w = true; x = false }

(* A kill on the trap path is a fault of the calling stack's innermost
   enclosure — for a drained entry, the submitter's. *)
let kill_fault t stack nr env =
  let enclosure = match stack with [] -> None | enc :: _ -> Some enc.e_name in
  Fault { reason = record_kill t ?enclosure nr env; enclosure }

(* The trap path (MPK and SFI): the call enters the kernel normally
   and the installed seccomp program dispatches on the environment's
   PKRU — a real PKRU under MPK, the synthetic sandbox tag under SFI.
   Killed calls surface as faults attributed to the calling
   enclosure. *)
let trap_syscall t stack call =
  (* The trap site is LitterBox's syscall gate: origin verification
     sees a registered gate, and the seccomp program still dispatches
     on the caller's PKRU/tag. *)
  try t.gated_syscall call
  with K.Syscall_killed { nr; env } -> raise (kill_fault t stack nr env)

(* Trap-path drain (MPK and SFI): one kernel trap for the batch, then
   per-entry dispatch under the submit-time environment — installed per
   entry, a zero-cost bookkeeping write modelling the submitter context
   recorded in the SQE. *)
let trap_entry t e =
  (* Ring integrity: dispatch under the submitter context recorded in
     the SQE. With the defense off, the entry is evaluated under
     whatever environment happens to be current at drain time — the
     confused-deputy window. *)
  if Defense.enabled Defense.Ring_integrity then
    Cpu.set_env t.machine.Machine.cpu (env_of_stack t e.sq_env);
  match K.syscall_in_batch t.machine.Machine.kernel e.sq_call with
  | r ->
      witness_entry t e ~allowed:true;
      e.sq_comp.c_state <- Done r
  | exception K.Syscall_killed { nr; env } ->
      witness_entry t e ~allowed:false;
      e.sq_comp.c_state <- Faulted (kill_fault t e.sq_env nr env)

let trap_drain t entries =
  Clock.consume t.machine.Machine.clock Clock.Syscall
    t.machine.Machine.costs.Costs.syscall_base;
  let cpu = t.machine.Machine.cpu in
  (* The whole drain runs inside the ring-drain gate (one trap for the
     batch; its env writes and per-entry dispatches are the runtime's),
     and the caller's environment is back when it ends. *)
  Cpu.with_env cpu t.g_drain (Cpu.env cpu) (List.iter (trap_entry t)) entries

module type IMPL =
  Backend.S with type ctx = t and type enc = enc_rt and type entry = sq_entry

module MpkB : IMPL = struct
  type ctx = t
  type enc = enc_rt
  type entry = sq_entry

  let install = mpk_recompute
  let enter t _ = charge_switch t t.machine.Machine.costs.Costs.mpk_prolog
  let leave t _ = charge_switch t t.machine.Machine.costs.Costs.mpk_epilog
  let resume t _ = charge_switch t t.machine.Machine.costs.Costs.wrpkru

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

  let install = vtx_recompute
  let filter = "enclosure filter"

  (* A switch is a guest system call (in) or return (out) loading the
     target stack's page table; a refused entry is the entered
     enclosure's fault. *)
  let guest t op target ~blame =
    let pt =
      match target with
      | [] -> t.machine.Machine.trusted_pt
      | enc :: _ -> Option.get enc.e_pt
    in
    match op (Option.get t.vtx) ~validate:(fun () -> true) ~target:pt with
    | Ok () -> ()
    | Error e -> if blame then fault t ~enclosure:(scope_name target) e else fault t e

  let enter t target = guest t Vtx.guest_syscall target ~blame:true
  let leave t target = guest t Vtx.guest_sysret target ~blame:false
  let resume t target = guest t Vtx.guest_syscall target ~blame:false

  let excursion_costs t =
    let c = t.machine.Machine.costs in
    (c.Costs.vtx_guest_syscall, c.Costs.vtx_guest_sysret)

  let syscall t stack call =
    guest_check t stack call ~filter;
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
    match Vtx.hypercall vtx t.gated_syscall call with
    | r ->
        Obs.span_exit o sp;
        r
    | exception e ->
        Obs.span_exit o sp;
        raise e

  let drain t entries =
    (* Guest-side filter checks never leave the VM; only entries that
       pass share the batch's single VM EXIT. *)
    match List.filter (guest_admit t ~filter) entries with
    | [] -> ()
    | allowed ->
        let vtx = Option.get t.vtx in
        let o = obs t in
        let sp =
          if Obs.enabled o then
            Obs.span_enter o ~name:"hypercall:ring_drain" ~category:Span.Syscall
              ()
          else -1
        in
        let batch allowed =
          Clock.consume t.machine.Machine.clock Clock.Syscall
            t.machine.Machine.costs.Costs.syscall_base;
          List.iter (run_entry t) allowed
        in
        match
          Vtx.hypercall vtx
            (Cpu.with_gate t.machine.Machine.cpu t.g_drain batch)
            allowed
        with
        | () -> Obs.span_exit o sp
        | exception e ->
            Obs.span_exit o sp;
            raise e

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

  let install = vtx_recompute
  let filter = "the context's filter"

  (* lwSwitch: an ordinary system call that installs the context's
     memory view. *)
  let enter t _ = charge_switch t t.machine.Machine.costs.Costs.lwc_switch
  let leave = enter
  let resume = enter

  let excursion_costs t =
    let c = t.machine.Machine.costs in
    (c.Costs.lwc_switch, c.Costs.lwc_switch)

  (* The kernel holds the per-context filter: checked in the normal
     syscall path, no extra crossing. *)
  let syscall t stack call =
    guest_check t stack call ~filter;
    t.gated_syscall call

  (* One ordinary trap enters the kernel; the per-context filter is
     checked there per entry, as in the direct path. *)
  let drain t entries =
    Clock.consume t.machine.Machine.clock Clock.Syscall
      t.machine.Machine.costs.Costs.syscall_base;
    Cpu.with_gate t.machine.Machine.cpu t.g_drain
      (List.iter (fun e -> if guest_admit t ~filter e then run_entry t e))
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

  let install = sfi_recompute

  (* Crossing the sandbox boundary is a trampoline call, either
     direction: no PKRU write, no CR3 move, no kernel crossing. The
     whole memory policy is paid per access instead (see
     {!Cpu.check_page} and {!Sfi.masked_access}). *)
  let enter t _ = Sfi.switch (Option.get t.sfi)
  let leave = enter
  let resume = enter

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

(* Reprogram the backend from the current views. The clustering is
   computed here for every backend — under LB_MPK it assigns the
   protection keys; elsewhere it drives reporting and the meta-package
   abstraction — and nothing is assigned unless the backend accepts it.
   After an install the current stack's environment is re-installed
   through the switch gate: the install rebuilt it (a new PKRU for the
   enclosure or for application-trusted code), and the CPU must not go
   on running a value the new seccomp program no longer knows. *)
let recompute t =
  let encs = ordered_encs t in
  let packages = Encl_pkg.Graph.packages t.graph in
  (* Ablation: without clustering, every package is its own
     meta-package (under LB_MPK, with its own protection key). *)
  let pinned = if t.clustering then [ super_pkg ] else packages in
  let clusters =
    Cluster.compute ~packages ~views:(List.map (fun e -> e.e_view) encs) ~pinned
  in
  let (module B) = impl t in
  match B.install t encs clusters with
  | Error e -> Error e
  | Ok app_pkru ->
      t.clusters <- clusters;
      t.app_trusted <-
        {
          Cpu.label = "app-trusted";
          pt = t.machine.Machine.trusted_pt;
          pkru = app_pkru;
          exec_ok = None;
          sfi = None;
        };
      set_hw_env t (env_of_stack t t.stack);
      Ok ()

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
              e_scope = Metrics.scope (metrics t) name;
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
      (* LitterBox's switch, trap, drain and retag sites are the
         scanned, registered call gates of this runtime: the only
         places untrusted execution may legally change environment or
         enter the kernel. Each is resolved once, here, to its handle. *)
      let cpu = machine.Machine.cpu in
      let gate = Cpu.register_gate cpu in
      let g_syscall = gate "litterbox.syscall" in
      let kernel_syscall = K.syscall machine.Machine.kernel in
      let t =
        {
          machine;
          backend;
          graph = image.Image.graph;
          registry = Vpn_map.create ();
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
          fault_log = [];
          fault_budget = max_int;
          rings = [| Queue.create () |];
          denied_guest = 0;
          reg_epoch = fresh_epoch ();
          g_switch = gate "litterbox.gate";
          g_syscall;
          g_drain = gate "litterbox.drain";
          g_retag = gate "litterbox.retag";
          gated_syscall = (fun call -> Cpu.with_gate cpu g_syscall kernel_syscall call);
          exc_in = 0;
          exc_out = 0;
        }
      in
      (let (module B) = impl t in
       let enter, exit = B.excursion_costs t in
       t.exc_in <- enter;
       t.exc_out <- exit);
      Obs.set_backend machine.Machine.obs (backend_name backend);
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
                       Cpu.enclosure_of_label
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
                 let m = metrics t in
                 Sfi.set_observer sfi
                   (Some (fun () -> Metrics.incr m C.sfi_masked_access));
                 t.sfi <- Some sfi
               end);
              match recompute t with
              | Error e -> Error e
              | Ok () ->
                  charge_init t
                    ~packages:(List.length (Encl_pkg.Graph.packages t.graph))
                    ~enclosures:(Hashtbl.length t.encs);
                  Log.info (fun m ->
                      m "%s initialized: %d packages, %d enclosures, %d meta-packages"
                        (backend_name backend)
                        (List.length (Encl_pkg.Graph.packages t.graph))
                        (Hashtbl.length t.encs)
                        (Cluster.count t.clusters));
                  Ok t)))

(* ------------------------------------------------------------------ *)
(* Dynamic registration                                                *)

(* Reprogram after a registration. A refusal (LB_MPK out of keys: the
   install refuses before assigning anything) runs [undo], which
   reverts the registration's own bookkeeping, so a refused
   registration changes nothing. *)
let reprogram t ~packages ~enclosures ~undo =
  match recompute t with
  | Ok () ->
      charge_init t ~packages ~enclosures;
      Ok ()
  | Error e ->
      undo ();
      Error e

(* Recompute every view over the grown graph — new packages become
   visible per the default policy unless explicitly restricted — then
   reprogram; a refusal restores the views too. *)
let refresh_views t ~packages ~undo =
  let encs = ordered_encs t in
  let saved = List.map (fun enc -> enc.e_view) encs in
  let undo () =
    List.iter2 (fun enc view -> enc.e_view <- view) encs saved;
    undo ()
  in
  let rec update = function
    | [] -> reprogram t ~packages ~enclosures:0 ~undo
    | enc :: rest -> (
        match View.compute ~graph:t.graph ~deps:enc.e_deps ~policy:enc.e_policy with
        | Error e ->
            undo ();
            Error e
        | Ok view ->
            enc.e_view <- view;
            update rest)
  in
  update encs

let register_package t ~name ~imports ~sections =
  if Encl_pkg.Graph.mem t.graph name then
    Error (Printf.sprintf "package %s already registered" name)
  else
    match List.find_opt (fun i -> not (Encl_pkg.Graph.mem t.graph i)) imports with
    | Some missing ->
        Error (Printf.sprintf "package %s imports unknown package %s" name missing)
    | None -> (
        (* Layout assumption (paper 2.3): packages cannot share pages.
           Verify the new sections against everything already registered. *)
        let conflict =
          List.find_map
            (fun (s : Section.t) ->
              let first, last = vpns s in
              let rec scan vpn =
                if vpn > last then None
                else
                  match Vpn_map.find_opt t.registry vpn with
                  | Some (owner, _) -> Some (s.Section.name, owner)
                  | None -> scan (vpn + 1)
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
            Encl_pkg.Graph.add_package t.graph name;
            List.iter
              (fun imported -> Encl_pkg.Graph.add_import t.graph ~importer:name ~imported)
              imports;
            List.iter (register_section t) sections;
            refresh_views t ~packages:1 ~undo:(fun () ->
                List.iter
                  (fun s ->
                    let first, last = vpns s in
                    for vpn = first to last do
                      Vpn_map.remove t.registry vpn
                    done)
                  sections;
                Hashtbl.remove t.pkg_sections name;
                Encl_pkg.Graph.remove_package t.graph name))

let register_enclosure t ~name ~owner ~deps ~policy ~closure_addr =
  if Hashtbl.mem t.encs name then
    Error (Printf.sprintf "enclosure %s already registered" name)
  else
    match make_enc t ~name ~owner ~deps ~policy ~closure_addr with
    | Error e -> Error e
    | Ok enc ->
        let order = t.enc_order in
        let site = "enclosure:" ^ name in
        Hashtbl.replace t.encs name enc;
        t.enc_order <- order @ [ name ];
        Hashtbl.replace t.verif (site, Image.Prolog) ();
        Hashtbl.replace t.verif (site, Image.Epilog) ();
        t.reg_epoch <- fresh_epoch ();
        reprogram t ~packages:0 ~enclosures:1 ~undo:(fun () ->
            Hashtbl.remove t.encs name;
            t.enc_order <- order;
            Hashtbl.remove t.verif (site, Image.Prolog);
            Hashtbl.remove t.verif (site, Image.Epilog);
            t.reg_epoch <- fresh_epoch ())

let add_import t ~importer ~imported =
  if not (Encl_pkg.Graph.mem t.graph importer) then
    Error (Printf.sprintf "unknown importer %s" importer)
  else if not (Encl_pkg.Graph.mem t.graph imported) then
    Error (Printf.sprintf "unknown imported package %s" imported)
  else begin
    let fresh =
      not (List.mem imported (Encl_pkg.Graph.direct_deps t.graph importer))
    in
    Encl_pkg.Graph.add_import t.graph ~importer ~imported;
    refresh_views t ~packages:0 ~undo:(fun () ->
        if fresh then Encl_pkg.Graph.remove_import t.graph ~importer ~imported)
  end

(* ------------------------------------------------------------------ *)
(* Switches                                                            *)

let site_fault t site hook =
  fault t
    (Printf.sprintf "call-site %s not in the .verif list for %s" site
       (Image.hook_name hook))

let check_site t site hook =
  if not (Hashtbl.mem t.verif (site, hook)) then site_fault t site hook

(* Logs builds a message's closure before it reads the level; the
   switch and transfer paths read the level first, so they allocate
   nothing while debug logging is off. *)
let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

(* Single point through which the enclosure stack changes: keeps the
   hardware environment and the registry's current scope in lockstep. *)
let set_stack t stack =
  t.stack <- stack;
  Metrics.set_current (metrics t) (stack_scope stack);
  set_hw_env t (env_of_stack t stack)

(* Core hop (SMP): re-install the environment stack a core already had
   loaded when the interleaver last left it. On real hardware nothing is
   written — each core keeps its own PKRU register, CR3 and TLB — so
   this is pure bookkeeping: the stack and the current scope move, the CPU
   model's notion of "current env" moves via {!Cpu.restore_env} (no TLB
   flush, no cost, no switch counted). Only the scheduler may call it,
   and only with a stack this core previously installed through the
   costed paths. *)
let install_core_env t stack =
  t.stack <- stack;
  Metrics.set_current (metrics t) (stack_scope stack);
  Cpu.restore_env t.machine.Machine.cpu t.g_switch (env_of_stack t stack)

(* Switch elision (fast path). A switch whose target hardware
   environment is bit-identical to the installed one — same PKRU, same
   page-table root — does not need the paid PKRU/CR3 write: the check
   below is the rdpkru-class comparison the real runtime would do, and
   when it holds the switch charges [switch_elided] instead of the
   backend's switch cost. Everything else is unchanged: the stack still
   moves through [set_stack] (current scope, env install — a no-op
   write), the switch still counts as a "switch", and
   validation/quarantine checks ran
   before we got here. Only the cost differs, which is what
   "semantics-preserving" means for this path. *)
let hw_env_equal t (target : Cpu.env) =
  let cur = Cpu.env t.machine.Machine.cpu in
  Int32.equal cur.Cpu.pkru target.Cpu.pkru
  && Pagetable.id cur.Cpu.pt = Pagetable.id target.Cpu.pt

let can_elide t stack =
  Knob.fastpath.Knob.value && hw_env_equal t (env_of_stack t stack)

let note_elision t scope =
  Metrics.incr_in (metrics t) ~scope C.switch_elided

(* How a switch that is not elided pays: the backend's prolog, epilog
   or scheduler hook, or one half of a trusted excursion at the cost
   given. Constant constructors, so a switch allocates nothing. *)
type pay = Enter | Leave | Resume | Excursion_enter | Excursion_exit

(* Pay for a switch to [target]: [switch_elided] when its environment
   is already installed, the backend's cost otherwise. *)
let pay_switch t pay ~cost ~scope target =
  if can_elide t target then begin
    Clock.consume t.machine.Machine.clock Clock.Switch
      t.machine.Machine.costs.Costs.switch_elided;
    note_elision t scope
  end
  else
    match pay with
    | Enter ->
        let (module B) = impl t in
        B.enter t target
    | Leave ->
        let (module B) = impl t in
        B.leave t target
    | Resume ->
        let (module B) = impl t in
        B.resume t target
    | Excursion_enter | Excursion_exit -> charge_switch t cost

(* The one switch protocol behind prolog, epilog, execute and both
   halves of with_trusted: count the switch under its scope (first, so
   an aborted switch still counts), open its span, pay, install the
   target stack. A switch belongs to its enclosure side: the enclosure
   entered or resumed, the one left, or the one taking the excursion;
   its span is on that lane. Prolog, epilog and execute also record
   their latency in the "switch_ns" histogram. *)
let switch t pay ~cost target =
  let side =
    match pay with
    | Leave | Excursion_enter -> t.stack
    | Enter | Resume | Excursion_exit -> target
  in
  let scope = stack_scope side in
  note_switch t scope;
  let o = obs t in
  if not (Obs.enabled o) then begin
    pay_switch t pay ~cost ~scope target;
    set_stack t target
  end
  else
    let lane = scope_name side in
    let name, category =
      match pay with
      | Enter -> ("prolog:" ^ lane, Span.Prolog)
      | Leave -> ("epilog:" ^ lane, Span.Epilog)
      | Resume -> ("execute:" ^ lane, Span.Sched)
      | Excursion_enter -> ("excursion:enter", Span.Prolog)
      | Excursion_exit -> ("excursion:exit", Span.Epilog)
    in
    let sp = Obs.span_enter o ~lane ~name ~category () in
    let clock = t.machine.Machine.clock in
    let t0 = Clock.now clock in
    match pay_switch t pay ~cost ~scope target with
    | () ->
        set_stack t target;
        (match pay with
        | Enter | Leave | Resume ->
            Obs.observe o "switch_ns" (Clock.now clock - t0)
        | Excursion_enter | Excursion_exit -> ());
        Obs.span_exit o sp
    | exception e ->
        Obs.span_exit o sp;
        raise e

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
  Metrics.incr (metrics t) C.ring_batches;
  Metrics.add (metrics t) C.ring_drained n;
  let o = obs t in
  let sp =
    if Obs.enabled o then
      Obs.span_enter o
        ~name:(Printf.sprintf "ring_drain:%d" n)
        ~category:Span.Syscall ()
    else -1
  in
  let (module B) = impl t in
  match B.drain t entries with
  | () -> Obs.span_exit o sp
  | exception e ->
      Obs.span_exit o sp;
      raise e

(* Each core drains its own ring on its own lane, in core order. The
   core that hit the drain point flushes remote non-empty rings too —
   the IPI a real kernel would send to make a sibling core flush — and
   each remote flush is counted as a cross-core wakeup. On one core
   this is exactly the old single-ring drain. *)
let drain t =
  let clock = t.machine.Machine.clock in
  let initiator = Clock.lane clock in
  for core = 0 to Array.length t.rings - 1 do
    let ring = t.rings.(core) in
    if not (Queue.is_empty ring) then begin
      let entries = List.of_seq (Queue.to_seq ring) in
      Queue.clear ring;
      if core <> initiator then Metrics.incr (metrics t) C.ring_ipi;
      Clock.set_lane clock core;
      match drain_one_ring t ~entries with
      | () -> Clock.set_lane clock initiator
      | exception e ->
          Clock.set_lane clock initiator;
          raise e
    end
  done

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
  Clock.consume t.machine.Machine.clock Clock.Syscall
    t.machine.Machine.costs.Costs.ring_submit;
  Metrics.incr (metrics t) C.ring_submitted;
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

let handle ~name ~site =
  {
    h_name = name;
    h_site = site;
    h_epoch = 0;
    h_enc = None;
    h_prolog_ok = false;
    h_epilog_ok = false;
    h_stack = [];
  }

(* Read what the handle names at the current registry epoch: one
   comparison unless a registration ran since the last read. *)
let resolve t h =
  if h.h_epoch <> t.reg_epoch then begin
    h.h_enc <- Hashtbl.find_opt t.encs h.h_name;
    h.h_prolog_ok <- Hashtbl.mem t.verif (h.h_site, Image.Prolog);
    h.h_epilog_ok <- Hashtbl.mem t.verif (h.h_site, Image.Epilog);
    h.h_stack <- [];
    h.h_epoch <- t.reg_epoch
  end

(* [enc :: t.stack], built once per base stack. *)
let pushed t h enc =
  match h.h_stack with
  | _ :: base when base == t.stack -> h.h_stack
  | _ ->
      let stack = enc :: t.stack in
      h.h_stack <- stack;
      stack

let enter t h =
  if debug_on () then
    Log.debug (fun m -> m "prolog %s (site %s)" h.h_name h.h_site);
  resolve t h;
  if not h.h_prolog_ok then site_fault t h.h_site Image.Prolog;
  match h.h_enc with
  | None -> fault t (Printf.sprintf "unknown enclosure %s" h.h_name)
  | Some enc ->
      (* Fail-closed degradation: a quarantined enclosure can no longer
         be entered — refuse before charging any switch cost. Not a new
         fault (the budget-crossing fault was already recorded). *)
      if enc.e_quarantined then
        raise (Quarantined { enclosure = enc.e_name; faults = enc.e_faults });
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
                 enc.e_name));
      switch t Enter ~cost:0 (pushed t h enc)

(* The epilog past its call-site check. *)
let pop t =
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
  | _ :: rest -> switch t Leave ~cost:0 rest

let leave t h =
  resolve t h;
  if not h.h_epilog_ok then site_fault t h.h_site Image.Epilog;
  pop t

(* The leave on the way out of [call] and the return switch of an
   excursion run as [Fun.protect]'s [finally] did: an exception from
   them surfaces as [Fun.Finally_raised]. *)
let leave_finally t h =
  match leave t h with () -> () | exception e -> raise (Fun.Finally_raised e)

let call t h f x =
  enter t h;
  match f x with
  | v ->
      leave_finally t h;
      v
  | exception e ->
      leave_finally t h;
      raise e

let prolog t ~name ~site = enter t (handle ~name ~site)

let epilog t ~site =
  check_site t site Image.Epilog;
  pop t

let in_enclosure t = match t.stack with [] -> None | e :: _ -> Some e.e_name

(* ------------------------------------------------------------------ *)
(* System calls                                                        *)

let syscall t call =
  let (module B) = impl t in
  match B.syscall t t.stack call with
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
   (non-MPK filters do not dispatch on PKRU or the SFI tag). The
   section is named after its owner: nothing reads an arena section's
   name, and this runs on every transfer. *)
let rehome_range t ~addr ~len ~to_pkg =
  let sec =
    Section.make ~name:to_pkg ~owner:to_pkg ~kind:Section.Arena ~addr ~size:len
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

(* The registry and hardware half of a transfer, inside its span. *)
let move_pieces t ~addr ~len ~chunk ~n ~to_pkg =
  let t0 = Clock.now t.machine.Machine.clock in
  let key_changed = ref false in
  let pages = ref 0 in
  for i = 0 to n - 1 do
    let piece = min chunk (len - (i * chunk)) in
    if rehome_range t ~addr:(addr + (i * chunk)) ~len:piece ~to_pkg then
      key_changed := true;
    pages := !pages + ((max piece 1 + Phys.page_size - 1) / Phys.page_size)
  done;
  let (module B) = impl t in
  B.transfer t ~addr ~pages:!pages ~to_pkg ~key_changed:!key_changed;
  let o = obs t in
  if Obs.enabled o then
    Obs.observe o "transfer_ns" (Clock.now t.machine.Machine.clock - t0)

(* The one transfer body: hand [len] bytes at [addr] to [to_pkg] in [n]
   [chunk]-sized pieces. The section registry gets one Arena section
   per piece — exactly what a loop of one-piece transfers over the
   adjacent sub-ranges would leave, so later exact-address
   re-transfers and install-time re-tagging behave identically — but
   the hardware gets one update over the whole range: one
   pkey_mprotect (MPK) or one page-table walk (VTX/LWC). "transfer"
   advances by [n], and so does "transfer_coalesced" when [n > 1]. *)
let transfer_pieces t ~addr ~len ~chunk ~n ~to_pkg ~site =
  if debug_on () then
    Log.debug (fun m -> m "transfer %#x+%d -> %s (%d pieces)" addr len to_pkg n);
  check_site t site Image.Transfer;
  if not (Encl_pkg.Graph.mem t.graph to_pkg) then
    fault t (Printf.sprintf "transfer to unknown package %s" to_pkg);
  (let w = witness t in
   if Witness.enabled w then
     for _ = 1 to n do
       Witness.transfer w ~scope:(scope_name t.stack)
     done);
  Metrics.add (metrics t) C.transfer n;
  if n > 1 then Metrics.add (metrics t) C.transfer_coalesced n;
  let o = obs t in
  let sp =
    if Obs.enabled o then
      Obs.span_enter o ~name:("transfer:" ^ to_pkg) ~category:Span.Transfer ()
    else -1
  in
  match move_pieces t ~addr ~len ~chunk ~n ~to_pkg with
  | () -> Obs.span_exit o sp
  | exception e ->
      Obs.span_exit o sp;
      raise e

let transfer t ~addr ~len ~to_pkg ~site =
  transfer_pieces t ~addr ~len ~chunk:len ~n:1 ~to_pkg ~site

(* With the fast path on, the pieces share one hardware update; off, this
   {e is} the loop of one-piece transfers. *)
let transfer_range t ~addr ~len ~chunk ~to_pkg ~site =
  if chunk <= 0 then invalid_arg "Litterbox.transfer_range: chunk must be > 0";
  if len <= 0 then invalid_arg "Litterbox.transfer_range: len must be > 0";
  let n = (len + chunk - 1) / chunk in
  if Knob.fastpath.Knob.value then
    transfer_pieces t ~addr ~len ~chunk ~n ~to_pkg ~site
  else
    for i = 0 to n - 1 do
      transfer t ~addr:(addr + (i * chunk))
        ~len:(min chunk (len - (i * chunk)))
        ~to_pkg ~site
    done

(* ------------------------------------------------------------------ *)
(* Execute (scheduler switches) and trusted excursions                 *)

let capture_env t = t.stack
let trusted_env_ref _t = []

let env_refs_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> x.e_name = y.e_name) a b

let env_matches t env_ref = env_refs_equal t.stack env_ref

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
  switch t Resume ~cost:0 env_ref

let return_finally t saved =
  match switch t Excursion_exit ~cost:t.exc_out saved with
  | () -> ()
  | exception e -> raise (Fun.Finally_raised e)

(* The excursion's switch costs are attributed to the enclosure that
   requested it (two short spans); the work inside [f] stays in the
   caller's cell — usually gc, which opens its own span. *)
let apply_trusted t f x =
  let saved = t.stack in
  (let w = witness t in
   if Witness.enabled w && saved <> [] then
     Witness.trusted_call w ~scope:(scope_name saved));
  switch t Excursion_enter ~cost:t.exc_in [];
  match f x with
  | v ->
      return_finally t saved;
      v
  | exception e ->
      return_finally t saved;
      raise e

let with_trusted t f = apply_trusted t f ()

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let view_of t name = Option.map (fun e -> e.e_view) (Hashtbl.find_opt t.encs name)

let enclosed t = match t.stack with [] -> false | _ :: _ -> true

let current_view t =
  match t.stack with
  | enc :: _ -> enc.e_view
  | [] -> invalid_arg "Litterbox.current_view: no enclosure is active"

let current_access t pkg =
  match t.stack with
  | [] -> None
  | enc :: _ -> Some (View.access enc.e_view pkg)

let cluster t = t.clusters
let enclosure_names t = t.enc_order

let enclosure_deps t name =
  Option.map (fun e -> e.e_deps) (Hashtbl.find_opt t.encs name)

let switch_count t = count t C.switch
let switch_elided_count t = count t C.switch_elided
let transfer_count t = count t C.transfer
let transfer_coalesced_count t = count t C.transfer_coalesced
let fault_count t = count t C.fault
let fault_log t = t.fault_log
let ring_submitted_count t = count t C.ring_submitted
let ring_drained_count t = count t C.ring_drained
let ring_batches_count t = count t C.ring_batches
let guest_denied_count t = t.denied_guest
let vmexit_count t = match t.vtx with Some v -> Vtx.vmexits v | None -> 0
let vm_mode t = Option.map Vtx.mode t.vtx
let sfi_masked_access_count t = count t C.sfi_masked_access

let sfi_guard_fault_count t =
  match t.sfi with Some s -> Sfi.guard_faults s | None -> 0

(* Tainted-boundary accounting (see {!Enclosure.Tainted}): the boundary
   layer reports each verification here so the counters live next to
   the rest of the enforcement telemetry. *)
let note_tainted t ~verified =
  (let w = witness t in
   if Witness.enabled w then
     Witness.tainted w ~scope:(scope_name t.stack) ~verified);
  Metrics.incr (metrics t)
    (if verified then C.tainted_verified else C.tainted_rejected)

let note_tainted_verified t = note_tainted t ~verified:true
let note_tainted_rejected t = note_tainted t ~verified:false
let tainted_verified_count t = count t C.tainted_verified
let tainted_rejected_count t = count t C.tainted_rejected

(* Gate violations across the layers: forged environment writes and
   unregistered-gate entries (CPU, through the machine's hook),
   non-gate-origin syscall kills and denied mm-shaping calls (kernel),
   all counted as "gate_violation". *)
let gate_violation_count t = count t K.gate_violation_counter

(* ------------------------------------------------------------------ *)
(* Quarantine control                                                  *)

let set_fault_budget t n =
  if n < 1 then invalid_arg "Litterbox.set_fault_budget: budget must be >= 1";
  t.fault_budget <- n

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
        ?enclosure:(Cpu.enclosure_of_label info.Cpu.env)
        ~trace trace;
      Some trace
  | K.Syscall_killed { nr; env } ->
      Some (record_kill t ?enclosure:(Cpu.enclosure_of_label env) nr env)
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

