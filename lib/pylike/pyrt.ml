module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module Types = Encl_litterbox.Types
module View = Encl_litterbox.View
module Enclosure = Encl_enclosure.Enclosure
module K = Encl_kernel.Kernel
module Mm = Encl_kernel.Mm
module Objfile = Encl_elf.Objfile
module Linker = Encl_elf.Linker
module Section = Encl_elf.Section

type refcount_mode = Conservative | Decoupled

let header_bytes = 16
let default_code_bytes = 16 * 1024
let default_arena_bytes = 256 * 1024

(* Costs (ns). *)
let refcount_op_ns = 2
let alloc_obj_ns = 20
let gc_obj_ns = 30
let localcopy_ns_per_byte = 1

type modul = {
  m_name : string;
  m_scope : Encl_obs.Metrics.scope;  (** interned once, at import *)
  m_code_addr : int;
  m_arena_addr : int;
  m_arena_len : int;
  mutable m_arena_used : int;
  mutable m_gc_head : int;  (** address of first tracked object, 0 = none *)
  mutable m_gc_tail : int;
  mutable m_view : View.t;
  mutable m_access : Types.access;
      (** the access [m_view] grants on this module: the memo
          {!access_of} keeps, keyed by the view's physical identity *)
}

type t = {
  machine : Machine.t;
  lb : Lb.t option;
  mode : refcount_mode;
  gc_threshold : int option;
  modules : (string, modul) Hashtbl.t;
  mutable import_order : string list;
  declared : (string, Lb.handle) Hashtbl.t;
      (** registered enclosures and their handles, each made once *)
  young : (int, pyobj) Hashtbl.t;  (** generation 0, tracked by address *)
  old : (int, pyobj) Hashtbl.t;  (** promoted survivors *)
  side_refcounts : (int, int) Hashtbl.t;
      (** Decoupled mode: reference counts live here, outside the
          protected pages (the paper's proposed fix), so touching them
          never needs an environment switch. *)
  mutable allocs_since_gc : int;
  mutable collections : int;
  shares : (int, pyobj list) Hashtbl.t;
      (** source address -> elided shares not yet materialized; a write
          to either side detaches them (see {!materialize_share}) *)
  incr_at : int -> unit;
  decr_at : int -> unit;
  read_at : int -> int;
      (** the Conservative header operations on the object at an
          address: built once at boot, so a refcount excursion runs one
          without a closure *)
}

and pyobj = {
  mutable o_addr : int;
  mutable o_module : modul;
  o_len : int;
  mutable o_cow : cow option;
}

and cow = { cow_src : pyobj; cow_dst : string }

let machine t = t.machine
let module_name m = m.m_name
let metrics t = Encl_obs.Obs.metrics t.machine.Machine.obs

(* The runtime's counters in the machine's registry. *)
let refcount_excursion = Encl_obs.Metrics.counter "refcount_excursion"
let gc_excursion = Encl_obs.Metrics.counter "gc_excursion"
let copy_elided = Encl_obs.Metrics.counter "copy_elided"
let cow_materialized = Encl_obs.Metrics.counter "cow_materialized"
let lb t = t.lb
let mode t = t.mode

let main_module = "__main__"

let boot ?backend ?gc_threshold ~mode () =
  let machine = Machine.create () in
  let objfiles =
    [ Objfile.make ~pkg:main_module ~functions:[ Objfile.sym "main" 256 ] () ]
  in
  match Linker.link ~objfiles ~entry:main_module with
  | Error e -> Error (Linker.error_message e)
  | Ok image -> (
      let lb_result =
        match backend with
        | None -> (
            match Encl_litterbox.Loader.load machine image with
            | Ok () -> Ok None
            | Error e -> Error e)
        | Some backend -> (
            match Lb.init ~machine ~backend ~image () with
            | Ok lb -> Ok (Some lb)
            | Error e -> Error e)
      in
      match lb_result with
      | Error e -> Error e
      | Ok lb ->
          let cpu = machine.Machine.cpu in
          let t =
            {
              machine;
              lb;
              mode;
              gc_threshold;
              modules = Hashtbl.create 16;
              import_order = [];
              declared = Hashtbl.create 8;
              young = Hashtbl.create 4096;
              old = Hashtbl.create 4096;
              side_refcounts = Hashtbl.create 4096;
              allocs_since_gc = 0;
              collections = 0;
              shares = Hashtbl.create 64;
              incr_at = (fun addr -> ignore (Cpu.add64 cpu addr 1));
              decr_at =
                (fun addr ->
                  if not (Cpu.add64 cpu addr (-1)) then
                    invalid_arg "Pyrt.decref: refcount underflow");
              read_at = (fun addr -> Int64.to_int (Cpu.read64 cpu addr));
            }
          in
          (* __main__'s own object arena. *)
          let arena_addr =
            Mm.map machine.Machine.mm ~len:default_arena_bytes
              ~perms:{ Pte.r = true; w = true; x = false }
          in
          Hashtbl.replace t.modules main_module
            {
              m_name = main_module;
              m_scope = Encl_obs.Metrics.scope (metrics t) main_module;
              m_code_addr = 0;
              m_arena_addr = arena_addr;
              m_arena_len = default_arena_bytes;
              m_arena_used = 0;
              m_gc_head = 0;
              m_gc_tail = 0;
              m_view = View.empty;
              m_access = View.access View.empty main_module;
            };
          (* __main__ is already linked; only its dynamic arena needs
             ownership. *)
          Option.iter
            (fun lb ->
              Lb.transfer lb ~addr:arena_addr ~len:default_arena_bytes
                ~to_pkg:main_module ~site:"runtime.mallocgc")
            lb;
          t.import_order <- [ main_module ];
          Ok t)

let is_imported t name = Hashtbl.mem t.modules name
let modules t = List.rev t.import_order

let import_module t ~name ?(imports = []) ?(arena_bytes = default_arena_bytes) ?body () =
  if is_imported t name then Ok ()
  else begin
    match List.find_opt (fun i -> not (is_imported t i)) imports with
    | Some missing ->
        Error (Printf.sprintf "import %s: dependency %s not yet imported" name missing)
    | None -> (
        let m = t.machine in
        (* The multi-segmented heap: separate code and object arenas so a
           module mapped without execute rights still exposes its data. *)
        let code_addr =
          Mm.map m.Machine.mm ~len:default_code_bytes
            ~perms:{ Pte.r = true; w = false; x = true }
        in
        let arena_addr =
          Mm.map m.Machine.mm ~len:arena_bytes
            ~perms:{ Pte.r = true; w = true; x = false }
        in
        let sections =
          [
            Section.make ~name:(name ^ ".code") ~owner:name ~kind:Section.Text
              ~addr:code_addr ~size:default_code_bytes;
            Section.make ~name:(name ^ ".objs") ~owner:name ~kind:Section.Arena
              ~addr:arena_addr ~size:arena_bytes;
          ]
        in
        let registered =
          match t.lb with
          | None -> Ok ()
          | Some lb -> (
              match Lb.register_package lb ~name ~imports ~sections with
              | Error e -> Error e
              | Ok () -> Lb.add_import lb ~importer:main_module ~imported:name)
        in
        match registered with
        | Error e -> Error e
        | Ok () ->
            Hashtbl.replace t.modules name
              {
                m_name = name;
                m_scope = Encl_obs.Metrics.scope (metrics t) name;
                m_code_addr = code_addr;
                m_arena_addr = arena_addr;
                m_arena_len = arena_bytes;
                m_arena_used = 0;
                m_gc_head = 0;
                m_gc_tail = 0;
                m_view = View.empty;
                m_access = View.access View.empty name;
              };
            t.import_order <- name :: t.import_order;
            (match body with Some f -> f t | None -> ());
            Ok ())
  end

let find_module t name =
  match Hashtbl.find_opt t.modules name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Pyrt: module %s not imported" name)

let charge t cat ns = Clock.consume t.machine.Machine.clock cat ns

(* The access the innermost enclosure has on module [m], memoized per
   installed view. A view is immutable, and whatever can change what an
   enclosure sees — a registration, a lazy import ([register_package]
   then [refresh_views]), an added import — installs new views instead
   of editing old ones. So a memo keyed by the view's physical identity
   cannot go stale: a hit is the very view the access was computed
   from. *)
let access_of lb m =
  let view = Lb.current_view lb in
  if m.m_view != view then begin
    m.m_view <- view;
    m.m_access <- View.access view m.m_name
  end;
  m.m_access

(* Conservative mode keeps CPython's layout: the metadata goes to the
   object header in guest memory. Trusted code writes it directly; an
   enclosure that sees the page read-only ([write]) or not at all needs
   a controlled switch to the trusted environment and back, which runs
   [op] on the header's address without a closure. Decoupled mode
   never calls this: its metadata lives in {!t.side_refcounts}, outside
   the protected pages. *)
let needs_excursion lb obj ~write =
  Lb.enclosed lb
  &&
  match access_of lb obj.o_module with
  | Types.U -> true
  | Types.R -> write
  | Types.RW | Types.RWX -> false

let on_header t obj ~write op =
  match t.lb with
  | Some lb when needs_excursion lb obj ~write ->
      Encl_obs.Metrics.incr_in (metrics t) ~scope:obj.o_module.m_scope
        refcount_excursion;
      Lb.apply_trusted lb op obj.o_addr
  | Some _ | None -> op obj.o_addr

let header_write t obj op =
  charge t Clock.Gc refcount_op_ns;
  on_header t obj ~write:true op

let cpu t = t.machine.Machine.cpu

let side_rc t obj =
  Option.value ~default:0 (Hashtbl.find_opt t.side_refcounts obj.o_addr)

(* Generational collection. Scanning and unlinking touch the embedded
   GC lists, so the whole pass runs with trusted access (paper 5.1/5.2).
   Dead young objects are freed; survivors are promoted. *)
let sweep t ~major =
  let freed = ref 0 in
  let rc_of obj =
    match t.mode with
    | Decoupled -> side_rc t obj
    | Conservative -> Int64.to_int (Cpu.read64 (cpu t) obj.o_addr)
  in
  let scan_table table ~promote =
    let dead = ref [] in
    let survivors = ref [] in
    Hashtbl.iter
      (fun addr obj ->
        charge t Clock.Gc gc_obj_ns;
        let rc = rc_of obj in
        if rc = 0 then begin
          incr freed;
          dead := addr :: !dead;
          Hashtbl.remove t.side_refcounts addr
        end
        else if promote then survivors := (addr, obj) :: !survivors)
      table;
    List.iter (Hashtbl.remove table) !dead;
    List.iter
      (fun (addr, obj) ->
        Hashtbl.remove table addr;
        Hashtbl.replace t.old addr obj)
      !survivors
  in
  t.collections <- t.collections + 1;
  let work () =
    scan_table t.young ~promote:true;
    if major then scan_table t.old ~promote:false
  in
  (match (t.lb, t.mode) with
  | None, _ -> work ()
  | Some _, Decoupled ->
      (* GC bookkeeping is outside the protected pages too. *)
      work ()
  | Some lb, Conservative ->
      Encl_obs.Metrics.incr_in (metrics t) ~scope:Encl_obs.Metrics.trusted
        gc_excursion;
      Lb.with_trusted lb work);
  !freed

let collect t = sweep t ~major:true
let collect_minor t = sweep t ~major:false

let maybe_auto_collect t =
  match t.gc_threshold with
  | Some threshold when t.allocs_since_gc >= threshold ->
      t.allocs_since_gc <- 0;
      ignore (collect_minor t)
  | Some _ | None -> ()

let alloc_obj t ~modul ~len =
  charge t Clock.Alloc alloc_obj_ns;
  t.allocs_since_gc <- t.allocs_since_gc + 1;
  maybe_auto_collect t;
  let m = find_module t modul in
  let total = header_bytes + ((len + 7) land lnot 7) in
  if m.m_arena_used + total > m.m_arena_len then
    failwith (Printf.sprintf "Pyrt: module %s object arena exhausted" modul);
  let addr = m.m_arena_addr + m.m_arena_used in
  m.m_arena_used <- m.m_arena_used + total;
  let obj =
    { o_addr = addr; o_module = m; o_len = len; o_cow = None }
  in
  (match t.mode with
  | Conservative ->
      (* Initialize the co-located header and link the object on the
         module's embedded GC list. *)
      header_write t obj (fun addr ->
          Cpu.write64 (cpu t) addr 1L;
          Cpu.write64 (cpu t) (addr + 8) 0L;
          if m.m_gc_tail <> 0 then
            Cpu.write64 (cpu t) (m.m_gc_tail + 8) (Int64.of_int addr))
  | Decoupled ->
      charge t Clock.Gc refcount_op_ns;
      Hashtbl.replace t.side_refcounts addr 1);
  if m.m_gc_head = 0 then m.m_gc_head <- addr;
  m.m_gc_tail <- addr;
  Hashtbl.replace t.young addr obj;
  obj

let refcount t obj =
  match t.mode with
  | Decoupled -> side_rc t obj
  | Conservative -> on_header t obj ~write:false t.read_at

let incref t obj =
  match t.mode with
  | Decoupled ->
      charge t Clock.Gc refcount_op_ns;
      Hashtbl.replace t.side_refcounts obj.o_addr (side_rc t obj + 1)
  | Conservative -> header_write t obj t.incr_at

let decref t obj =
  match t.mode with
  | Decoupled ->
      charge t Clock.Gc refcount_op_ns;
      let v = side_rc t obj in
      if v <= 0 then invalid_arg "Pyrt.decref: refcount underflow";
      Hashtbl.replace t.side_refcounts obj.o_addr (v - 1)
  | Conservative -> header_write t obj t.decr_at

let read_payload t obj =
  Cpu.read_bytes (cpu t) ~addr:(obj.o_addr + header_bytes) ~len:obj.o_len

let unregister_share t share =
  match Hashtbl.find_opt t.shares share.o_addr with
  | None -> ()
  | Some l -> (
      match List.filter (fun s -> s != share) l with
      | [] -> Hashtbl.remove t.shares share.o_addr
      | l' -> Hashtbl.replace t.shares share.o_addr l')

(* Turn an elided share into the deep copy the flag-off path would have
   made up front: same cost charge, same bytes_copied note, same
   allocation in the destination arena — only deferred to the first
   write that needs private semantics. The handle mutates in place, so
   every holder of the share follows it to the private buffer. *)
let materialize_share t share =
  match share.o_cow with
  | None -> ()
  | Some { cow_src; cow_dst } ->
      unregister_share t share;
      charge t Clock.Compute (localcopy_ns_per_byte * share.o_len);
      let data = read_payload t share in
      Machine.note_copied t.machine share.o_len;
      let priv = alloc_obj t ~modul:cow_dst ~len:share.o_len in
      Cpu.write_bytes (cpu t) ~addr:(priv.o_addr + header_bytes) data;
      share.o_addr <- priv.o_addr;
      share.o_module <- priv.o_module;
      share.o_cow <- None;
      Encl_obs.Metrics.incr (metrics t) cow_materialized;
      decref t cow_src

let write_payload t obj data =
  if Bytes.length data > obj.o_len then invalid_arg "Pyrt.write_payload: too large";
  (* Copy-on-write keeps localcopy semantics independent of the
     Zerocopy flag: the first write to an elided share materializes its
     private copy, and a write to a shared *source* first detaches the
     live shares so they keep the pre-write bytes — exactly what the
     eager deep copies would have held. *)
  materialize_share t obj;
  (match Hashtbl.find_opt t.shares obj.o_addr with
  | None -> ()
  | Some l ->
      Hashtbl.remove t.shares obj.o_addr;
      List.iter (materialize_share t) l);
  Cpu.write_bytes (cpu t) ~addr:(obj.o_addr + header_bytes) data

(* localcopy exists because Python lacks explicit allocation control:
   the caller wants its own view of a value crossing the boundary. When
   the current enclosure already holds an R view of the source span,
   the deep copy buys nothing up front — the zero-copy plane satisfies
   the call with a refcounted share of the source object instead (the
   RLBox shared-region move), marked copy-on-write so a later write to
   either side falls back to the deferred deep copy. Only a copy the
   enclosure could have written is elided: into a module it may not
   write, the deep copy faults, and so must the call with the flag on.
   Semantics are therefore identical with the flag off; only the cost
   of copies that never turned out to be needed is saved. *)
let localcopy t obj ~dst_module =
  let writable lb m =
    match access_of lb m with
    | Types.RW | Types.RWX -> true
    | Types.R | Types.U -> false
  in
  let elide =
    Knob.zerocopy.Knob.value
    &&
    match t.lb with
    | None -> false
    | Some lb ->
        Lb.enclosed lb
        && access_of lb obj.o_module = Types.R
        && writable lb (find_module t dst_module)
  in
  if elide then begin
    Encl_obs.Metrics.incr (metrics t) copy_elided;
    (* The share keeps the source alive until released or
       materialized. *)
    incref t obj;
    let share =
      {
        o_addr = obj.o_addr;
        o_module = obj.o_module;
        o_len = obj.o_len;
        o_cow = Some { cow_src = obj; cow_dst = dst_module };
      }
    in
    Hashtbl.replace t.shares obj.o_addr
      (share
      :: Option.value ~default:[] (Hashtbl.find_opt t.shares obj.o_addr));
    share
  end
  else begin
    charge t Clock.Compute (localcopy_ns_per_byte * obj.o_len);
    let data = read_payload t obj in
    Machine.note_copied t.machine obj.o_len;
    let copy = alloc_obj t ~modul:dst_module ~len:obj.o_len in
    write_payload t copy data;
    copy
  end

let live_objects t = Hashtbl.length t.young + Hashtbl.length t.old
let young_objects t = Hashtbl.length t.young
let old_objects t = Hashtbl.length t.old
let collections t = t.collections

let with_enclosure t ~name ~owner ~deps ~policy body =
  match t.lb with
  | None ->
      charge t Clock.Compute t.machine.Machine.costs.Costs.closure_call;
      Ok (body ())
  | Some lb -> (
      let registered =
        match Hashtbl.find t.declared name with
        | h -> Ok h
        | exception Not_found -> (
            match
              Lb.register_enclosure lb ~name ~owner ~deps ~policy ~closure_addr:0
            with
            | Ok () ->
                let h = Enclosure.handle ~name in
                Hashtbl.replace t.declared name h;
                Ok h
            | Error e -> Error e)
      in
      match registered with
      | Error e -> Error e
      | Ok h ->
          charge t Clock.Compute t.machine.Machine.costs.Costs.closure_call;
          Lb.run_protected lb (fun () -> Lb.call lb h body ()))

(* One controlled excursion is two switches (in and out). *)
let trusted_switches t =
  let m = metrics t in
  2
  * (Encl_obs.Metrics.total m refcount_excursion
    + Encl_obs.Metrics.total m gc_excursion)

let copy_elided_count t = Encl_obs.Metrics.total (metrics t) copy_elided

let cow_materialized_count t =
  Encl_obs.Metrics.total (metrics t) cow_materialized
