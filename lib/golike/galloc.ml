module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel

let span_pages = 4
let span_bytes = span_pages * Phys.page_size
let chunk_bytes = 10 * span_bytes

(* Cost of the allocator fast path, ns. *)
let alloc_fastpath_ns = 28

type arena = {
  scope : Encl_obs.Metrics.scope;  (** the package's, interned once *)
  mutable current : (int * int) option;  (** span address, bytes used *)
  mutable spans : int list;
}

type t = {
  machine : Machine.t;
  lb : Lb.t option;
  arenas : (string, arena) Hashtbl.t;
  mutable chunk : (int * int) option;  (** chunk address, bytes used *)
  mutable free_spans : int list;
  mutable allocs : int;
  mutable transfers : int;
}

let create ~machine ~lb () =
  {
    machine;
    lb;
    arenas = Hashtbl.create 16;
    chunk = None;
    free_spans = [];
    allocs = 0;
    transfers = 0;
  }

let transfer_site = "runtime.mallocgc"

let mmap t len =
  let call = K.Mmap { len } in
  let result =
    match t.lb with
    | None -> K.syscall t.machine.Machine.kernel call
    | Some lb -> Lb.with_trusted lb (fun () -> Lb.syscall lb call)
  in
  match result with
  | Ok addr -> addr
  | Error e -> failwith ("mallocgc: mmap failed: " ^ K.errno_name e)

let alloc_span_counter = Encl_obs.Metrics.counter "alloc_span"

let note_alloc_span t a ~pkg =
  let obs = t.machine.Machine.obs in
  Encl_obs.Metrics.incr_in (Encl_obs.Obs.metrics obs) ~scope:a.scope
    alloc_span_counter;
  if Encl_obs.Obs.enabled obs then
    Encl_obs.Obs.span_mark obs
      ~name:(Printf.sprintf "alloc_span:%s bytes=%d" pkg span_bytes)
      ~category:Encl_obs.Span.Transfer ()

let assign_span t a ~pkg addr =
  (match t.lb with
  | None -> ()
  | Some lb ->
      t.transfers <- t.transfers + 1;
      Lb.transfer lb ~addr ~len:span_bytes ~to_pkg:pkg ~site:transfer_site);
  note_alloc_span t a ~pkg;
  addr

(* Hand [nspans] adjacent spans at [base] to [pkg] in one go: the fast
   path coalesces the per-span Transfer calls into a single batched
   hardware update (see [Litterbox.transfer_range]); per-span accounting
   — allocator transfer counts, obs alloc_span notes — is unchanged. *)
let assign_span_run t a ~pkg ~base ~nspans =
  (match t.lb with
  | None -> ()
  | Some lb ->
      t.transfers <- t.transfers + nspans;
      Lb.transfer_range lb ~addr:base ~len:(nspans * span_bytes)
        ~chunk:span_bytes ~to_pkg:pkg ~site:transfer_site);
  for _ = 1 to nspans do
    note_alloc_span t a ~pkg
  done

(* Take one span from the free list or the current chunk, refilling the
   chunk from the OS if needed. *)
let take_span t a ~pkg =
  match t.free_spans with
  | addr :: rest ->
      t.free_spans <- rest;
      assign_span t a ~pkg addr
  | [] -> (
      match t.chunk with
      | Some (base, used) when used + span_bytes <= chunk_bytes ->
          t.chunk <- Some (base, used + span_bytes);
          assign_span t a ~pkg (base + used)
      | Some _ | None ->
          let base = mmap t chunk_bytes in
          t.chunk <- Some (base, span_bytes);
          assign_span t a ~pkg base)

let arena t pkg =
  match Hashtbl.find_opt t.arenas pkg with
  | Some a -> a
  | None ->
      let scope =
        Encl_obs.Metrics.scope (Encl_obs.Obs.metrics t.machine.Machine.obs) pkg
      in
      let a = { scope; current = None; spans = [] } in
      Hashtbl.replace t.arenas pkg a;
      a

let align8 v = (v + 7) land lnot 7

let alloc t ~pkg size =
  if size <= 0 then invalid_arg "mallocgc: non-positive size";
  t.allocs <- t.allocs + 1;
  Clock.consume t.machine.Machine.clock Clock.Alloc alloc_fastpath_ns;
  let a = arena t pkg in
  let size = align8 size in
  if size > span_bytes then begin
    (* Large object: a dedicated contiguous run of spans straight from the
       OS (recycled spans may not be contiguous, so the free list is not
       used here). Ownership is still transferred span by span, as the
       paper's runtime does when populating an arena. *)
    let nspans = (size + span_bytes - 1) / span_bytes in
    let base = mmap t (nspans * span_bytes) in
    assign_span_run t a ~pkg ~base ~nspans;
    for i = 0 to nspans - 1 do
      a.spans <- (base + (i * span_bytes)) :: a.spans
    done;
    base
  end
  else begin
    let fits = match a.current with Some (_, used) -> used + size <= span_bytes | None -> false in
    if not fits then begin
      let addr = take_span t a ~pkg in
      a.spans <- addr :: a.spans;
      a.current <- Some (addr, 0)
    end;
    match a.current with
    | Some (addr, used) ->
        a.current <- Some (addr, used + size);
        addr + used
    | None -> assert false
  end

let release_arena t ~pkg =
  let a = arena t pkg in
  t.free_spans <- a.spans @ t.free_spans;
  a.spans <- [];
  a.current <- None

let spans_of t ~pkg = List.length (arena t pkg).spans
let alloc_count t = t.allocs
let transfer_count t = t.transfers
