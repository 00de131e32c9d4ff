type t = {
  phys : Phys.t;
  mutable pts : Pagetable.t list;
  mutable next : int;
  frames : int Vpn_map.t;  (** vpn -> ppn, canonical ownership *)
}

let create ~phys ~base =
  if not (Encl_util.Bitops.is_aligned base Phys.page_size) then
    invalid_arg "Mm.create: base not page aligned";
  { phys; pts = []; next = base; frames = Vpn_map.create () }

let phys t = t.phys
let add_pt t pt = t.pts <- t.pts @ [ pt ]

(* Flooring, as {!Cpu} does, so a negative address is never taken for
   page 0; a zero length still names its page. *)
let page_span ~addr ~len =
  (addr asr Phys.page_shift, Cpu.last_vpn ~addr ~len:(max len 1))

let check_aligned name addr =
  if not (Encl_util.Bitops.is_aligned addr Phys.page_size) then
    invalid_arg (name ^ ": address not page aligned")

(* A call that fails must change nothing, so a range is checked whole
   before any page of it changes: every page mapped, in [frames] and in
   every page table. *)
let check_mapped t name ~first ~last =
  if not (Vpn_map.in_range first && Vpn_map.in_range last) then
    invalid_arg
      (Printf.sprintf "%s: vpns %d..%d outside the address space" name first last);
  for vpn = first to last do
    if
      not
        (Vpn_map.mem t.frames vpn
        && List.for_all (fun pt -> Pagetable.walk pt ~vpn <> None) t.pts)
    then invalid_arg (Printf.sprintf "%s: vpn %d not mapped" name vpn)
  done

let map_at t ~addr ~len ~perms =
  check_aligned "Mm.map_at" addr;
  let first, last = page_span ~addr ~len in
  (* Whole range first, as for [check_mapped]: a failed map maps nothing.
     The pages are contiguous, so its two ends bound the range check. *)
  if not (Vpn_map.in_range first && Vpn_map.in_range last) then
    invalid_arg
      (Printf.sprintf "Mm.map_at: vpns %d..%d outside the address space" first last);
  for vpn = first to last do
    if Vpn_map.mem t.frames vpn then
      invalid_arg (Printf.sprintf "Mm.map_at: vpn %d already mapped" vpn)
  done;
  for vpn = first to last do
    let ppn = Phys.alloc_page t.phys in
    Vpn_map.add t.frames vpn ppn;
    List.iter (fun pt -> Pagetable.map pt ~vpn (Pte.make ~ppn ~perms)) t.pts
  done

(* The cursor moves only once the range is mapped: a refused map leaves
   it where it was. *)
let map t ~len ~perms =
  let addr = t.next in
  map_at t ~addr ~len ~perms;
  t.next <- addr + Encl_util.Bitops.align_up (max len Phys.page_size) Phys.page_size;
  addr

let unmap t ~addr ~len =
  check_aligned "Mm.unmap" addr;
  let first, last = page_span ~addr ~len in
  check_mapped t "Mm.unmap" ~first ~last;
  for vpn = first to last do
    List.iter (fun pt -> Pagetable.unmap pt ~vpn) t.pts;
    let ppn = Option.get (Vpn_map.find_opt t.frames vpn) in
    Vpn_map.remove t.frames vpn;
    Phys.free_page t.phys ppn
  done

let iter_range f ~addr ~len =
  let first, last = page_span ~addr ~len in
  for vpn = first to last do
    f vpn
  done

let protect t ?pt ~addr ~len perms =
  let tables = match pt with Some pt -> [ pt ] | None -> t.pts in
  iter_range ~addr ~len (fun vpn ->
      List.iter (fun table -> Pagetable.protect table ~vpn perms) tables)

let set_pkey t ~addr ~len key =
  let first, last = page_span ~addr ~len in
  check_mapped t "Mm.set_pkey" ~first ~last;
  (* A bad key is rejected at the first page, before any is retagged. *)
  iter_range ~addr ~len (fun vpn ->
      List.iter (fun table -> Pagetable.set_pkey table ~vpn key) t.pts)

let set_present (_ : t) ~pt ~addr ~len present =
  iter_range ~addr ~len (fun vpn -> Pagetable.set_present pt ~vpn present)

let is_mapped t ~addr = Vpn_map.mem t.frames (addr asr Phys.page_shift)
