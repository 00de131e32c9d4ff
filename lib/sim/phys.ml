let page_size = 4096

(* Two sentinels stand in for frames that own no storage. An allocated
   frame nobody has written yet is [zero], one page of zeros shared by
   every such frame (the zero page of a Linux anonymous mapping), so it
   is read, offset checks included, exactly like a written frame. A freed
   frame is [freed]. Writes go through [writable], never to [zero]. *)
let zero = Bytes.make page_size '\000'
let freed = Bytes.create 0

type t = {
  mutable frames : Bytes.t array;
  mutable next : int;
  mutable free : int list;
  mutable live : int;
}

let create () = { frames = Array.make 64 freed; next = 0; free = []; live = 0 }

let grow t =
  let frames = Array.make (2 * Array.length t.frames) freed in
  Array.blit t.frames 0 frames 0 (Array.length t.frames);
  t.frames <- frames

let alloc_page t =
  t.live <- t.live + 1;
  let ppn =
    match t.free with
    | ppn :: rest ->
        t.free <- rest;
        ppn
    | [] ->
        if t.next >= Array.length t.frames then grow t;
        let ppn = t.next in
        t.next <- ppn + 1;
        ppn
  in
  t.frames.(ppn) <- zero;
  ppn

let frame t ppn =
  if ppn < 0 || ppn >= t.next then
    invalid_arg (Printf.sprintf "Phys: bad ppn %d" ppn);
  (* In bounds: [next] never exceeds the array's length. *)
  let f = Array.unsafe_get t.frames ppn in
  if f == freed then invalid_arg (Printf.sprintf "Phys: ppn %d is free" ppn);
  f

(* The first write to an untouched frame gives it its own zeroed page. *)
let writable t ppn =
  let f = frame t ppn in
  if f != zero then f
  else begin
    let f = Bytes.make page_size '\000' in
    t.frames.(ppn) <- f;
    f
  end

let free_page t ppn =
  ignore (frame t ppn);
  t.frames.(ppn) <- freed;
  t.free <- ppn :: t.free;
  t.live <- t.live - 1

let page_count t = t.live
let read8 t ~ppn ~off = Char.code (Bytes.get (frame t ppn) off)
let write8 t ~ppn ~off v = Bytes.set (writable t ppn) off (Char.chr (v land 0xff))
let read64 t ~ppn ~off = Bytes.get_int64_le (frame t ppn) off
let write64 t ~ppn ~off v = Bytes.set_int64_le (writable t ppn) off v

let blit_to_bytes t ~ppn ~off dst dst_off len =
  Bytes.blit (frame t ppn) off dst dst_off len

let blit_of_bytes t ~ppn ~off src src_off len =
  Bytes.blit src src_off (writable t ppn) off len
