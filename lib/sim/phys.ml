let page_shift = 12
let page_size = 1 lsl page_shift

(* Frames share storage until written. [shared.(ppn)] says that another
   frame may reference frame [ppn]'s storage, so the frame's first write
   gives it its own copy; there are no refcounts, so after one sharer
   takes its copy the other keeps its flag and may copy once more than
   needed (host memory only). An allocated frame nobody has written yet
   shares [zero], one page of zeros standing for every such frame (the
   zero page of a Linux anonymous mapping), so it is read, offset checks
   included, exactly like a written frame. A freed frame is [freed].
   Writes go through [writable], never to shared storage. *)
let zero = Bytes.make page_size '\000'
let freed = Bytes.create 0

type t = {
  mutable frames : Bytes.t array;
  mutable shared : bool array;
  mutable next : int;
  mutable free : int list;
  mutable live : int;
}

let create () =
  { frames = Array.make 64 freed; shared = Array.make 64 false; next = 0; free = []; live = 0 }

let grow t =
  let n = Array.length t.frames in
  let frames = Array.make (2 * n) freed and shared = Array.make (2 * n) false in
  Array.blit t.frames 0 frames 0 n;
  Array.blit t.shared 0 shared 0 n;
  t.frames <- frames;
  t.shared <- shared

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
  t.shared.(ppn) <- true;
  ppn

let frame t ppn =
  if ppn < 0 || ppn >= t.next then
    invalid_arg (Printf.sprintf "Phys: bad ppn %d" ppn);
  (* In bounds: [next] never exceeds the arrays' length. *)
  let f = Array.unsafe_get t.frames ppn in
  if f == freed then invalid_arg (Printf.sprintf "Phys: ppn %d is free" ppn);
  f

(* The first write to a shared frame gives it its own page: a fresh
   zeroed one in place of [zero], a copy of any other storage. *)
let writable t ppn =
  let f = frame t ppn in
  if not (Array.unsafe_get t.shared ppn) then f
  else begin
    let f = if f == zero then Bytes.make page_size '\000' else Bytes.copy f in
    t.frames.(ppn) <- f;
    t.shared.(ppn) <- false;
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
let sign64 t ~ppn ~off = Int64.compare (Bytes.get_int64_le (frame t ppn) off) 0L

let add64 t ~ppn ~off d =
  let b = writable t ppn in
  Bytes.set_int64_le b off (Int64.add (Bytes.get_int64_le b off) (Int64.of_int d))

let blit_to_bytes t ~ppn ~off dst dst_off len =
  Bytes.blit (frame t ppn) off dst dst_off len

let blit_of_bytes t ~ppn ~off src src_off len =
  Bytes.blit src src_off (writable t ppn) off len

let share_page t ~src ~dst =
  let f = frame t src in
  ignore (frame t dst);
  if src <> dst then begin
    t.frames.(dst) <- f;
    t.shared.(src) <- true;
    t.shared.(dst) <- true
  end

(* [writable] first: when [src = dst] the blit then reads the very
   storage it writes, and [Bytes.blit] moves overlapping ranges as
   memmove does. *)
let blit t ~src ~src_off ~dst ~dst_off len =
  let d = writable t dst in
  Bytes.blit (frame t src) src_off d dst_off len
