let vpn_bits = 36
let space_bits = 26

(* Translations with [0 <= space < 2^26] and [0 <= vpn < 2^36] are one
   int key in [resident]; every other pair lives in [wild]. *)
let covered ~space ~vpn = (space lsr space_bits) lor (vpn lsr vpn_bits) = 0
let key ~space ~vpn = (space lsl vpn_bits) lor vpn

type t = {
  capacity : int;
  resident : unit Itbl.t;
  wild : (int * int, unit) Hashtbl.t;
  (* FIFO ring of the resident translations. While [size < capacity]
     nothing has been evicted since the last flush, so [oldest = 0] and
     the entries fill slots [0, size) in arrival order. *)
  ring_space : int array;
  ring_vpn : int array;
  mutable oldest : int;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  {
    capacity;
    resident = Itbl.create (2 * capacity);
    wild = Hashtbl.create 8;
    ring_space = Array.make capacity 0;
    ring_vpn = Array.make capacity 0;
    oldest = 0;
    size = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let mem t ~space ~vpn =
  if covered ~space ~vpn then Itbl.mem t.resident (key ~space ~vpn)
  else Hashtbl.mem t.wild (space, vpn)

let evict t slot =
  let space = t.ring_space.(slot) and vpn = t.ring_vpn.(slot) in
  if covered ~space ~vpn then Itbl.remove t.resident (key ~space ~vpn)
  else Hashtbl.remove t.wild (space, vpn)

let access t ~space ~vpn =
  if mem t ~space ~vpn then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let slot =
      if t.size < t.capacity then begin
        t.size <- t.size + 1;
        t.size - 1
      end
      else begin
        let victim = t.oldest in
        evict t victim;
        t.oldest <- (if victim + 1 = t.capacity then 0 else victim + 1);
        victim
      end
    in
    t.ring_space.(slot) <- space;
    t.ring_vpn.(slot) <- vpn;
    if covered ~space ~vpn then Itbl.add t.resident (key ~space ~vpn) ()
    else Hashtbl.add t.wild (space, vpn) ();
    false
  end

let flush t =
  for slot = 0 to t.size - 1 do
    evict t slot
  done;
  t.oldest <- 0;
  t.size <- 0;
  t.flushes <- t.flushes + 1

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
let occupancy t = t.size
