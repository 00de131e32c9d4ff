let vpn_bits = 36
let space_bits = 26

(* Translations with [0 <= space < 2^26] and [0 <= vpn < 2^36] are one
   int key in [slots]; every other pair lives in [wild]. *)
let covered ~space ~vpn = (space lsr space_bits) lor (vpn lsr vpn_bits) = 0
let key ~space ~vpn = (space lsl vpn_bits) lor vpn

(* Slot contents: a resident key, or [empty]. Keys are never negative. *)
let empty = -1

(* 2^63 / golden ratio, odd: multiplying by it and keeping the top bits
   spreads runs of consecutive keys over the whole table. *)
let golden = 0x4F1BBCDCBFA53E0B

type t = {
  capacity : int;
  slots : int array;
      (** open-addressed set of the resident keys: linear probing, at
          least [4 * capacity] slots, a power of two *)
  shift : int;  (** [Sys.int_size - log2 (Array.length slots)] *)
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
  let slot_bits = ref 2 in
  while 1 lsl !slot_bits < 4 * capacity do
    incr slot_bits
  done;
  {
    capacity;
    slots = Array.make (1 lsl !slot_bits) empty;
    shift = Sys.int_size - !slot_bits;
    wild = Hashtbl.create 8;
    ring_space = Array.make capacity 0;
    ring_vpn = Array.make capacity 0;
    oldest = 0;
    size = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let home t key = (key * golden) lsr t.shift
let next t i = (i + 1) land (Array.length t.slots - 1)

(* The slot holding [key], or the empty slot ending its probe run. The
   table is never more than a quarter full, so the run ends. *)
let rec probe t key i =
  let k = t.slots.(i) in
  if k = key || k = empty then i else probe t key (next t i)

let mem_key t key = t.slots.(probe t key (home t key)) = key
let add_key t key = t.slots.(probe t key (home t key)) <- key

(* Backward-shift deletion: close the hole at [hole] by moving back each
   later key of the run whose probe path passes over it, so no lookup
   ever needs a tombstone. *)
let rec close t hole j =
  let j = next t j in
  let k = t.slots.(j) in
  if k = empty then t.slots.(hole) <- empty
  else
    let mask = Array.length t.slots - 1 in
    (* [k] stays when its home lies cyclically in (hole, j]. *)
    if (j - home t k) land mask < (j - hole) land mask then close t hole j
    else begin
      t.slots.(hole) <- k;
      close t j j
    end

let remove_key t key =
  let i = probe t key (home t key) in
  close t i i

let mem t ~space ~vpn =
  if covered ~space ~vpn then mem_key t (key ~space ~vpn)
  else Hashtbl.mem t.wild (space, vpn)

let evict t slot =
  let space = t.ring_space.(slot) and vpn = t.ring_vpn.(slot) in
  if covered ~space ~vpn then remove_key t (key ~space ~vpn)
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
    if covered ~space ~vpn then add_key t (key ~space ~vpn)
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
