(** A translation-lookaside-buffer model (statistics only).

    The TLB caches virtual-page translations per address space. LB_MPK
    switches keep the same page table, so the TLB stays warm across
    enclosure switches; LB_VTX moves CR3, which (without PCID) flushes
    it — one of the structural reasons MPK switching is cheap. The model
    tracks hits, misses, and flushes; it charges no simulated time (TLB
    effects are already folded into the calibrated switch costs), but the
    counters let benchmarks report locality.

    A resident translation is stored as one int key,
    [space * 2^36 + vpn]. The key is injective for [0 <= space < 2^26]
    and [0 <= vpn < 2^36], which covers every page of a 48-bit address
    space. Any other pair (a negative vpn from an address below -4096, a
    vpn at or above 2^36, a space at or above 2^26) is kept exactly in a
    side table, so the model is exact for every pair of ints. FIFO order
    lives in a fixed ring of [capacity] slots, and {!flush} removes only
    the resident translations: it costs O({!occupancy}), not
    O([capacity]).

    The resident keys form an open-addressed set in an int array of at
    least [4 * capacity] slots (a power of two), with [-1] marking an
    empty slot. A key's home slot is the top bits of the key times
    2^63 divided by the golden ratio (Fibonacci hashing), which spreads
    the runs of consecutive vpns an address space fills the TLB with;
    collisions probe linearly, and a removal shifts the rest of its run
    back over the hole, so no tombstones build up. Neither {!access}
    nor {!flush} allocates for covered pairs.

    The TLB holds no page-table entry, so a hit still walks the page
    table: {!Pagetable.walk} is two array loads, which a cached entry
    would barely beat, while caching one would need every [unmap] to
    invalidate it in every core's TLB and would put a write barrier on
    every miss and eviction. *)

type t

val create : ?capacity:int -> unit -> t
(** FIFO-evicting set of translations; default capacity 1024. *)

val access : t -> space:int -> vpn:int -> bool
(** Record an access; [true] on hit. [space] identifies the address
    space ({!Pagetable.id}). *)

val flush : t -> unit
(** Drop every cached translation (a CR3 move without PCID). *)

val hits : t -> int
val misses : t -> int
val flushes : t -> int
val occupancy : t -> int
