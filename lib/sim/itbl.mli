(** Hash tables keyed by [int], for the simulated MMU's page tables and
    TLBs. A key is its own hash, so a lookup neither calls the runtime's
    generic hash nor compares polymorphically; consecutive keys land in
    consecutive buckets. *)

include Hashtbl.S with type key = int
