(** Deterministic pseudo-random numbers (splitmix64).

    Workload generators must be reproducible across runs, so they use this
    seeded generator instead of [Stdlib.Random]. *)

type t
(** Generator state. *)

val make : seed:int64 -> t
(** [make ~seed] is a generator whose whole stream is a function of [seed]. *)

val next64 : t -> int64
(** [next64 t] is the next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val byte : t -> char
(** [byte t] is a uniform byte. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream. *)
