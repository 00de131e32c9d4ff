(** Simulated nanosecond clock with per-category accounting.

    All simulated work advances a single clock. Costs are tallied per
    {!category} so macrobenchmark reports can break a run down into
    switches, system calls, transfers, compute, etc. *)

type category =
  | Switch  (** Prolog/Epilog/Execute environment transitions *)
  | Syscall  (** trap, seccomp, kernel service, hypercalls *)
  | Transfer  (** arena repartitioning *)
  | Access  (** SFI per-access mask-and-bounds-check sequences *)
  | Compute  (** workload computation *)
  | Alloc  (** allocator bookkeeping *)
  | Gc  (** garbage collection / refcounting *)
  | Init  (** LitterBox / hardware initialization *)
  | Io  (** simulated device / copy costs *)
  | Other

val all_categories : category list
val category_name : category -> string

type t

val create : unit -> t
(** A clock at time 0 with empty tallies. *)

val now : t -> int
(** Current simulated time in ns. *)

val consume : t -> category -> int -> unit
(** [consume t cat ns] advances the clock by [ns] (>= 0) and accounts the
    cost to [cat]. A negative charge, or one that would carry the clock
    past [max_int], raises [Invalid_argument] and changes nothing. *)

val horizon : int
(** 2^61 ns, about 73 years: the latest time a guest request may carry
    the clock to. The kernel refuses with [EINVAL] a sleep or a service
    charge that would pass it, which leaves [max_int - horizon] ns of
    headroom for every other charge. *)

val set_observer : t -> (category -> int -> unit) option -> unit
(** Install (or clear) a hook called after every non-zero [consume] —
    the single point all simulated time flows through, which is what
    makes exact cycle attribution possible. The machine wires this to
    the observability sink's ledger when tracing is enabled; it stays
    [None] otherwise, so the hot path pays one comparison. *)

val spent : t -> category -> int
(** Total ns accounted to a category so far. *)

(** {2 Lanes (simulated SMP)}

    The clock stays global — {!now} is total CPU time across every
    simulated core, which is what all conservation cross-checks reason
    about — but each {!consume} is additionally charged to the current
    {e lane}, one per simulated core. The scheduler sets the lane to a
    fiber's core for the duration of its run slice and restores lane 0
    (the boot/driver core) in between, so on a single-core machine every
    nanosecond lands on lane 0 and [wall t = now t] exactly. *)

val set_lane : t -> int -> unit
(** Select the lane subsequent consumption is charged to. Lanes are
    created on demand; the highwater mark defines {!lane_count}. *)

val lane : t -> int
(** The currently selected lane (0 outside any fiber slice). *)

val lane_ns : t -> int -> int
(** Nanoseconds consumed while the given lane was selected; 0 for
    lanes never selected. *)

val wall : t -> int
(** Simulated wall-clock time of the run: the makespan, i.e. the
    largest per-lane total. Equal to {!now} on one core; strictly less
    when work was spread across cores. *)

val reset : t -> unit
(** Reset time and tallies to zero. *)

type span
(** A measurement in progress, started by {!start}. *)

val start : t -> span
val elapsed : t -> span -> int
(** Simulated ns since the span was started. *)

val pp_breakdown : Format.formatter -> t -> unit
(** Print the per-category tallies (non-zero categories only). *)
