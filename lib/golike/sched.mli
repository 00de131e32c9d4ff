(** The Go-like user-level scheduler (goroutines).

    Goroutines are cooperative fibers built on OCaml effects. Each fiber
    carries the execution environment captured when it was spawned —
    "execution environments are transitively inherited by goroutine
    creation so that user-level threads created inside an enclosure's
    environment continue to execute in the same environment" (paper §5.1)
    — and the scheduler calls LitterBox's [Execute] hook whenever it
    resumes a fiber whose environment differs from the current one.

    {b Simulated SMP.} The scheduler shards the machine into
    [Machine.cores] simulated cores: a run queue, an affinity streak, a
    clock lane and a recorded installed-environment per core. A single
    seeded interleaver picks the next (core, fiber) step — the core
    with the smallest lane total goes first, ties and steal victims
    resolved by a seeded rng — so every run is a deterministic function
    of (program, seed, core count). An idle core steals the oldest
    runnable fiber from the longest victim queue (never a lone fiber),
    and hopping the interleaver between cores is free: each core keeps
    its own PKRU/CR3/TLB, so only resuming a fiber whose environment
    differs from {e that core's} pays an Execute switch — enclosure
    affinity becomes core affinity. With one core every SMP mechanism
    degenerates away and the schedule is byte-identical to the old
    single-queue scheduler. *)

type t

type exit_status = Finished | Killed of string

exception Deadlock of { fiber_ids : int list }
(** Raised by the scheduler when every remaining blocked fiber waits on
    a predicate only another fiber could satisfy (a channel, mutex or
    waitgroup) and no fiber is runnable: nothing can ever fire. Fibers
    blocked on externally-satisfiable predicates (fd readiness) keep the
    scheduler returning normally, since a later {!kick} may deliver the
    event. *)

val create :
  machine:Encl_litterbox.Machine.t ->
  ?seed:int64 ->
  lb:Encl_litterbox.Litterbox.t option ->
  unit ->
  t
(** The core count is the machine's. [seed] (fixed default) drives the
    interleaver's tie-breaks and steal-victim choices; with one core it
    is never consulted. *)

val go : t -> (unit -> unit) -> unit
(** Spawn a goroutine inheriting the current execution environment. May
    be called from inside or outside a fiber.

    {b Fault containment}: a fiber that dies of an enclosure fault
    ([Litterbox.Fault], [Litterbox.Quarantined], [Cpu.Fault], a seccomp
    kill) is killed and reaped — the fault is accounted with LitterBox,
    the trusted environment restored, the exit recorded (with the
    machine's sink enabled, as a ["fiber_kill:<fid> <reason>"] mark) —
    and the scheduler carries on with the remaining fibers. Any other
    exception still tears the scheduler down (a runtime bug, not a
    contained fault). *)

val spawn_supervised : t -> (unit -> unit) -> int
(** Like {!go}, but panic/recover-style: {e any} exception (except the
    program-exit one) kills only this fiber, and its outcome is
    available via {!result} under the returned fiber id. *)

val result : t -> int -> exit_status option
(** Exit status of a reaped or finished fiber: [Killed reason] for any
    killed fiber, [Finished] for supervised fibers that completed.
    [None] while still running/blocked (or for an unsupervised fiber
    that finished normally). *)

val kill_count : t -> int
(** Fibers killed and reaped so far: the registry's ["fiber.kill"]
    total. *)

val yield : t -> unit
(** Cooperatively yield the current fiber. No-op outside fibers. *)

val wait_until : ?internal:bool -> t -> (unit -> bool) -> unit
(** Block the current fiber until the predicate holds. The predicate is
    re-evaluated every scheduling round. Must be called from a fiber.
    [internal] (default [false]) marks the wait as satisfiable only by
    another fiber — the deadlock detector's input; leave it [false] for
    anything the outside world can trigger. *)

val main : t -> (unit -> unit) -> unit
(** Run [f] as the initial goroutine and schedule until no fiber is
    runnable. Blocked fibers (e.g. servers waiting for connections)
    survive across calls: a later {!kick} resumes scheduling. The
    initial fiber is the {e root}: a fault it raises propagates out
    (aborts the program, per the paper) instead of being contained. *)

val kick : t -> unit
(** Re-enter the scheduler: promote fibers whose wait predicates have
    become true (e.g. after a test injected network traffic) and run
    until idle again. *)

val blocked_count : t -> int
val switch_count : t -> int
(** Environment switches performed via the Execute hook. *)

val affinity_hit_count : t -> int
(** Out-of-FIFO-order picks made by enclosure-affinity scheduling: the
    scheduler preferred a runnable fiber whose captured environment the
    picked core already had installed, saving an Execute switch.
    Bounded by a per-core starvation budget (a fiber is overtaken at
    most 8 times in a row on its core); 0 with the fast path disabled,
    and the pick order is exactly FIFO whenever the queue head already
    matches. The registry's ["sched.affinity_hit"] total. *)

val core_count : t -> int
(** Simulated cores this scheduler shards over (the machine's). *)

val steal_count : t -> int
(** Work-steal migrations performed so far: an idle core took the
    oldest runnable fiber from the longest victim queue. Always 0 on
    one core. The registry's ["sched.steal"] total. *)

val steals_by_core : t -> int array
(** Per-thief-core breakdown of {!steal_count} (a copy). *)

val in_fiber : t -> bool
val machine : t -> Encl_litterbox.Machine.t
