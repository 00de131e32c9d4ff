(** Causal spans: well-nested intervals of simulated time, the
    machine's one trace record.

    A span covers the execution of one enforcement operation (a prolog,
    a seccomp evaluation, a fiber run slice, ...); a {!mark} records an
    instant (a fault, a quarantine, a chaos injection, a retry, an
    allocator span, a fiber kill) with its payload in its name. Spans
    form a stack —
    entering while another span is open makes the new span its child —
    and the innermost open span is what the attribution ledger
    ({!Attrib}) charges each clock tick to.

    Spans never survive a fiber switch: every instrumented operation is
    synchronous with respect to the scheduler, so a single global stack
    per machine is sound and intervals are well-nested by construction
    (a property test in [test/test_span.ml] holds this under random
    scenario ops). Closed spans land in a bounded ring, oldest evicted
    first; the per-category close counters are exact regardless. A
    trace with a dropped span is incomplete: [trace_dump] exits 1 on
    one and [policyminer] refuses to mine. *)

type category =
  | User  (** workload code (fiber run slices, protected regions) *)
  | Prolog  (** switch into a more-restricted environment *)
  | Epilog  (** switch back out *)
  | Sched  (** scheduler [Execute] switches, fiber kill/reap *)
  | Syscall  (** kernel trap + service, hypercall round-trips *)
  | Seccomp  (** BPF filter evaluation *)
  | Transfer  (** arena repartitioning *)
  | Gc  (** collector passes in the trusted environment *)
  | Fault  (** fault delivery (instant marks) *)

val all_categories : category list
val category_name : category -> string

type span = {
  id : int;  (** creation order, unique per machine *)
  parent : int option;  (** enclosing span at [enter] time *)
  lane : string;  (** enclosure scope (or ["trusted"]) paying for it *)
  name : string;
  category : category;
  start : int;  (** simulated ns *)
  mutable stop : int;  (** [-1] while open *)
  instant : bool;  (** a {!mark}, not an interval *)
}

type t

val create : ?capacity:int -> now:(unit -> int) -> unit -> t
(** [capacity] (default 2{^18}) bounds the retained closed spans. The
    ring grows as spans close ({!Ring}), so a store nothing is recorded
    into costs a few words. *)

val enter : t -> lane:string -> name:string -> category:category -> int
(** Open a span as a child of the current innermost span; returns its id. *)

val exit : t -> int -> unit
(** Close the identified span, first closing any deeper span still open
    (keeps intervals well-nested when an exception unwound past a child).
    Ignores ids that are not on the stack. *)

val mark : t -> lane:string -> name:string -> category:category -> unit
(** A zero-duration span at the current instant (fault delivery, fiber
    kills): parented to the innermost open span, recorded immediately. *)

val top : t -> (span * string) option
(** Innermost open span and its collapsed-stack signature
    (["lane;outer;...;name"], memoized at [enter]). *)

val depth : t -> int

val closed : t -> span list
(** Retained closed spans, oldest first. *)

val total : t -> int
(** Spans and marks recorded. *)

val dropped : t -> int
(** Recorded spans the ring evicted. *)

val capacity : t -> int

val close_count : t -> category -> int
(** Exact number of spans closed per category (ring drops don't affect
    it) — the denominator for per-operation mean costs. *)
