(** The observability sink: one per simulated machine.

    Counters always count. They live in the machine's registry
    ({!metrics}), which every layer increments whether or not the sink
    is enabled. Spans (the one trace record: intervals and instant
    marks), histograms and the attribution ledger are always compiled in
    but {e disabled by default}: a disabled sink records none of them
    (no clock cost, no allocation), so benchmark numbers with
    observability off are identical to a build without it.

    Timestamps come from the caller-supplied [now] closure, which reads
    the {e simulated} clock — traces of deterministic workloads are
    byte-for-byte reproducible (DESIGN.md, "Telemetry"). *)

type t

val default_enabled : bool ref
(** Consulted once, when a machine creates its sink. Tools that want a
    trace (e.g. [bin/trace_dump.exe]) set this before booting a
    runtime; the library default is [false]. *)

val with_default : ?witness:bool -> bool -> (unit -> 'a) -> 'a
(** Run [f] with {!default_enabled} (and, with [witness], the witness
    recorder's default too) set to the given value, restoring both on
    exit. *)

val create : ?enabled:bool -> now:(unit -> int) -> unit -> t
(** [enabled] defaults to [!default_enabled]. The span ring grows as
    spans are recorded, so a disabled sink allocates about a
    kilobyte. *)

val enabled : t -> bool

val set_backend : t -> string -> unit
(** Name the backend the exported artifacts are labelled with (default
    ["baseline"]; LitterBox sets this at init). *)

val backend : t -> string

(** {2 Recording (no-ops while disabled)} *)

val observe : t -> ?scope:Metrics.scope -> string -> int -> unit
(** Record a latency sample into a per-scope histogram. [scope]
    defaults to the current scope. *)

(** {2 Spans and attribution} *)

val span_enter :
  t -> ?lane:string -> name:string -> category:Span.category -> unit -> int
(** Open a causal span ({!Span.enter}); [lane] defaults to the
    registry's current scope ({!Metrics.current}, which LitterBox
    maintains on every environment switch). Returns [-1] when the sink is disabled — callers pass
    the id straight to {!span_exit} on every exit path without checking. *)

val span_exit : t -> int -> unit
(** Close a span opened by {!span_enter}. No-op on [-1] or when
    disabled. *)

val span_mark :
  t -> ?lane:string -> name:string -> category:Span.category -> unit -> unit
(** Record an instant ({!Span.mark}): a fault, a quarantine, a chaos
    injection, a retry, an allocator span or a fiber kill, its payload
    in [name]. [lane] defaults as for {!span_enter}. *)

val clock_tick : ?core:int -> t -> int -> unit
(** Feed one clock advance into the attribution ledger, charged to the
    innermost open span (or the current scope's ["user"] cell) and to
    [core]'s per-core ledger (the machine passes the clock's current
    lane; default 0). Wired as the simulated clock's observer when the
    sink is enabled at machine creation; never call it from anywhere
    else or conservation breaks. *)

val spans : t -> Span.t
val attribution : t -> Attrib.t

val witness : t -> Witness.t
(** The machine's witness recorder ({!Witness}). Carried here so every
    emission site that already holds the sink can reach it, but gated
    independently: the witness has its own enabled flag
    ([Witness.default_enabled], consulted at {!create} time) so policy
    mining can run with spans off and vice versa. *)

val metrics : t -> Metrics.t
(** The machine's counter registry; always counting. *)
