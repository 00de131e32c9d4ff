(** The observability sink: one per simulated machine.

    Always compiled in, {e disabled by default}: every emission point
    checks {!enabled} first and does nothing (no clock cost, no
    allocation) when the sink is off, so benchmark numbers with
    observability disabled are identical to a build without it.

    Timestamps come from the caller-supplied [now] closure, which reads
    the {e simulated} clock — traces of deterministic workloads are
    byte-for-byte reproducible (DESIGN.md, "Telemetry"). *)

type t

val default_capacity : int

val default_enabled : bool ref
(** Consulted once, when a machine creates its sink. Tools that want a
    trace (e.g. [bin/trace_dump.exe]) set this before booting a
    runtime; the library default is [false]. *)

val with_default : ?witness:bool -> bool -> (unit -> 'a) -> 'a
(** Run [f] with {!default_enabled} (and, with [witness], the witness
    recorder's default too) set to the given value, restoring both on
    exit. *)

val create : ?capacity:int -> ?enabled:bool -> now:(unit -> int) -> unit -> t
(** [enabled] defaults to [!default_enabled]. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val set_backend : t -> string -> unit
(** Stamp subsequent events with a backend name (default ["baseline"];
    LitterBox sets this at init). *)

val backend : t -> string

val set_context : t -> string option -> unit
(** The innermost active enclosure; maintained by LitterBox on every
    environment switch, stamped onto events and used as the default
    metric scope. *)

val context : t -> string option

(** {2 Emission (no-ops while disabled)} *)

val emit : t -> ?dur:int -> Event.kind -> unit
(** Record an event that {e ended} now and took [dur] simulated ns
    (default 0: an instant event). *)

val incr : t -> ?scope:string -> ?by:int -> string -> unit
(** Bump a counter. [scope] defaults to the current context, or
    ["trusted"] outside any enclosure. *)

val observe : t -> ?scope:string -> string -> int -> unit
(** Record a latency sample into a per-scope histogram. *)

(** {2 Spans and attribution} *)

val span_enter :
  t -> ?lane:string -> name:string -> category:Span.category -> unit -> int
(** Open a causal span ({!Span.enter}); [lane] defaults to the current
    context scope. Returns [-1] when the sink is disabled — callers pass
    the id straight to {!span_exit} on every exit path without checking. *)

val span_exit : t -> int -> unit
(** Close a span opened by {!span_enter}. No-op on [-1] or when
    disabled. *)

val span_mark :
  t -> ?lane:string -> name:string -> category:Span.category -> unit -> unit
(** Record an instant span (fault delivery, fiber kill). *)

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
    mining can run with the event ring off and vice versa. *)

(** {2 Introspection} *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val metrics : t -> Metrics.t
val total_events : t -> int
val dropped_events : t -> int
val capacity : t -> int

val reset : t -> unit
(** Drop all events, metrics, spans, and attribution (the ledger
    re-epochs at the current clock value); keeps
    enabled/backend/context. *)
