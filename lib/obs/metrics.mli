(** The machine's counter registry, plus its per-scope latency
    histograms.

    Every counter [metrics.json] exports lives here and nowhere else.
    Each counter is declared once, at module initialisation, by the
    layer that owns it ({!counter}); the layer's [*_count] accessors
    read {!total}. Counting is always on, whether or not the machine's
    observability sink is enabled: an increment is an int-array update
    with no string built or hashed, no allocation and no simulated time.
    Histograms stay string-keyed, and {!Obs.observe} only records them
    while the sink is enabled.

    A {e scope} is the enclosure, Go package or Python module a count is
    attributed to, or [trusted] for work outside any enclosure. Scope
    names are interned per machine to dense ids, once, when the owner is
    registered. A scope appears in reports from its first counter
    increment or first histogram sample on; reports list scopes in that
    first-touch order, so they are deterministic. *)

type t

type counter
(** A declared counter. *)

val counter : string -> counter
(** Declare a counter. Call once per name, at module initialisation;
    [Invalid_argument] if the name is already declared. *)

val counter_name : counter -> string

val declared : unit -> counter list
(** Every declared counter, in declaration order. *)

type scope = int

val trusted : scope
(** The pre-interned ["trusted"] scope. *)

val create : unit -> t

val scope : t -> string -> scope
(** Intern a scope name (idempotent). Interning alone does not make the
    scope appear in reports. *)

val scope_name : t -> scope -> string

val current : t -> scope
val set_current : t -> scope -> unit
(** The innermost active enclosure's scope ([trusted] outside any),
    maintained by LitterBox on every environment switch. *)

(** {2 Counting} *)

val incr : t -> counter -> unit
(** Add 1 under the current scope. *)

val incr_in : t -> scope:scope -> counter -> unit
(** Add 1 under [scope]. *)

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] under the current scope. [n <= 0] records
    nothing: a counter appears in a scope iff it counted there. *)

val observe : t -> scope:scope -> string -> int -> unit
(** Record a latency sample (ns) into the scope's named histogram. *)

(** {2 Reading} *)

val total : t -> counter -> int
(** The counter summed over every scope. *)

val totals : t -> (string * int) list
(** Every counter with a non-zero total, sorted by name. *)

val scopes : t -> string list
(** First-touch order. *)

val counters : t -> scope:string -> (string * int) list
(** The scope's non-zero counters, sorted by name. *)

val hists : t -> scope:string -> (string * Hist.t) list
(** Sorted by name. *)
