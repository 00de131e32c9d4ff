(** Exporters: Chrome [trace_event] JSON, a flat metrics dump, and an
    aligned-text summary — plus the minimal JSON value type they emit,
    with a parser so tests and CI can check well-formedness without an
    external JSON dependency. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialization (valid JSON; strings escaped, NaN and
      infinities written as [null]). *)

  val parse : string -> (t, string) result
  (** Strict parser for the subset above (numbers without a fraction or
      exponent come back as [Int]). The error names the byte offset. *)

  val member : string -> t -> t option
  (** Object field lookup; [None] on missing field or non-object. *)

  val to_int : t -> int option
  (** [Int] directly; integral [Float]s are truncated. *)

  val to_float : t -> float option
  val to_list : t -> t list option
  val to_string_opt : t -> string option
end

val trace_json : Obs.t -> string
(** Chrome [chrome://tracing] / Perfetto-loadable trace: one JSON object
    with a [traceEvents] array. Each retained span renders as an ["X"]
    (complete) event and each mark as an ["i"] (instant), [cat] its
    {!Span.category}, nested per enclosure lane, id and parent id in
    [args]. Each scope (enclosure or trusted) gets its own named thread.
    Timestamps are simulated microseconds; [otherData] carries the span
    total and drop count. *)

val metrics_json : Obs.t -> string
(** Flat metrics dump: backend, span accounting (totals, drops,
    per-category close counts), the
    attribution ledger (elapsed vs attributed ns, conservation verdict,
    per-cell breakdown), per-scope counters and histograms, and
    cross-scope [totals] (so [totals.switch]/[totals.fault] can be
    compared with [Litterbox.switch_count]/[fault_count] exactly). *)

val witness_json : Obs.t -> string
(** The standalone witness artifact ([witness.json]): per-scope
    capability sets — package access modes with ranges, syscall
    categories with call sites and connect targets, boundary-crossing
    counts — plus cross-scope allowed/denied totals and the span-ring
    drop count (a non-zero drop invalidates mining runs). Keys are
    sorted, so identical runs produce byte-identical artifacts. The
    same fields are embedded in {!metrics_json} under ["witness"]. *)

val attrib_table : ?top:int -> Obs.t -> string
(** Aligned text: the [top] (default 12) largest (scope × category)
    cells with their share of elapsed simulated time, headed by the
    conservation verdict; remaining cells are folded into one row. *)

val flamegraph_folded : Obs.t -> string
(** Collapsed-stack format (one ["lane;frame;...;frame ns"] line per
    bucket, sorted by stack) — feed to [flamegraph.pl] or speedscope.
    Line weights sum to the attributed total exactly. *)

val summary : Obs.t -> string
(** Aligned-text report for terminals. *)
