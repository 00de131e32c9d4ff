type t = {
  now : unit -> int;
  ring : Event.t Ring.t;
  metrics : Metrics.t;
  spans : Span.t;
  attrib : Attrib.t;
  witness : Witness.t;
  mutable enabled : bool;
  mutable backend : string;
  mutable context : string option;
  mutable user_sig : string;
      (** memoized ["<scope>;user"] for ticks outside any span *)
}

let default_capacity = 65_536
let default_enabled = ref false

let with_default ?(witness = false) b f =
  let saved = (!default_enabled, !Witness.default_enabled) in
  default_enabled := b;
  if witness then Witness.default_enabled := b;
  Fun.protect f ~finally:(fun () ->
      default_enabled := fst saved;
      Witness.default_enabled := snd saved)

let trusted_scope = "trusted"

let create ?(capacity = default_capacity) ?enabled ~now () =
  {
    now;
    ring = Ring.create ~capacity;
    metrics = Metrics.create ();
    spans = Span.create ~capacity ~now ();
    attrib = Attrib.create ~now ();
    witness = Witness.create ();
    enabled = (match enabled with Some e -> e | None -> !default_enabled);
    backend = "baseline";
    context = None;
    user_sig = trusted_scope ^ ";user";
  }

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false
let set_backend t b = t.backend <- b
let backend t = t.backend

let set_context t ctx =
  t.context <- ctx;
  t.user_sig <-
    (match ctx with Some e -> e ^ ";user" | None -> trusted_scope ^ ";user")

let context t = t.context

let scope_of t = function
  | Some s -> s
  | None -> ( match t.context with Some e -> e | None -> trusted_scope)

let emit t ?(dur = 0) kind =
  if t.enabled then
    Ring.push t.ring
      {
        Event.ts = t.now () - dur;
        dur;
        backend = t.backend;
        enclosure = t.context;
        kind;
      }

let incr t ?scope ?by name =
  if t.enabled then Metrics.incr t.metrics ~scope:(scope_of t scope) ?by name

let observe t ?scope name v =
  if t.enabled then Metrics.observe t.metrics ~scope:(scope_of t scope) name v

(* Spans: callers hold the returned id and must exit it on every path.
   Disabled sink => [-1], which [span_exit] ignores, so instrumented
   sites stay branch-only when observability is off. *)

let span_enter t ?lane ~name ~category () =
  if t.enabled then Span.enter t.spans ~lane:(scope_of t lane) ~name ~category
  else -1

let span_exit t id = if id >= 0 && t.enabled then Span.exit t.spans id

let span_mark t ?lane ~name ~category () =
  if t.enabled then Span.mark t.spans ~lane:(scope_of t lane) ~name ~category

(* The clock's observer: attribute this tick to the innermost open span,
   or to the current scope's "user" cell when no span is open. Exact by
   construction — one call per [Clock.consume], covering all of it. *)
let clock_tick ?(core = 0) t ns =
  if t.enabled && ns > 0 then
    match Span.top t.spans with
    | Some (sp, sig_) ->
        Attrib.charge ~core t.attrib ~scope:sp.Span.lane
          ~category:(Span.category_name sp.Span.category)
          ~stack:sig_ ns
    | None ->
        let scope = scope_of t None in
        Attrib.charge ~core t.attrib ~scope ~category:"user" ~stack:t.user_sig
          ns

let witness t = t.witness

let events t = Ring.to_list t.ring
let metrics t = t.metrics
let spans t = t.spans
let attribution t = t.attrib
let total_events t = Ring.pushed t.ring
let dropped_events t = Ring.dropped t.ring
let capacity t = Ring.capacity t.ring

let reset t =
  Ring.clear t.ring;
  Metrics.clear t.metrics;
  Span.clear t.spans;
  Attrib.clear t.attrib;
  Witness.reset t.witness
