type t = {
  metrics : Metrics.t;
  spans : Span.t;
  attrib : Attrib.t;
  witness : Witness.t;
  enabled : bool;
  mutable backend : string;
  mutable sig_scope : Metrics.scope;
  mutable user_sig : string;
      (** memoized ["<scope>;user"] of [sig_scope], for ticks outside
          any span *)
}

let default_enabled = ref false

let with_default ?(witness = false) b f =
  let saved = (!default_enabled, !Witness.default_enabled) in
  default_enabled := b;
  if witness then Witness.default_enabled := b;
  Fun.protect f ~finally:(fun () ->
      default_enabled := fst saved;
      Witness.default_enabled := snd saved)

let trusted_scope = "trusted"

let create ?enabled ~now () =
  {
    metrics = Metrics.create ();
    spans = Span.create ~now ();
    attrib = Attrib.create ~now ();
    witness = Witness.create ();
    enabled = (match enabled with Some e -> e | None -> !default_enabled);
    backend = "baseline";
    sig_scope = Metrics.trusted;
    user_sig = trusted_scope ^ ";user";
  }

let enabled t = t.enabled
let set_backend t b = t.backend <- b
let backend t = t.backend

(* The current scope has one home, the registry; the default span lane
   is its name. *)
let scope_of t = function
  | Some s -> s
  | None -> Metrics.scope_name t.metrics (Metrics.current t.metrics)

let observe t ?scope name v =
  if t.enabled then
    let scope =
      match scope with Some s -> s | None -> Metrics.current t.metrics
    in
    Metrics.observe t.metrics ~scope name v

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
        let scope = Metrics.current t.metrics in
        if scope <> t.sig_scope then begin
          t.sig_scope <- scope;
          t.user_sig <- Metrics.scope_name t.metrics scope ^ ";user"
        end;
        Attrib.charge ~core t.attrib
          ~scope:(Metrics.scope_name t.metrics scope)
          ~category:"user" ~stack:t.user_sig ns

let witness t = t.witness
let metrics t = t.metrics
let spans t = t.spans
let attribution t = t.attrib
