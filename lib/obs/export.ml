module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* JSON has no NaN or infinity: a non-finite float is written as null,
     which readers (the bench gate among them) reject as a value. *)
  let float_repr f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            write buf item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 4096 in
    write buf t;
    Buffer.contents buf

  exception Bad of int * string

  let parse s =
    let len = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (!pos, msg)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      let n = String.length word in
      if !pos + n <= len && String.sub s !pos n = word then begin
        pos := !pos + n;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | None -> fail "unterminated escape"
            | Some c ->
                advance ();
                (match c with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'n' -> Buffer.add_char buf '\n'
                | 'r' -> Buffer.add_char buf '\r'
                | 't' -> Buffer.add_char buf '\t'
                | 'u' ->
                    if !pos + 4 > len then fail "truncated \\u escape";
                    let hex = String.sub s !pos 4 in
                    pos := !pos + 4;
                    let code =
                      try int_of_string ("0x" ^ hex)
                      with _ -> fail "bad \\u escape"
                    in
                    (* Encode the BMP code point as UTF-8. *)
                    if code < 0x80 then Buffer.add_char buf (Char.chr code)
                    else if code < 0x800 then begin
                      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                    end
                    else begin
                      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                      Buffer.add_char buf
                        (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                    end
                | _ -> fail "unknown escape");
                loop ())
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while match peek () with Some c when is_num_char c -> true | _ -> false do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail ("bad number " ^ text))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((key, v) :: acc)
              | _ -> fail "expected , or } in object"
            in
            Obj (fields [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ] in array"
            in
            List (items [])
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %c" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> len then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (at, msg) ->
        Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_int = function
    | Int i -> Some i
    | Float f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None

  let to_float = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None

  let to_list = function List l -> Some l | _ -> None
  let to_string_opt = function String s -> Some s | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Chrome trace_event                                                  *)

let trusted_scope = "trusted"

let us ns = float_of_int ns /. 1000.0

let trace_json obs =
  let open Json in
  let tids = Hashtbl.create 8 in
  let order = ref [] in
  let tid_of scope =
    match Hashtbl.find_opt tids scope with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tids in
        Hashtbl.replace tids scope i;
        order := (scope, i) :: !order;
        i
  in
  ignore (tid_of trusted_scope);
  (* Spans render as complete ("X") events and marks as thread-scoped
     instants ("i"), on the lane of the enclosure that pays for them,
     sorted by start (ties: id) so Perfetto nests them without a sort
     pass. *)
  let span_json (s : Span.span) =
    let shape =
      if s.Span.instant then [ ("ph", String "i"); ("s", String "t") ]
      else
        [ ("ph", String "X"); ("dur", Float (us (s.Span.stop - s.Span.start))) ]
    in
    Obj
      ([
         ("name", String s.Span.name);
         ("cat", String (Span.category_name s.Span.category));
         ("pid", Int 1);
         ("tid", Int (tid_of s.Span.lane));
         ("ts", Float (us s.Span.start));
       ]
      @ shape
      @ [
          ( "args",
            Obj
              (("id", Int s.Span.id)
              ::
              (match s.Span.parent with
              | Some p -> [ ("parent", Int p) ]
              | None -> [])) );
        ])
  in
  let span_events =
    List.stable_sort
      (fun (a : Span.span) b ->
        match compare a.Span.start b.Span.start with
        | 0 -> compare a.Span.id b.Span.id
        | d -> d)
      (Span.closed (Obs.spans obs))
    |> List.map span_json
  in
  let metadata =
    List.rev_map
      (fun (scope, tid) ->
        Obj
          [
            ("name", String "thread_name");
            ("ph", String "M");
            ("pid", Int 1);
            ("tid", Int tid);
            ("args", Obj [ ("name", String scope) ]);
          ])
      !order
  in
  to_string
    (Obj
       [
         ("traceEvents", List (metadata @ span_events));
         ("displayTimeUnit", String "ms");
         ( "otherData",
           Obj
             [
               ("backend", String (Obs.backend obs));
               ("clock", String "simulated-ns");
               ("total_spans", Int (Span.total (Obs.spans obs)));
               ("dropped_spans", Int (Span.dropped (Obs.spans obs)));
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Witness: per-scope capability sets                                  *)

(* Dotted-quad rendering, local so the obs layer stays independent of
   the kernel's [Net]. The packing matches [Net.addr_of_string]. *)
let dotted_quad ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)

let witness_scope_json sc =
  let open Json in
  let mem_json (m : Witness.mem_counts) =
    Obj
      ([
         ("mode", String (Witness.mem_mode m));
         ("reads", Int m.Witness.reads);
         ("writes", Int m.Witness.writes);
         ("execs", Int m.Witness.execs);
       ]
      @
      if m.Witness.lo <= m.Witness.hi then
        [ ("lo", Int m.Witness.lo); ("hi", Int m.Witness.hi) ]
      else [])
  in
  let sys_json (c : Witness.sys_counts) =
    Obj
      ([
         ("allowed", Int c.Witness.allowed);
         ("denied", Int c.Witness.denied);
         ( "sites",
           Obj (List.map (fun (s, n) -> (s, Int n)) (Witness.sites_of c)) );
       ]
      @
      match Witness.ips_of c with
      | [] -> []
      | ips ->
          [
            ( "connect_ips",
              Obj (List.map (fun (ip, n) -> (dotted_quad ip, Int n)) ips) );
          ])
  in
  Obj
    [
      ( "mem",
        Obj (List.map (fun (p, m) -> (p, mem_json m)) (Witness.mem_of sc)) );
      ( "sys",
        Obj (List.map (fun (c, v) -> (c, sys_json v)) (Witness.sys_of sc)) );
      ("trusted_calls", Int (Witness.trusted_calls sc));
      ("tainted_verified", Int (Witness.tainted_verified sc));
      ("tainted_rejected", Int (Witness.tainted_rejected sc));
      ("transfers", Int (Witness.transfers sc));
    ]

let witness_fields obs =
  let open Json in
  let w = Obs.witness obs in
  let allowed, denied = Witness.totals w in
  [
    ("enabled", Bool (Witness.enabled w));
    ( "scopes",
      Obj
        (List.map
           (fun name ->
             match Witness.find_scope w name with
             | Some sc -> (name, witness_scope_json sc)
             | None -> (name, Null))
           (Witness.scope_names w)) );
    ("totals", Obj [ ("allowed", Int allowed); ("denied", Int denied) ]);
  ]

let witness_json obs =
  let open Json in
  to_string
    (Obj
       ([
          ("backend", String (Obs.backend obs));
          ("dropped_spans", Int (Span.dropped (Obs.spans obs)));
        ]
       @ witness_fields obs))

(* ------------------------------------------------------------------ *)
(* Flat metrics dump                                                   *)

let hist_json h =
  let open Json in
  Obj
    [
      ("count", Int (Hist.count h));
      ("sum", Int (Hist.sum h));
      ("min", Int (Hist.min_value h));
      ("max", Int (Hist.max_value h));
      ("mean", Float (Hist.mean h));
      ("p50", Int (Hist.quantile h 0.5));
      ("p99", Int (Hist.quantile h 0.99));
      ( "buckets",
        List
          (List.map
             (fun (lo, hi, c) -> List [ Int lo; Int hi; Int c ])
             (Hist.buckets h)) );
    ]

let metrics_json obs =
  let open Json in
  let m = Obs.metrics obs in
  let scope_json scope =
    ( scope,
      Obj
        [
          ( "counters",
            Obj (List.map (fun (n, v) -> (n, Int v)) (Metrics.counters m ~scope))
          );
          ( "histograms",
            Obj
              (List.map (fun (n, h) -> (n, hist_json h)) (Metrics.hists m ~scope))
          );
        ] )
  in
  let totals = List.map (fun (n, v) -> (n, Int v)) (Metrics.totals m) in
  let spans = Obs.spans obs in
  let attrib = Obs.attribution obs in
  to_string
    (Obj
       [
         ("backend", String (Obs.backend obs));
         ( "spans",
           Obj
             ([
                ("total", Int (Span.total spans));
                ("dropped", Int (Span.dropped spans));
                ("capacity", Int (Span.capacity spans));
                ("open", Int (Span.depth spans));
              ]
             @ List.filter_map
                 (fun cat ->
                   let n = Span.close_count spans cat in
                   if n = 0 then None
                   else Some ("closed." ^ Span.category_name cat, Int n))
                 Span.all_categories) );
         ( "attribution",
           Obj
             [
               ("elapsed_ns", Int (Attrib.elapsed attrib));
               ("attributed_ns", Int (Attrib.total attrib));
               ("conserved", Bool (Attrib.conserved attrib));
               ( "cells",
                 List
                   (List.map
                      (fun (scope, cat, ns) ->
                        Obj
                          [
                            ("scope", String scope);
                            ("category", String cat);
                            ("ns", Int ns);
                          ])
                      (Attrib.cells attrib)) );
               ("core_count", Int (Attrib.core_count attrib));
               ( "cores",
                 List
                   (List.init (Attrib.core_count attrib) (fun core ->
                        Obj
                          [
                            ("core", Int core);
                            ("attributed_ns", Int (Attrib.core_total attrib core));
                            ( "cells",
                              List
                                (List.map
                                   (fun (scope, cat, ns) ->
                                     Obj
                                       [
                                         ("scope", String scope);
                                         ("category", String cat);
                                         ("ns", Int ns);
                                       ])
                                   (Attrib.core_cells attrib core)) );
                          ])) );
             ] );
         ("scopes", Obj (List.map scope_json (Metrics.scopes m)));
         ("totals", Obj totals);
         ("witness", Obj (witness_fields obs));
       ])
(* ------------------------------------------------------------------ *)
(* Attribution: table and collapsed stacks                             *)

let attrib_table ?(top = 12) obs =
  let attrib = Obs.attribution obs in
  let elapsed = Attrib.elapsed attrib in
  let cells = Attrib.cells attrib in
  let shown = List.filteri (fun i _ -> i < top) cells in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "attribution (%s): elapsed=%dns attributed=%dns conserved=%b\n"
       (Obs.backend obs) elapsed (Attrib.total attrib)
       (Attrib.conserved attrib));
  let scope_w =
    List.fold_left
      (fun acc (s, _, _) -> max acc (String.length s))
      (String.length "scope") shown
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %-9s %14s %7s\n" scope_w "scope" "category" "ns"
       "share");
  List.iter
    (fun (scope, cat, ns) ->
      let share =
        if elapsed = 0 then 0.0
        else 100.0 *. float_of_int ns /. float_of_int elapsed
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s %-9s %14d %6.2f%%\n" scope_w scope cat ns share))
    shown;
  let rest = List.filteri (fun i _ -> i >= top) cells in
  if rest <> [] then begin
    let ns = List.fold_left (fun acc (_, _, n) -> acc + n) 0 rest in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %-9s %14d %6.2f%%\n" scope_w
         (Printf.sprintf "(%d more)" (List.length rest))
         "-" ns
         (if elapsed = 0 then 0.0
          else 100.0 *. float_of_int ns /. float_of_int elapsed))
  end;
  Buffer.contents buf

let flamegraph_folded obs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (stack, ns) ->
      Buffer.add_string buf stack;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int ns);
      Buffer.add_char buf '\n')
    (Attrib.stacks (Obs.attribution obs));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Text summary                                                        *)

let summary obs =
  let buf = Buffer.create 1024 in
  let m = Obs.metrics obs in
  Buffer.add_string buf
    (Printf.sprintf "observability: backend=%s spans=%d dropped=%d\n"
       (Obs.backend obs)
       (Span.total (Obs.spans obs))
       (Span.dropped (Obs.spans obs)));
  let totals = Metrics.totals m in
  if totals <> [] then begin
    let scope_w =
      List.fold_left
        (fun acc s -> max acc (String.length s))
        (String.length "scope") (Metrics.scopes m)
    in
    Buffer.add_string buf (Printf.sprintf "%-*s" scope_w "scope");
    List.iter
      (fun (n, _) -> Buffer.add_string buf (Printf.sprintf " %*s" (max 8 (String.length n)) n))
      totals;
    Buffer.add_char buf '\n';
    let row scope counts =
      Buffer.add_string buf (Printf.sprintf "%-*s" scope_w scope);
      List.iter
        (fun (n, _) ->
          Buffer.add_string buf
            (Printf.sprintf " %*d" (max 8 (String.length n))
               (Option.value ~default:0 (List.assoc_opt n counts))))
        totals;
      Buffer.add_char buf '\n'
    in
    List.iter
      (fun scope -> row scope (Metrics.counters m ~scope))
      (Metrics.scopes m);
    row "TOTAL" totals
  end;
  List.iter
    (fun scope ->
      List.iter
        (fun (name, h) ->
          Buffer.add_string buf
            (Printf.sprintf
               "hist %s/%s: n=%d min=%dns p50<=%dns p99<=%dns max=%dns mean=%.0fns\n"
               scope name (Hist.count h) (Hist.min_value h) (Hist.quantile h 0.5)
               (Hist.quantile h 0.99) (Hist.max_value h) (Hist.mean h)))
        (Metrics.hists m ~scope))
    (Metrics.scopes m);
  Buffer.contents buf
