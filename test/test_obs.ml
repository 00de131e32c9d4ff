(* Tests of the observability layer: the ring buffer, the histogram and
   the counter registry, the JSON emit/parse pair, exporter
   well-formedness (the emitted documents are parsed back), and a
   property test that the registry agrees with a string-keyed model of
   the store it replaced. *)

module Obs = Encl_obs.Obs
module Ring = Encl_obs.Ring
module Hist = Encl_obs.Hist
module Metrics = Encl_obs.Metrics
module Span = Encl_obs.Span
module Export = Encl_obs.Export
module Json = Encl_obs.Export.Json
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Attrib = Encl_obs.Attrib
module Runtime = Encl_golike.Runtime
module Scenarios = Encl_apps.Scenarios

(* Counters owned by this test, declared once like a layer's. *)
let test_a = Metrics.counter "test.a"
let test_b = Metrics.counter "test.b"
let test_c = Metrics.counter "test.c"

(* Boot the Figure-1 program with the machine's sink enabled. *)
let boot_obs backend =
  Obs.default_enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.default_enabled := false)
    (fun () -> Fixtures.boot backend)

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let ring_tests =
  [
    Alcotest.test_case "fills below capacity" `Quick (fun () ->
        let r = Ring.create ~capacity:8 in
        List.iter (Ring.push r) [ 1; 2; 3 ];
        Alcotest.(check int) "length" 3 (Ring.length r);
        Alcotest.(check int) "dropped" 0 (Ring.dropped r);
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Ring.to_list r));
    Alcotest.test_case "wraparound keeps the newest" `Quick (fun () ->
        let r = Ring.create ~capacity:4 in
        for i = 0 to 9 do
          Ring.push r i
        done;
        Alcotest.(check int) "length" 4 (Ring.length r);
        Alcotest.(check int) "pushed" 10 (Ring.pushed r);
        Alcotest.(check int) "dropped" 6 (Ring.dropped r);
        Alcotest.(check (list int)) "oldest-first" [ 6; 7; 8; 9 ] (Ring.to_list r));
    Alcotest.test_case "clear resets" `Quick (fun () ->
        let r = Ring.create ~capacity:2 in
        Ring.push r 1;
        Ring.clear r;
        Alcotest.(check int) "length" 0 (Ring.length r);
        Alcotest.(check (list int)) "empty" [] (Ring.to_list r));
    Alcotest.test_case "zero capacity rejected" `Quick (fun () ->
        match Ring.create ~capacity:0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* ------------------------------------------------------------------ *)
(* Histogram + metrics *)

let hist_tests =
  [
    Alcotest.test_case "log buckets and stats" `Quick (fun () ->
        let h = Hist.create () in
        List.iter (Hist.record h) [ 0; 1; 5; 5; 1000 ];
        Alcotest.(check int) "count" 5 (Hist.count h);
        Alcotest.(check int) "sum" 1011 (Hist.sum h);
        Alcotest.(check int) "min" 0 (Hist.min_value h);
        Alcotest.(check int) "max" 1000 (Hist.max_value h);
        (* Buckets are ascending and their counts add up. *)
        let buckets = Hist.buckets h in
        let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 buckets in
        Alcotest.(check int) "bucket mass" 5 total;
        Alcotest.(check bool)
          "ascending" true
          (List.for_all2
             (fun (lo1, _, _) (lo2, _, _) -> lo1 < lo2)
             (List.filteri (fun i _ -> i < List.length buckets - 1) buckets)
             (List.tl buckets)));
    Alcotest.test_case "quantiles bound the data" `Quick (fun () ->
        let h = Hist.create () in
        for v = 1 to 100 do
          Hist.record h v
        done;
        Alcotest.(check bool) "p50 >= 50" true (Hist.quantile h 0.5 >= 50);
        Alcotest.(check bool) "p99 >= 99" true (Hist.quantile h 0.99 >= 99));
    Alcotest.test_case "metrics totals span scopes" `Quick (fun () ->
        let m = Metrics.create () in
        (* Interned in the other order: reports follow first touch. *)
        let b = Metrics.scope m "b" and a = Metrics.scope m "a" in
        Metrics.incr_in m ~scope:a test_a;
        Metrics.set_current m b;
        Metrics.add m test_a 2;
        Metrics.incr m test_b;
        Alcotest.(check int) "total a" 3 (Metrics.total m test_a);
        Alcotest.(check int) "total b" 1 (Metrics.total m test_b);
        Alcotest.(check int) "never counted" 0 (Metrics.total m test_c);
        Alcotest.(check (list string)) "scope order" [ "a"; "b" ] (Metrics.scopes m);
        Alcotest.(check (list (pair string int)))
          "scope b" [ ("test.a", 2); ("test.b", 1) ] (Metrics.counters m ~scope:"b"));
    Alcotest.test_case "a name is declared once" `Quick (fun () ->
        match Metrics.counter "test.a" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "a second declaration of test.a was accepted");
    Alcotest.test_case "increments do not allocate" `Quick (fun () ->
        let m = Metrics.create () in
        let s = Metrics.scope m "enc" in
        Metrics.set_current m s;
        Metrics.incr m test_a;
        Metrics.incr_in m ~scope:Metrics.trusted test_b;
        let before = Gc.minor_words () in
        for _ = 1 to 2_500 do
          Metrics.incr m test_a;
          Metrics.incr_in m ~scope:Metrics.trusted test_b;
          Metrics.add m test_c 3;
          Metrics.incr_in m ~scope:s test_c
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "counted" 2_501 (Metrics.total m test_a);
        (* Reading Gc.minor_words allocates a boxed float itself. *)
        Alcotest.(check bool)
          (Printf.sprintf "10 000 increments allocated %.0f words" words)
          true (words < 16.));
  ]

(* ------------------------------------------------------------------ *)
(* JSON emit/parse *)

let json_tests =
  let roundtrip v =
    match Json.parse (Json.to_string v) with
    | Ok v' -> Alcotest.(check string) "roundtrip" (Json.to_string v) (Json.to_string v')
    | Error e -> Alcotest.fail e
  in
  [
    Alcotest.test_case "roundtrips values" `Quick (fun () ->
        roundtrip
          (Json.Obj
             [
               ("i", Json.Int 42);
               ("f", Json.Float 1.5);
               ("s", Json.String "a\"b\\c\nd");
               ("l", Json.List [ Json.Bool true; Json.Null; Json.Int (-7) ]);
               ("o", Json.Obj []);
             ]));
    Alcotest.test_case "parses unicode escapes" `Quick (fun () ->
        match Json.parse {|"aAé"|} with
        | Ok (Json.String s) -> Alcotest.(check string) "decoded" "aA\xc3\xa9" s
        | Ok _ -> Alcotest.fail "expected a string"
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "rejects trailing garbage" `Quick (fun () ->
        match Json.parse "{} x" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "rejects truncated input" `Quick (fun () ->
        match Json.parse {|{"a": [1, 2|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "non-finite floats are null, and the gate rejects them"
      `Quick (fun () ->
        Alcotest.(check string) "null" {|[null,null,null]|}
          (Json.to_string
             (Json.List [ Json.Float nan; Json.Float infinity; Json.Float (-.nan) ]));
        let doc =
          Json.Obj
            [
              ("quick", Json.Bool true);
              ( "rows",
                Json.List
                  [
                    Json.Obj
                      [
                        ("workload", Json.String "smp_http");
                        ("backend", Json.String "LB_MPK");
                        ("metric", Json.String "req_per_sec");
                        ("value", Json.Float nan);
                      ];
                  ] );
            ]
        in
        match Encl_obs.Gate.parse_doc (Json.to_string doc) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "a NaN row value passed the gate's parser");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"documents with arbitrary floats parse back"
         ~count:300
         QCheck.(
           make
             ~print:(fun v -> Json.to_string v)
             Gen.(
               let special =
                 oneofl [ nan; -.nan; infinity; neg_infinity; -0.; 5e-324; max_float ]
               in
               let num = map (fun f -> Json.Float f) (oneof [ float; special ]) in
               map2
                 (fun fs key -> Json.Obj [ (key, Json.List fs); ("n", Json.Null) ])
                 (list_size (int_range 0 8) num)
                 (string_size ~gen:printable (int_range 0 6))))
         (fun v -> Result.is_ok (Json.parse (Json.to_string v))));
  ]

(* ------------------------------------------------------------------ *)
(* Exporters against a live machine *)

let drive_figure1 lb =
  Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc";
  ignore (Lb.syscall lb K.Getuid);
  ignore (Lb.syscall lb K.Getpid);
  Lb.epilog lb ~site:"enclosure:io_enc";
  Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
  (* rcl's policy is sys=none: this must be denied and must fault. *)
  (match Lb.syscall lb K.Getuid with
  | exception Lb.Fault _ -> ()
  | _ -> Alcotest.fail "expected the rcl syscall to fault");
  Lb.epilog lb ~site:"enclosure:rcl"

let exporter_tests =
  [
    Alcotest.test_case "trace_json is well-formed" `Quick (fun () ->
        let machine, _image, lb = boot_obs Lb.Mpk in
        drive_figure1 lb;
        let obs = machine.Machine.obs in
        match Json.parse (Export.trace_json obs) with
        | Error e -> Alcotest.fail e
        | Ok doc -> (
            match Option.bind (Json.member "traceEvents" doc) Json.to_list with
            | None -> Alcotest.fail "no traceEvents array"
            | Some events ->
                Alcotest.(check bool) "has events" true (List.length events > 0);
                List.iter
                  (fun e ->
                    let has k = Json.member k e <> None in
                    Alcotest.(check bool) "event fields" true
                      (has "name" && has "ph" && has "pid" && has "tid"))
                  events;
                (* Every non-metadata entry is a span ("X" with ts and
                   dur) or a mark ("i" with ts), one per recorded span. *)
                let data =
                  List.filter
                    (fun e -> Json.member "ph" e <> Some (Json.String "M"))
                    events
                in
                List.iter
                  (fun e ->
                    let has k = Json.member k e <> None in
                    match Json.member "ph" e with
                    | Some (Json.String "X") ->
                        Alcotest.(check bool) "span has ts and dur" true
                          (has "ts" && has "dur")
                    | Some (Json.String "i") ->
                        Alcotest.(check bool) "mark has ts" true (has "ts")
                    | _ ->
                        Alcotest.fail
                          ("neither a span nor a mark: " ^ Json.to_string e))
                  data;
                Alcotest.(check int) "span count"
                  (Span.total (Obs.spans obs))
                  (List.length data)));
    Alcotest.test_case "a denied syscall leaves a fault mark on its lane"
      `Quick (fun () ->
        let machine, _image, lb = boot_obs Lb.Mpk in
        drive_figure1 lb;
        let marks =
          List.filter
            (fun (s : Span.span) ->
              s.Span.instant && s.Span.lane = "rcl"
              && String.starts_with ~prefix:"fault" s.Span.name)
            (Span.closed (Obs.spans machine.Machine.obs))
        in
        Alcotest.(check bool) "a fault mark on rcl's lane" true (marks <> []));
    Alcotest.test_case "summary names every scope" `Quick (fun () ->
        let machine, _image, lb = boot_obs Lb.Mpk in
        drive_figure1 lb;
        let s = Export.summary machine.Machine.obs in
        let contains sub =
          let n = String.length s and m = String.length sub in
          let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
          at 0
        in
        List.iter
          (fun scope ->
            Alcotest.(check bool) (scope ^ " present") true (contains scope))
          (Metrics.scopes (Obs.metrics machine.Machine.obs)));
    Alcotest.test_case "disabled sink records nothing" `Quick (fun () ->
        (* Nothing of its own: no spans or histograms. Counters are the
           registry's and still count. *)
        let machine, _image, lb = Fixtures.boot Lb.Mpk in
        drive_figure1 lb;
        let obs = machine.Machine.obs in
        let m = Obs.metrics obs in
        Alcotest.(check bool) "disabled" false (Obs.enabled obs);
        Alcotest.(check int) "no spans" 0 (Span.total (Obs.spans obs));
        Alcotest.(check int) "no histograms" 0
          (List.length (List.concat_map (fun scope -> Metrics.hists m ~scope) (Metrics.scopes m)));
        Alcotest.(check bool) "switches still counted" true
          (Lb.switch_count lb > 0);
        Alcotest.(check (option int))
          "registry switch total" (Some (Lb.switch_count lb))
          (List.assoc_opt "switch" (Metrics.totals m)));
    Alcotest.test_case "a disabled sink allocates under 64 KB" `Quick
      (fun () ->
        (* The span ring grows on use, so booting a machine with
           observability off pays for no trace storage. *)
        let before = Gc.allocated_bytes () in
        let obs = Obs.create ~enabled:false ~now:(fun () -> 0) () in
        let bytes = Gc.allocated_bytes () -. before in
        ignore (Sys.opaque_identity obs);
        Alcotest.(check bool)
          (Printf.sprintf "Obs.create allocated %.0f bytes" bytes)
          true (bytes < 65_536.));
    Alcotest.test_case "metrics.json carries one ledger per core" `Quick
      (fun () ->
        (* A 4-core run: every core's exported total and cells are its
           in-memory ledger's. *)
        let rt, _ =
          Obs.with_default true (fun () ->
              Result.get_ok
                (Scenarios.smp_http (Some Lb.Mpk) ~cores:4 ~requests:128
                   ~conns:16 ()))
        in
        let obs = (Runtime.machine rt).Machine.obs in
        let a = Obs.attribution obs in
        let doc = Result.get_ok (Json.parse (Export.metrics_json obs)) in
        let cores =
          Option.bind (Json.member "attribution" doc) (Json.member "cores")
          |> Fun.flip Option.bind Json.to_list |> Option.value ~default:[]
        in
        Alcotest.(check int) "one ledger per core" 4 (List.length cores);
        let int field j = Option.bind (Json.member field j) Json.to_int in
        let str field j = Option.bind (Json.member field j) Json.to_string_opt in
        let cell j = (str "scope" j, str "category" j, int "ns" j) in
        List.iteri
          (fun i core ->
            let name = Printf.sprintf "core %d" i in
            Alcotest.(check (option int)) (name ^ " index") (Some i) (int "core" core);
            Alcotest.(check (option int)) (name ^ " attributed_ns")
              (Some (Attrib.core_total a i)) (int "attributed_ns" core);
            Alcotest.(check bool) (name ^ " charged") true (Attrib.core_total a i > 0);
            let cells =
              Option.bind (Json.member "cells" core) Json.to_list
              |> Option.value ~default:[]
            in
            Alcotest.(check (list (triple (option string) (option string) (option int))))
              (name ^ " cells")
              (List.map
                 (fun (s, c, ns) -> (Some s, Some c, Some ns))
                 (Attrib.core_cells a i))
              (List.map cell cells))
          cores);
  ]

(* ------------------------------------------------------------------ *)
(* Hostile bytes: every artifact, snapshot and baseline is read through
   Json.parse, so it must be total: a typed result on any input, never
   an exception, and a document it accepts must survive its own
   serialisation. *)

(* The valid inputs the property truncates and mutates: trace.json and
   metrics.json of a short traced run. *)
let artifacts =
  lazy
    (let machine, _image, lb = boot_obs Lb.Mpk in
     drive_figure1 lb;
     let obs = machine.Machine.obs in
     [| Export.trace_json obs; Export.metrics_json obs |])

let hostile_gen =
  QCheck.Gen.(
    let artifact = delay (fun () -> oneofa (Lazy.force artifacts)) in
    let truncated doc =
      map (fun n -> String.sub doc 0 n) (int_bound (String.length doc))
    in
    let mutated doc =
      map2
        (fun i c ->
          let b = Bytes.of_string doc in
          Bytes.set b i c;
          Bytes.to_string b)
        (int_bound (String.length doc - 1))
        char
    in
    oneof
      [
        string_size ~gen:char (int_range 0 256);
        string_size ~gen:printable (int_range 0 256);
        artifact >>= truncated;
        artifact >>= mutated;
      ])

let hostile_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parse is total on hostile bytes" ~count:2000
         (QCheck.make ~print:String.escaped hostile_gen)
         (fun s ->
           match Json.parse s with
           | Error _ -> true
           | Ok v -> Result.is_ok (Json.parse (Json.to_string v))));
  ]

(* ------------------------------------------------------------------ *)
(* Property: the registry agrees with the string-keyed store it
   replaced, kept here as the oracle: counters and histograms in
   per-scope hash tables created on first use, scopes in first-use
   order. *)

module Metrics_model = struct
  type scope_data = {
    counters : (string, int ref) Hashtbl.t;
    hists : (string, Hist.t) Hashtbl.t;
  }

  type t = {
    by_scope : (string, scope_data) Hashtbl.t;
    mutable order : string list;  (** first-use order, reversed *)
  }

  let create () = { by_scope = Hashtbl.create 16; order = [] }

  let scope_data t scope =
    match Hashtbl.find_opt t.by_scope scope with
    | Some d -> d
    | None ->
        let d = { counters = Hashtbl.create 16; hists = Hashtbl.create 8 } in
        Hashtbl.replace t.by_scope scope d;
        t.order <- scope :: t.order;
        d

  let incr t ~scope ~by name =
    let d = scope_data t scope in
    match Hashtbl.find_opt d.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace d.counters name (ref by)

  let observe t ~scope name v =
    let d = scope_data t scope in
    let h =
      match Hashtbl.find_opt d.hists name with
      | Some h -> h
      | None ->
          let h = Hist.create () in
          Hashtbl.replace d.hists name h;
          h
    in
    Hist.record h v

  let scopes t = List.rev t.order

  let sorted_bindings tbl value =
    Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let counters t ~scope =
    match Hashtbl.find_opt t.by_scope scope with
    | None -> []
    | Some d -> sorted_bindings d.counters ( ! )

  let hists t ~scope =
    match Hashtbl.find_opt t.by_scope scope with
    | None -> []
    | Some d -> sorted_bindings d.hists Fun.id

  let counter t ~scope name =
    Option.value ~default:0 (List.assoc_opt name (counters t ~scope))

  let total t name =
    List.fold_left (fun acc scope -> acc + counter t ~scope name) 0 (scopes t)

  let counter_names t =
    List.concat_map (fun scope -> List.map fst (counters t ~scope)) (scopes t)
    |> List.sort_uniq compare

  (* The text summary as Export rendered it from this store. *)
  let summary t ~backend =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "observability: backend=%s spans=0 dropped=0\n" backend);
    let names = counter_names t in
    if names <> [] then begin
      let scope_w =
        List.fold_left
          (fun acc s -> max acc (String.length s))
          (String.length "scope") (scopes t)
      in
      Buffer.add_string buf (Printf.sprintf "%-*s" scope_w "scope");
      List.iter
        (fun n ->
          Buffer.add_string buf (Printf.sprintf " %*s" (max 8 (String.length n)) n))
        names;
      Buffer.add_char buf '\n';
      let row scope lookup =
        Buffer.add_string buf (Printf.sprintf "%-*s" scope_w scope);
        List.iter
          (fun n ->
            Buffer.add_string buf
              (Printf.sprintf " %*d" (max 8 (String.length n)) (lookup n)))
          names;
        Buffer.add_char buf '\n'
      in
      List.iter (fun scope -> row scope (counter t ~scope)) (scopes t);
      row "TOTAL" (total t)
    end;
    List.iter
      (fun scope ->
        List.iter
          (fun (name, h) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "hist %s/%s: n=%d min=%dns p50<=%dns p99<=%dns max=%dns \
                  mean=%.0fns\n"
                 scope name (Hist.count h) (Hist.min_value h)
                 (Hist.quantile h 0.5) (Hist.quantile h 0.99) (Hist.max_value h)
                 (Hist.mean h)))
          (hists t ~scope))
      (scopes t);
    Buffer.contents buf
end

let model_scopes = [| "trusted"; "handler_enc"; "net_http"; "secret"; "__main__"; "io" |]
let model_hists = [| "switch_ns"; "syscall_ns"; "gc_ns" |]

(* [Incr (s, c, by, how)]: counter [c] by [by] under scope [s], through
   {!Metrics.incr_in} ([how = 0]), or as the current scope through
   {!Metrics.incr}/{!Metrics.add} (otherwise) — with the current scope
   left wherever the previous op put it. *)
type model_op =
  | Incr of int * int * int * int
  | Observe of int * int * int

let model_arb =
  let counters = Array.of_list (Metrics.declared ()) in
  let open QCheck.Gen in
  let nscopes = Array.length model_scopes in
  let op =
    frequency
      [
        ( 4,
          map
            (fun (s, c, by, how) -> Incr (s, c, by, how))
            (quad (int_bound (nscopes - 1))
               (int_bound (Array.length counters - 1))
               (frequency [ (3, return 1); (1, int_range 2 5000) ])
               (int_bound 1)) );
        ( 1,
          map3
            (fun s h v -> Observe (s, h, v))
            (int_bound (nscopes - 1))
            (int_bound (Array.length model_hists - 1))
            (int_range 0 100_000) );
      ]
  in
  let print (intern, ops) =
    Printf.sprintf "intern [%s]; %s"
      (String.concat " " (List.map (fun i -> model_scopes.(i)) intern))
      (String.concat "; "
         (List.map
            (function
              | Incr (s, c, by, how) ->
                  Printf.sprintf "%s %s/%s +%d"
                    (if how = 0 then "incr_in" else "current")
                    model_scopes.(s)
                    (Metrics.counter_name counters.(c))
                    by
              | Observe (s, h, v) ->
                  Printf.sprintf "observe %s/%s %d" model_scopes.(s)
                    model_hists.(h) v)
            ops))
  in
  (* Scopes are interned up front in a random order, as registration
     order need not be first-touch order. *)
  QCheck.make ~print
    (pair
       (shuffle_l (List.init nscopes Fun.id))
       (list_size (int_range 0 60) op))

let run_model (intern, ops) =
  let counters = Array.of_list (Metrics.declared ()) in
  let obs = Obs.create ~enabled:true ~now:(fun () -> 0) () in
  let m = Obs.metrics obs in
  let ids = Array.make (Array.length model_scopes) Metrics.trusted in
  List.iter (fun i -> ids.(i) <- Metrics.scope m model_scopes.(i)) intern;
  let model = Metrics_model.create () in
  List.iter
    (function
      | Incr (s, c, by, how) ->
          let c = counters.(c) in
          Metrics_model.incr model ~scope:model_scopes.(s) ~by
            (Metrics.counter_name c);
          if how = 0 then
            for _ = 1 to by do
              Metrics.incr_in m ~scope:ids.(s) c
            done
          else begin
            Metrics.set_current m ids.(s);
            if by = 1 then Metrics.incr m c else Metrics.add m c by
          end
      | Observe (s, h, v) ->
          Metrics_model.observe model ~scope:model_scopes.(s) model_hists.(h) v;
          Obs.observe obs ~scope:ids.(s) model_hists.(h) v)
    ops;
  (obs, m, model)

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"registry agrees with the string-keyed model"
         ~count:300 model_arb (fun case ->
           let obs, m, model = run_model case in
           let scopes = Metrics_model.scopes model in
           let fail what = QCheck.Test.fail_reportf "%s differ" what in
           if Metrics.scopes m <> scopes then fail "scope orders";
           List.iter
             (fun scope ->
               if Metrics.counters m ~scope <> Metrics_model.counters model ~scope
               then fail ("counters of " ^ scope))
             scopes;
           let names = Metrics_model.counter_names model in
           if List.map fst (Metrics.totals m) <> names then fail "counter names";
           if
             Metrics.totals m
             <> List.map (fun n -> (n, Metrics_model.total model n)) names
           then fail "totals";
           List.iter
             (fun c ->
               if Metrics.total m c <> Metrics_model.total model (Metrics.counter_name c)
               then fail ("the total of " ^ Metrics.counter_name c))
             (Metrics.declared ());
           if Export.summary obs <> Metrics_model.summary model ~backend:"baseline"
           then fail "summaries";
           true));
  ]

let () =
  Alcotest.run "obs"
    [
      ("ring", ring_tests);
      ("hist", hist_tests);
      ("json", json_tests @ hostile_tests);
      ("export", exporter_tests);
      ("props", prop_tests);
    ]
