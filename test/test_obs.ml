(* Tests of the observability layer: the ring buffer, the histogram and
   metric registries, the JSON emit/parse pair, exporter well-formedness
   (the emitted documents are parsed back and cross-checked against
   LitterBox's own counters), and a property test that the Obs counter
   totals reconcile with switch_count/fault_count under arbitrary
   prolog/epilog sequences. *)

module Obs = Encl_obs.Obs
module Ring = Encl_obs.Ring
module Hist = Encl_obs.Hist
module Metrics = Encl_obs.Metrics
module Event = Encl_obs.Event
module Export = Encl_obs.Export
module Json = Encl_obs.Export.Json
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel

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
        Metrics.incr m ~scope:"a" "switch";
        Metrics.incr m ~scope:"b" ~by:2 "switch";
        Metrics.incr m ~scope:"b" "fault";
        Alcotest.(check int) "total switch" 3 (Metrics.total m "switch");
        Alcotest.(check int) "total fault" 1 (Metrics.total m "fault");
        Alcotest.(check int) "missing" 0 (Metrics.total m "nope");
        Alcotest.(check (list string)) "scope order" [ "a"; "b" ] (Metrics.scopes m));
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
                (* Every non-metadata, non-span event count matches the
                   ring; span events ("span:<cat>") match the span store. *)
                let is_span e =
                  match
                    Option.bind (Json.member "cat" e) Json.to_string_opt
                  with
                  | Some c ->
                      String.length c > 5 && String.sub c 0 5 = "span:"
                  | None -> false
                in
                let data =
                  List.filter
                    (fun e ->
                      Json.member "ph" e <> Some (Json.String "M")
                      && not (is_span e))
                    events
                in
                Alcotest.(check int) "event count" (Obs.total_events obs)
                  (List.length data);
                let span_events = List.filter is_span events in
                Alcotest.(check int) "span count"
                  (Encl_obs.Span.total (Obs.spans obs))
                  (List.length span_events)));
    Alcotest.test_case "metrics_json reconciles with litterbox" `Quick (fun () ->
        let machine, _image, lb = boot_obs Lb.Vtx in
        drive_figure1 lb;
        let obs = machine.Machine.obs in
        match Json.parse (Export.metrics_json obs) with
        | Error e -> Alcotest.fail e
        | Ok doc ->
            let total name =
              Option.bind (Json.member "totals" doc) (fun t ->
                  Option.bind (Json.member name t) Json.to_int)
            in
            Alcotest.(check (option int))
              "switch total" (Some (Lb.switch_count lb)) (total "switch");
            Alcotest.(check (option int))
              "fault total" (Some (Lb.fault_count lb)) (total "fault"));
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
        let machine, _image, lb = Fixtures.boot Lb.Mpk in
        drive_figure1 lb;
        let obs = machine.Machine.obs in
        Alcotest.(check bool) "disabled" false (Obs.enabled obs);
        Alcotest.(check int) "no events" 0 (Obs.total_events obs);
        Alcotest.(check (list string)) "no scopes" []
          (Metrics.scopes (Obs.metrics obs));
        Alcotest.(check bool) "switches still counted" true
          (Lb.switch_count lb > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Property: Obs totals == LitterBox counters *)

type op = P_rcl | P_io | Epi | P_unknown | P_bad_site

let op_name = function
  | P_rcl -> "prolog rcl"
  | P_io -> "prolog io_enc"
  | Epi -> "epilog"
  | P_unknown -> "prolog unknown"
  | P_bad_site -> "prolog bad site"

let apply lb op =
  try
    match op with
    | P_rcl -> Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl"
    | P_io -> Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc"
    | Epi -> Lb.epilog lb ~site:"enclosure:rcl"
    | P_unknown -> Lb.prolog lb ~name:"nope" ~site:"enclosure:rcl"
    | P_bad_site -> Lb.prolog lb ~name:"rcl" ~site:"not-in-verif"
  with Lb.Fault _ -> ()

let ops_arb =
  QCheck.make
    ~print:(fun (backend, ops) ->
      Lb.backend_name backend ^ ": "
      ^ String.concat ", " (List.map op_name ops))
    QCheck.Gen.(
      pair
        (oneofl Fixtures.all_backends)
        (list_size (int_range 0 30)
           (oneofl [ P_rcl; P_io; Epi; P_unknown; P_bad_site ])))

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"obs totals match litterbox counters" ~count:30
         ops_arb
         (fun (backend, ops) ->
           let machine, _image, lb = boot_obs backend in
           List.iter (apply lb) ops;
           let m = Obs.metrics machine.Machine.obs in
           Metrics.total m "switch" = Lb.switch_count lb
           && Metrics.total m "fault" = Lb.fault_count lb));
  ]

let () =
  Alcotest.run "obs"
    [
      ("ring", ring_tests);
      ("hist", hist_tests);
      ("json", json_tests);
      ("export", exporter_tests);
      ("props", prop_tests);
    ]
