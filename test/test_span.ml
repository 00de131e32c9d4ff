(* Tests of causal spans, the attribution ledger, the profile exporters
   and the bench regression gate: unit tests of the span stack, qcheck
   properties that closed spans stay well-nested and that the ledger
   conserves every simulated nanosecond under random operation
   sequences and whole scenarios, the flamegraph artifact's weights
   against the ledger, and the gate's
   pass/fail behaviour — including the "inflate a switch cost 2x and
   the gate fires" check. *)

module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Attrib = Encl_obs.Attrib
module Export = Encl_obs.Export
module Json = Encl_obs.Export.Json
module Gate = Encl_obs.Gate
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Scenarios = Encl_apps.Scenarios
module Runtime = Encl_golike.Runtime

let boot_obs backend =
  Obs.default_enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.default_enabled := false)
    (fun () -> Fixtures.boot backend)

let run_obs name backend ?requests () =
  Obs.default_enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.default_enabled := false)
    (fun () ->
      match
        Result.bind (Scenarios.find name) (fun run -> run backend ?requests ())
      with
      | Ok (rt, _report) -> Runtime.machine rt
      | Error e -> failwith ("scenario failed: " ^ e))

(* ------------------------------------------------------------------ *)
(* Span stack *)

let fake_clock () =
  let t = ref 0 in
  (t, fun () -> !t)

let span_tests =
  [
    Alcotest.test_case "children carry parent ids" `Quick (fun () ->
        let t, now = fake_clock () in
        let s = Span.create ~now () in
        let a = Span.enter s ~lane:"e" ~name:"outer" ~category:Span.Prolog in
        t := 10;
        let b = Span.enter s ~lane:"e" ~name:"inner" ~category:Span.Seccomp in
        Alcotest.(check int) "depth" 2 (Span.depth s);
        t := 15;
        Span.exit s b;
        t := 20;
        Span.exit s a;
        match Span.closed s with
        | [ inner; outer ] ->
            Alcotest.(check (option int)) "inner parent" (Some a) inner.Span.parent;
            Alcotest.(check (option int)) "outer parent" None outer.Span.parent;
            Alcotest.(check int) "inner start" 10 inner.Span.start;
            Alcotest.(check int) "inner stop" 15 inner.Span.stop;
            Alcotest.(check int) "outer stop" 20 outer.Span.stop
        | l -> Alcotest.failf "expected 2 closed spans, got %d" (List.length l));
    Alcotest.test_case "exit closes abandoned children" `Quick (fun () ->
        let _t, now = fake_clock () in
        let s = Span.create ~now () in
        let a = Span.enter s ~lane:"e" ~name:"a" ~category:Span.User in
        let _b = Span.enter s ~lane:"e" ~name:"b" ~category:Span.User in
        let _c = Span.enter s ~lane:"e" ~name:"c" ~category:Span.User in
        Span.exit s a;
        Alcotest.(check int) "stack empty" 0 (Span.depth s);
        Alcotest.(check int) "all closed" 3 (List.length (Span.closed s)));
    Alcotest.test_case "unknown ids are ignored" `Quick (fun () ->
        let _t, now = fake_clock () in
        let s = Span.create ~now () in
        Span.exit s 42;
        Span.exit s (-1);
        Alcotest.(check int) "nothing closed" 0 (List.length (Span.closed s)));
    Alcotest.test_case "mark is a zero-duration child" `Quick (fun () ->
        let t, now = fake_clock () in
        let s = Span.create ~now () in
        let a = Span.enter s ~lane:"e" ~name:"slice" ~category:Span.User in
        t := 7;
        Span.mark s ~lane:"e" ~name:"fault" ~category:Span.Fault;
        Span.exit s a;
        let m = List.hd (Span.closed s) in
        Alcotest.(check int) "start" 7 m.Span.start;
        Alcotest.(check int) "stop" 7 m.Span.stop;
        Alcotest.(check (option int)) "parented" (Some a) m.Span.parent);
    Alcotest.test_case "close counts survive ring eviction" `Quick (fun () ->
        let _t, now = fake_clock () in
        let s = Span.create ~capacity:4 ~now () in
        for _ = 1 to 10 do
          let id = Span.enter s ~lane:"e" ~name:"x" ~category:Span.Sched in
          Span.exit s id
        done;
        Alcotest.(check int) "retained" 4 (List.length (Span.closed s));
        Alcotest.(check int) "dropped" 6 (Span.dropped s);
        Alcotest.(check int) "total" 10 (Span.total s);
        Alcotest.(check int) "sched closes exact" 10
          (Span.close_count s Span.Sched));
  ]

(* ------------------------------------------------------------------ *)
(* Attribution ledger *)

let attrib_tests =
  [
    Alcotest.test_case "cells sort by size then name" `Quick (fun () ->
        let t, now = fake_clock () in
        let a = Attrib.create ~now () in
        Attrib.charge a ~scope:"e1" ~category:"user" ~stack:"e1;user" 5;
        Attrib.charge a ~scope:"e2" ~category:"prolog" ~stack:"e2;p" 10;
        Attrib.charge a ~scope:"e1" ~category:"user" ~stack:"e1;user" 5;
        t := 20;
        Alcotest.(check bool) "conserved" true (Attrib.conserved a);
        Alcotest.(check (list (triple string string int)))
          "cells"
          [ ("e1", "user", 10); ("e2", "prolog", 10) ]
          (Attrib.cells a);
        Alcotest.(check int) "scope total" 10 (Attrib.scope_total a "e1");
        Alcotest.(check int) "category total" 10 (Attrib.category_total a "user"));
    Alcotest.test_case "zero charges are dropped" `Quick (fun () ->
        let _t, now = fake_clock () in
        let a = Attrib.create ~now () in
        Attrib.charge a ~scope:"e" ~category:"user" ~stack:"e" 0;
        Alcotest.(check (list (triple string string int))) "no cells" []
          (Attrib.cells a));
    Alcotest.test_case "clear re-epochs" `Quick (fun () ->
        let t, now = fake_clock () in
        let a = Attrib.create ~now () in
        Attrib.charge a ~scope:"e" ~category:"user" ~stack:"e" 3;
        t := 3;
        Attrib.clear a;
        t := 8;
        Attrib.charge a ~scope:"e" ~category:"user" ~stack:"e" 5;
        Alcotest.(check int) "elapsed from new epoch" 5 (Attrib.elapsed a);
        Alcotest.(check bool) "conserved" true (Attrib.conserved a));
  ]

(* ------------------------------------------------------------------ *)
(* Properties: well-nestedness + conservation under random ops *)

type op = P_rcl | P_io | Epi | P_unknown | P_bad_site | Sys_getuid

let op_name = function
  | P_rcl -> "prolog rcl"
  | P_io -> "prolog io_enc"
  | Epi -> "epilog"
  | P_unknown -> "prolog unknown"
  | P_bad_site -> "prolog bad site"
  | Sys_getuid -> "syscall getuid"

let apply lb op =
  try
    match op with
    | P_rcl -> Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl"
    | P_io -> Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc"
    | Epi -> Lb.epilog lb ~site:"enclosure:rcl"
    | P_unknown -> Lb.prolog lb ~name:"nope" ~site:"enclosure:rcl"
    | P_bad_site -> Lb.prolog lb ~name:"rcl" ~site:"not-in-verif"
    | Sys_getuid -> ignore (Lb.syscall lb K.Getuid)
  with Lb.Fault _ | K.Syscall_killed _ -> ()

let ops_arb =
  QCheck.make
    ~print:(fun (backend, ops) ->
      Lb.backend_name backend ^ ": "
      ^ String.concat ", " (List.map op_name ops))
    QCheck.Gen.(
      pair
        (oneofl Fixtures.all_backends)
        (list_size (int_range 0 30)
           (oneofl [ P_rcl; P_io; Epi; P_unknown; P_bad_site; Sys_getuid ])))

(* Any two closed spans either nest or are disjoint, and every retained
   child lies inside its retained parent's interval. *)
let well_nested spans =
  let arr = Array.of_list spans in
  let ok = ref true in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let x = arr.(i) and y = arr.(j) in
      (* [a] is the outer candidate: earlier start, longer interval on a
         tie (parent and child may open on the same tick). *)
      let a, b =
        if
          x.Span.start < y.Span.start
          || (x.Span.start = y.Span.start && x.Span.stop >= y.Span.stop)
        then (x, y)
        else (y, x)
      in
      let nested = b.Span.stop <= a.Span.stop in
      let disjoint = b.Span.start >= a.Span.stop in
      if not (nested || disjoint) then ok := false
    done
  done;
  !ok

let parents_contain spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  List.for_all
    (fun s ->
      match s.Span.parent with
      | None -> true
      | Some pid -> (
          match Hashtbl.find_opt by_id pid with
          | None -> true (* parent evicted from the ring *)
          | Some p -> p.Span.start <= s.Span.start && s.Span.stop <= p.Span.stop))
    spans

let conservation machine =
  let a = Obs.attribution machine.Machine.obs in
  Attrib.conserved a && Attrib.elapsed a = Clock.now machine.Machine.clock

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"closed spans stay well-nested" ~count:30 ops_arb
         (fun (backend, ops) ->
           let machine, _image, lb = boot_obs backend in
           List.iter (apply lb) ops;
           let spans = Span.closed (Obs.spans machine.Machine.obs) in
           well_nested spans && parents_contain spans
           && Span.depth (Obs.spans machine.Machine.obs) = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ledger conserves every nanosecond" ~count:30
         ops_arb
         (fun (backend, ops) ->
           let machine, _image, lb = boot_obs backend in
           List.iter (apply lb) ops;
           conservation machine));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"scenarios conserve across seeds" ~count:6
         (QCheck.make
            ~print:(fun (name, requests) ->
              Printf.sprintf "%s requests=%d" name requests)
            QCheck.Gen.(
              pair (oneofl [ "http"; "wiki" ]) (int_range 20 120)))
         (fun (name, requests) ->
           let machine = run_obs name (Some Lb.Mpk) ~requests () in
           let spans = Span.closed (Obs.spans machine.Machine.obs) in
           conservation machine && well_nested spans));
  ]

(* ------------------------------------------------------------------ *)
(* Artifact round-trips *)

let folded_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.rindex_opt l ' ' with
         | None -> Alcotest.failf "folded line without weight: %S" l
         | Some i ->
             ( String.sub l 0 i,
               int_of_string (String.sub l (i + 1) (String.length l - i - 1)) ))

let roundtrip_tests =
  [
    Alcotest.test_case "flamegraph weights sum to the ledger" `Quick (fun () ->
        let machine = run_obs "http" (Some Lb.Vtx) ~requests:200 () in
        let obs = machine.Machine.obs in
        let lines = folded_lines (Export.flamegraph_folded obs) in
        Alcotest.(check bool) "has stacks" true (lines <> []);
        let sum = List.fold_left (fun acc (_, w) -> acc + w) 0 lines in
        Alcotest.(check int) "sum" (Attrib.total (Obs.attribution obs)) sum;
        List.iter
          (fun (stack, w) ->
            if w <= 0 then Alcotest.failf "non-positive weight on %S" stack)
          lines);
  ]

(* ------------------------------------------------------------------ *)
(* Bench gate *)

let row workload backend metric value =
  { Gate.workload; backend; metric; value }

let doc ?(quick = true) rows = { Gate.quick; rows }

(* Simulated cost of one MPK prolog+epilog pair under the given cost
   table — the gate must notice when a cost constant is inflated. *)
let switch_pair_ns costs =
  let machine = Machine.create ~costs () in
  let image = Fixtures.figure1_image () in
  match Lb.init ~machine ~backend:Lb.Mpk ~image () with
  | Error e -> failwith ("init failed: " ^ e)
  | Ok lb ->
      let t0 = Clock.now machine.Machine.clock in
      Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
      Lb.epilog lb ~site:"enclosure:rcl";
      Clock.now machine.Machine.clock - t0

let gate_tests =
  [
    Alcotest.test_case "metric rules" `Quick (fun () ->
        let dir m = (Gate.rule_for m).Gate.direction in
        Alcotest.(check bool) "req_per_sec higher" true
          (dir "req_per_sec" = Gate.Higher_better);
        Alcotest.(check bool) "call_ns lower" true
          (dir "call_ns" = Gate.Lower_better);
        Alcotest.(check bool) "slowdown lower" true
          (dir "conservative_slowdown" = Gate.Lower_better);
        Alcotest.(check bool) "counts informational" true
          (dir "reconnects" = Gate.Informational));
    Alcotest.test_case "parse_doc round-trips bench rows" `Quick (fun () ->
        let text =
          Json.to_string
            (Json.Obj
               [
                 ("quick", Json.Bool true);
                 ( "rows",
                   Json.List
                     [
                       Json.Obj
                         [
                           ("workload", Json.String "http");
                           ("backend", Json.String "LB_MPK");
                           ("metric", Json.String "req_per_sec");
                           ("value", Json.Float 123.5);
                           ("paper", Json.Null);
                         ];
                     ] );
               ])
        in
        match Gate.parse_doc text with
        | Error e -> Alcotest.fail e
        | Ok d ->
            Alcotest.(check bool) "quick" true d.Gate.quick;
            Alcotest.(check int) "rows" 1 (List.length d.Gate.rows);
            let r = List.hd d.Gate.rows in
            Alcotest.(check string) "key" "http/LB_MPK/req_per_sec" (Gate.key r));
    Alcotest.test_case "identical docs pass" `Quick (fun () ->
        let d = doc [ row "http" "LB_MPK" "req_per_sec" 100.0 ] in
        let report = Gate.compare_docs ~baseline:d ~fresh:d in
        Alcotest.(check bool) "not failed" false (Gate.failed report));
    Alcotest.test_case "2x cost inflation fires the gate" `Quick (fun () ->
        let base = switch_pair_ns Costs.default in
        let inflated =
          switch_pair_ns
            {
              Costs.default with
              Costs.mpk_prolog = 2 * Costs.default.Costs.mpk_prolog;
              Costs.mpk_epilog = 2 * Costs.default.Costs.mpk_epilog;
            }
        in
        Alcotest.(check bool) "inflation visible" true (inflated > base);
        let baseline =
          doc [ row "micro" "LB_MPK" "switch_pair_ns" (float_of_int base) ]
        in
        let fresh =
          doc [ row "micro" "LB_MPK" "switch_pair_ns" (float_of_int inflated) ]
        in
        let report = Gate.compare_docs ~baseline ~fresh in
        Alcotest.(check bool) "failed" true (Gate.failed report);
        (match (List.hd report.Gate.findings).Gate.verdict with
        | Gate.Regressed d ->
            Alcotest.(check bool) "roughly doubled" true (d > 0.5)
        | _ -> Alcotest.fail "expected Regressed");
        (* Unchanged costs stay green. *)
        let same =
          doc [ row "micro" "LB_MPK" "switch_pair_ns" (float_of_int base) ]
        in
        Alcotest.(check bool) "unchanged passes" false
          (Gate.failed (Gate.compare_docs ~baseline ~fresh:same)));
    Alcotest.test_case "missing baseline row fails" `Quick (fun () ->
        let baseline = doc [ row "http" "LB_MPK" "req_per_sec" 100.0 ] in
        let fresh = doc [] in
        let report = Gate.compare_docs ~baseline ~fresh in
        Alcotest.(check bool) "failed" true (Gate.failed report);
        Alcotest.(check bool) "missing verdict" true
          ((List.hd report.Gate.findings).Gate.verdict = Gate.Missing));
    Alcotest.test_case "new unbaselined row fails" `Quick (fun () ->
        let baseline = doc [ row "http" "LB_MPK" "req_per_sec" 100.0 ] in
        let fresh =
          doc
            [
              row "http" "LB_MPK" "req_per_sec" 101.0;
              row "http" "LB_VTX" "req_per_sec" 50.0;
            ]
        in
        let report = Gate.compare_docs ~baseline ~fresh in
        Alcotest.(check bool) "failed" true (Gate.failed report);
        Alcotest.(check int) "one new row" 1 (List.length report.Gate.new_rows));
    Alcotest.test_case "quick mismatch fails" `Quick (fun () ->
        let baseline = doc ~quick:true [] in
        let fresh = doc ~quick:false [] in
        Alcotest.(check bool) "failed" true
          (Gate.failed (Gate.compare_docs ~baseline ~fresh)));
    Alcotest.test_case "improvements never fail" `Quick (fun () ->
        let baseline = doc [ row "table1" "LB_MPK" "call_ns" 100.0 ] in
        let fresh = doc [ row "table1" "LB_MPK" "call_ns" 50.0 ] in
        let report = Gate.compare_docs ~baseline ~fresh in
        Alcotest.(check bool) "not failed" false (Gate.failed report);
        match (List.hd report.Gate.findings).Gate.verdict with
        | Gate.Improved _ -> ()
        | _ -> Alcotest.fail "expected Improved");
  ]

let () =
  Alcotest.run "span"
    [
      ("span", span_tests);
      ("attrib", attrib_tests);
      ("props", prop_tests);
      ("roundtrip", roundtrip_tests);
      ("gate", gate_tests);
    ]
