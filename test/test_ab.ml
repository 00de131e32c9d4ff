(* Tests of the A/B runner: claims of the bench's claim list pass on
   the real data, and the runner fails — naming the metric or
   the diverging summary line — when an expectation cannot be met, when
   a cost model inverts the overhead ordering, when the two sides
   enforce differently, and when a side measures nothing. *)

module Runtime = Encl_golike.Runtime
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net
module Scenarios = Encl_apps.Scenarios
module Ab = Encl_apps.Ab

let http = ("http", List.assoc "http" Scenarios.registry)

let run ?rcfg ?(requests = 80) ?(scenario = http) ~backend axis expect =
  match Ab.run ?rcfg ~requests ~expect ~scenario ~backend axis with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* Exactly one failure, and it mentions [needle]. *)
let fails_naming needle (t : Ab.t) =
  match t.Ab.failures with
  | [ f ] ->
      Alcotest.(check bool) (Printf.sprintf "%S names %s" f needle) true
        (Fixtures.contains f needle)
  | fs ->
      Alcotest.failf "expected one failure, got [%s]" (String.concat "; " fs)

let passes (t : Ab.t) =
  Alcotest.(check (list string)) "no failures" [] t.Ab.failures

let parse_tests =
  [
    Alcotest.test_case "axis and expectation syntax" `Quick (fun () ->
        let ok s = Result.is_ok (Ab.parse_axis s) in
        List.iter
          (fun s -> Alcotest.(check bool) s true (ok s))
          [
            "knob:fastpath"; "knob:sysring"; "backend:vtx,mpk";
            "backend:baseline,sfi"; "cores:4,1";
          ];
        List.iter
          (fun s -> Alcotest.(check bool) s false (ok s))
          [
            "knob:turbo"; "backend:vtx"; "backend:vtx,bogus"; "cores:0,1";
            "cores:4"; "speed:1,2"; "";
          ];
        (* A malformed expectation is refused before either side runs. *)
        List.iter
          (fun s ->
            match
              Ab.run ~expect:[ "req_per_sec:higher"; s ] ~scenario:http
                ~backend:None (Ab.Knob Knob.fastpath)
            with
            | Ok _ -> Alcotest.failf "%s accepted" s
            | Error e ->
                Alcotest.(check bool) ("names " ^ s) true
                  (Fixtures.contains e s))
          [
            "req_per_sec"; "req_per_sec:up"; "req_per_sec:higher:x";
            "m:lower:-1"; "m:lower:0"; "a:b:c:d";
          ]);
  ]

let runner_tests =
  [
    Alcotest.test_case "the sysring claim holds on LB_VTX" `Quick (fun () ->
        passes
          (run ~backend:(Some Lb.Vtx) (Ab.Knob Knob.sysring)
             [
               "req_per_sec:higher:1.15"; "vm_exits:lower"; "crossings:lower";
             ]));
    Alcotest.test_case "a ratio the data cannot meet fails" `Quick (fun () ->
        let t =
          run ~backend:(Some Lb.Vtx) (Ab.Knob Knob.sysring)
            [ "req_per_sec:higher:100" ]
        in
        fails_naming "req_per_sec:higher:100" t;
        (* The message carries the scenario, both sides and the ratio. *)
        let f = List.hd t.Ab.failures in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (Fixtures.contains f needle))
          [ "http"; "LB_VTX sysring=on"; "LB_VTX sysring=off"; "ratio" ]);
    Alcotest.test_case "inverted switch costs fail the overhead line" `Quick
      (fun () ->
        let line rcfg =
          run ?rcfg ~backend:None (Ab.Backends (Some Lb.Vtx, Some Lb.Mpk))
            [ "switch_share:higher" ]
        in
        passes (line None);
        (* An MPK switch pair dearer than VT-x's contradicts Table 1. *)
        let c = Costs.default in
        let inverted =
          {
            c with
            Costs.mpk_prolog = 2 * c.Costs.vtx_guest_syscall;
            mpk_epilog = 2 * c.Costs.vtx_guest_sysret;
          }
        in
        let rcfg = Runtime.with_backend Lb.Mpk in
        fails_naming "switch_share"
          (line (Some { rcfg with Runtime.costs = inverted })));
    Alcotest.test_case "diverging enforcement fails" `Quick (fun () ->
        (* Arm the fault injector on side A only: its handler enclosure
           faults and is quarantined, side B's never does. *)
        let chaos : Scenarios.runner =
         fun c ?rcfg ?requests () ->
          let rate = if Fastpath.enabled () then 0.2 else 0.0 in
          Scenarios.chaos_http c ?rcfg ?requests ~rate ()
        in
        let t =
          run ~scenario:("chaos_http", chaos) ~backend:(Some Lb.Mpk)
            (Ab.Knob Knob.fastpath) []
        in
        fails_naming "enforcement diverged" t;
        Alcotest.(check bool) "names the faults" true
          (Fixtures.contains (List.hd t.Ab.failures) "faults="));
    Alcotest.test_case "a side left unbalanced fails" `Quick (fun () ->
        (* After the run, trusted code takes an rx descriptor on a fresh
           connection and never consumes it, then queues a
           fire-and-forget call that stays pending on the syscall ring. *)
        let leaky : Scenarios.runner =
         fun c ?rcfg ?requests () ->
          Result.map
            (fun (rt, r) ->
              let net = (Runtime.machine rt).Machine.net in
              let sys call = Runtime.syscall_exn rt call in
              let srv = sys K.Socket in
              ignore (sys (K.Bind { fd = srv; port = 9099 }));
              ignore (sys (K.Listen srv));
              let client = Result.get_ok (Net.client_connect net ~port:9099) in
              let fd = sys (K.Accept srv) in
              ignore (Net.send net client (Bytes.of_string "leak"));
              ignore (sys (K.Recv_ring { fd }));
              Runtime.syscall_nowait rt K.Getpid;
              (rt, r))
            (Scenarios.zerocopy_http c ?rcfg ?requests ())
        in
        let t =
          run ~scenario:("zerocopy_http", leaky) ~backend:(Some Lb.Mpk)
            (Ab.Knob Knob.fastpath) []
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true
              (List.exists (fun f -> Fixtures.contains f needle) t.Ab.failures))
          [ "1 syscall-ring entries never drained"; "rx ring unbalanced" ]);
    Alcotest.test_case "a NaN metric fails every direction" `Quick (fun () ->
        let nan_http : Scenarios.runner =
         fun c ?rcfg ?requests () ->
          Result.map
            (fun (rt, r) ->
              let metrics = ("undefined", nan) :: r.Scenarios.metrics in
              (rt, { r with Scenarios.metrics }))
            (Scenarios.http c ?rcfg ?requests ())
        in
        let t =
          run ~scenario:("http", nan_http) ~backend:(Some Lb.Mpk)
            (Ab.Knob Knob.fastpath)
            [
              "undefined:higher"; "undefined:lower"; "undefined:higher:1";
              "undefined:lower:1";
            ]
        in
        Alcotest.(check int) "four failures" 4 (List.length t.Ab.failures));
    Alcotest.test_case "fewer requests than connections is refused" `Quick
      (fun () ->
        match
          Ab.run ~requests:4 ~scenario:http ~backend:(Some Lb.Mpk)
            (Ab.Knob Knob.sysring)
        with
        | Ok t ->
            Alcotest.failf "ran and measured %d requests"
              t.Ab.a.Ab.report.Scenarios.ops
        | Error e ->
            Alcotest.(check bool) ("names both numbers: " ^ e) true
              (Fixtures.contains e "4 requests"
              && Fixtures.contains e "8 connections"));
  ]

let () =
  Alcotest.run "ab" [ ("parse", parse_tests); ("runner", runner_tests) ]
