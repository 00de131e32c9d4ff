(* Tests for the simulated-SMP scheduler (sharded run queues, seeded
   work stealing, per-core environments).

   The core count may change what a run *costs* (lane totals, steal
   migrations, cache installs), never what it *does*: the enforcement
   oracle (oracle.ml) checks that over random op sequences on 1 to 6
   cores, and the property below with only the core count changed. The
   directed tests pin stealing, core affinity, per-core attribution and
   chaos on a sharded machine. *)

module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs
module Attrib = Encl_obs.Attrib
module Scenarios = Encl_apps.Scenarios

(* ------------------------------------------------------------------ *)
(* The differential property *)

(* The oracle's product with only the core count drawn, 2 to 6. *)
let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (Oracle.axis
         ~name:"the core count preserves enforcement outcomes" ~count:200
         QCheck.Gen.(
           map (fun cores -> { Oracle.reference with cores }) (int_range 2 6)));
  ]

(* ------------------------------------------------------------------ *)
(* Work stealing *)

let stealing_tests =
  [
    Alcotest.test_case "queued fibers migrate to idle cores" `Quick
      (fun () ->
        let rt = Oracle.boot ~cores:4 Lb.Mpk in
        let done_count = ref 0 in
        Runtime.run_main rt (fun () ->
            for _ = 1 to 16 do
              Runtime.go rt (fun () ->
                  Runtime.with_enclosure rt "io" (fun () ->
                      ignore (Runtime.syscall rt K.Getuid));
                  incr done_count)
            done);
        let sched = Runtime.sched rt in
        Alcotest.(check int) "every fiber ran" 16 !done_count;
        Alcotest.(check bool) "idle cores stole work" true
          (Sched.steal_count sched > 0);
        Alcotest.(check int) "per-core tallies sum"
          (Sched.steal_count sched)
          (Array.fold_left ( + ) 0 (Sched.steals_by_core sched)));
    Alcotest.test_case "a lone fiber never migrates" `Quick (fun () ->
        let rt = Oracle.boot ~cores:4 Lb.Mpk in
        Runtime.run_main rt (fun () ->
            Runtime.go rt (fun () ->
                for _ = 1 to 20 do
                  Runtime.with_enclosure rt "enc" (fun () -> ());
                  Runtime.yield rt
                done));
        Alcotest.(check int) "no steals" 0
          (Sched.steal_count (Runtime.sched rt)));
    Alcotest.test_case "no fiber starves under affinity overtaking" `Quick
      (fun () ->
        (* One "enc"-bound fiber among many "io"-bound ones: affinity
           scheduling may overtake it, but the per-core starvation
           budget (8 in a row) guarantees it still runs to completion
           in a bounded schedule. *)
        let rt = Oracle.boot ~cores:2 Lb.Mpk in
        let minority_done = ref false in
        Runtime.run_main rt (fun () ->
            Runtime.go rt (fun () ->
                Runtime.with_enclosure rt "enc" (fun () -> ());
                minority_done := true);
            for _ = 1 to 24 do
              Runtime.go rt (fun () ->
                  Runtime.with_enclosure rt "io" (fun () ->
                      ignore (Runtime.syscall rt K.Getuid)))
            done);
        Alcotest.(check bool) "the minority fiber completed" true
          !minority_done);
  ]

(* ------------------------------------------------------------------ *)
(* Core affinity on the http workload *)

let affinity_tests =
  [
    Alcotest.test_case
      "environment switches do not grow with the core count" `Quick
      (fun () ->
        (* Each core keeps its own installed environment (PKRU, CR3,
           TLB), so spreading same-enclosure request fibers over more
           cores must not multiply Execute switches — enclosure
           affinity became core affinity. Faults and syscall totals
           must not move at all. *)
        let scenario : Scenarios.runner =
         fun c ?rcfg ?requests () ->
          Scenarios.smp_http c ?rcfg ?requests ~conns:16 ()
        in
        match
          Encl_apps.Ab.run ~requests:128 ~scenario:("smp_http", scenario)
            ~backend:(Some Lb.Mpk) (Encl_apps.Ab.Cores (4, 1))
        with
        | Error e -> Alcotest.fail e
        | Ok { Encl_apps.Ab.a = four; b = one; failures; _ } ->
            (* The runner compares the enforcement summaries: served
               requests, workload syscalls and faults. *)
            Alcotest.(check (list string)) "enforcement identical" [] failures;
            let switches side =
              Sched.switch_count (Runtime.sched side.Encl_apps.Ab.rt)
            in
            Alcotest.(check bool)
              (Printf.sprintf "switches at 4 cores (%d) <= at 1 core (%d)"
                 (switches four) (switches one))
              true
              (switches four <= switches one);
            let wall side = side.Encl_apps.Ab.report.Scenarios.wall_ns in
            Alcotest.(check bool) "4 cores actually parallelize" true
              (wall four < wall one));
  ]

(* ------------------------------------------------------------------ *)
(* Per-core attribution *)

let attribution_tests =
  [
    Alcotest.test_case "conservation holds per core and in total" `Quick
      (fun () ->
        let saved = !Obs.default_enabled in
        Obs.default_enabled := true;
        Fun.protect ~finally:(fun () -> Obs.default_enabled := saved)
        @@ fun () ->
        let rt =
          match
            Scenarios.smp_http (Some Lb.Mpk) ~cores:4 ~requests:64 ~conns:8 ()
          with
          | Ok (rt, _) -> rt
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check int) "ran on 4 cores" 4
          (Runtime.machine rt).Machine.cores;
        let attrib = Obs.attribution (Runtime.machine rt).Machine.obs in
        Alcotest.(check int) "one ledger per core" 4
          (Attrib.core_count attrib);
        Alcotest.(check bool) "machine-wide conservation" true
          (Attrib.conserved attrib);
        let core_sum = ref 0 in
        for core = 0 to Attrib.core_count attrib - 1 do
          let cells = Attrib.core_cells attrib core in
          let cell_sum =
            List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 cells
          in
          Alcotest.(check int)
            (Printf.sprintf "core %d cells sum to its total" core)
            (Attrib.core_total attrib core)
            cell_sum;
          core_sum := !core_sum + cell_sum
        done;
        Alcotest.(check int) "core totals sum to the machine total"
          (Attrib.total attrib) !core_sum);
  ]

(* ------------------------------------------------------------------ *)
(* Chaos on a sharded machine *)

let chaos_tests =
  [
    Alcotest.test_case "4-core chaos stays available and deterministic"
      `Slow (fun () ->
        let run () =
          let rcfg =
            { (Runtime.with_backend Lb.Mpk) with Runtime.cores = 4 }
          in
          match Scenarios.chaos_http (Some Lb.Mpk) ~rcfg () with
          | Ok (_rt, r) -> r
          | Error e -> Alcotest.fail e
        in
        let a = run () and b = run () in
        Alcotest.(check string) "same-seed reruns identical"
          (Scenarios.pp_chaos_result a)
          (Scenarios.pp_chaos_result b);
        let availability = Scenarios.metric a "availability" in
        Alcotest.(check bool)
          (Printf.sprintf "availability %.3f >= 0.9" availability)
          true (availability >= 0.9);
        Alcotest.(check bool) "faults were injected" true
          (Scenarios.metric a "injected" > 0.));
  ]

let () =
  Alcotest.run "smp"
    [
      ("differential", differential_tests);
      ("work-stealing", stealing_tests);
      ("core-affinity", affinity_tests);
      ("attribution", attribution_tests);
      ("chaos", chaos_tests);
    ]
