(* Tests for the simulated-SMP scheduler (sharded run queues, seeded
   work stealing, per-core environments).

   The core property is differential, the same shape as test_sysring:
   the core count may change what a run *costs* (lane totals, steal
   migrations, cache installs), never what it *does*. Random op
   sequences — enclosure calls, allowed and denied syscalls, fiber
   rounds, supervised kills — are executed on a 1-core machine and on
   an N-core machine (N random in 2..6), on every backend, and every
   enforcement outcome (results and errnos, fault log, fault and kill
   counts, quarantine state) must be identical. *)

module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs
module Attrib = Encl_obs.Attrib
module Scenarios = Encl_apps.Scenarios

let packages () =
  [
    Runtime.package "main" ~imports:[ "lib" ]
      ~functions:[ ("main", 64); ("body", 32); ("io_body", 32) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "enc";
            enc_policy = "; sys=none";
            enc_closure = "body";
            enc_deps = [ "lib" ];
          };
          {
            Encl_elf.Objfile.enc_name = "io";
            enc_policy = "img:U; sys=all";
            enc_closure = "io_body";
            enc_deps = [ "lib" ];
          };
        ]
      ();
    Runtime.package "lib" ~imports:[ "img" ] ~functions:[ ("work", 64) ] ();
    Runtime.package "img" ~functions:[ ("decode", 64) ] ();
  ]

let boot backend ~cores =
  let rcfg = { (Runtime.with_backend backend) with Runtime.cores } in
  match Runtime.boot rcfg ~packages:(packages ()) ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith ("test_smp boot: " ^ e)

(* ------------------------------------------------------------------ *)
(* The differential property *)

type op =
  | Call_empty  (** enter/leave the sys=none enclosure *)
  | Io_call  (** getuid from inside sys=all *)
  | Denied_call  (** getuid from inside sys=none *)
  | Fiber_round of int  (** n fibers, each doing one enclosed syscall *)
  | Mixed_round of int
      (** n fibers alternating between the two enclosures — the case
          where core affinity actually reorders picks *)
  | Supervised_denied  (** a supervised fiber killed by a denied entry *)

let op_name = function
  | Call_empty -> "call_empty"
  | Io_call -> "io_call"
  | Denied_call -> "denied_call"
  | Fiber_round n -> Printf.sprintf "fiber_round:%d" n
  | Mixed_round n -> Printf.sprintf "mixed_round:%d" n
  | Supervised_denied -> "supervised_denied"

(* Run one op, returning a stable outcome string. Fault-family
   exceptions are observable behaviour: their descriptions must match
   between the 1-core and N-core runs. Fiber results are collected per
   fiber index, so the outcome never depends on scheduling order —
   which the core count is free to change. *)
let run_op rt op =
  let result = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error e -> "errno:" ^ K.errno_name e
  in
  match
    match op with
    | Call_empty ->
        Runtime.with_enclosure rt "enc" (fun () -> ());
        "ok"
    | Io_call ->
        Runtime.with_enclosure rt "io" (fun () ->
            result (Runtime.syscall rt K.Getuid))
    | Denied_call ->
        Runtime.with_enclosure rt "enc" (fun () ->
            result (Runtime.syscall rt K.Getuid))
    | Fiber_round n ->
        let slots = Array.make n "unscheduled" in
        for i = 0 to n - 1 do
          Runtime.go rt (fun () ->
              slots.(i) <-
                Runtime.with_enclosure rt "io" (fun () ->
                    result (Runtime.syscall rt K.Getuid)))
        done;
        Runtime.kick rt;
        "fibers:" ^ String.concat "," (Array.to_list slots)
    | Mixed_round n ->
        let slots = Array.make n "unscheduled" in
        for i = 0 to n - 1 do
          Runtime.go rt (fun () ->
              slots.(i) <-
                (if i mod 2 = 0 then
                   Runtime.with_enclosure rt "io" (fun () ->
                       result (Runtime.syscall rt K.Getuid))
                 else (
                   Runtime.with_enclosure rt "enc" (fun () -> ());
                   "ok")))
        done;
        Runtime.kick rt;
        "mixed:" ^ String.concat "," (Array.to_list slots)
    | Supervised_denied -> (
        let id =
          Runtime.go_supervised rt (fun () ->
              Runtime.with_enclosure rt "enc" (fun () ->
                  ignore (Runtime.syscall rt K.Getuid)))
        in
        Runtime.kick rt;
        match Runtime.fiber_result rt id with
        | Some Sched.Finished -> "fiber:finished"
        | Some (Sched.Killed reason) -> "fiber:killed:" ^ reason
        | None -> "fiber:running")
  with
  | outcome -> outcome
  | exception Lb.Fault { reason; _ } -> "fault:" ^ reason
  | exception Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure

type outcome = {
  o_results : string list;
  o_faults : int;
  o_fault_log : string list;
  o_kills : int;
  o_quarantined : bool * bool;  (** enc, io *)
}

let run_ops backend ~cores ops =
  let rt = boot backend ~cores in
  let lb = Option.get (Runtime.lb rt) in
  Lb.set_fault_budget lb 3;
  let results = List.map (run_op rt) ops in
  let sched = Runtime.sched rt in
  if Sched.core_count sched <> cores then
    QCheck.Test.fail_reportf "scheduler shards %d cores, asked for %d"
      (Sched.core_count sched) cores;
  if cores = 1 && Sched.steal_count sched <> 0 then
    QCheck.Test.fail_reportf "a 1-core machine stole %d fibers"
      (Sched.steal_count sched);
  if Array.fold_left ( + ) 0 (Sched.steals_by_core sched)
     <> Sched.steal_count sched
  then QCheck.Test.fail_reportf "per-core steal tallies do not sum";
  {
    o_results = results;
    o_faults = Lb.fault_count lb;
    o_fault_log = Lb.fault_log lb;
    o_kills = Sched.kill_count sched;
    o_quarantined = (Lb.quarantined lb "enc", Lb.quarantined lb "io");
  }

let pp_outcome o =
  Printf.sprintf "results=[%s] faults=%d log=[%s] kills=%d quar=(%b,%b)"
    (String.concat "; " o.o_results)
    o.o_faults
    (String.concat "; " o.o_fault_log)
    o.o_kills (fst o.o_quarantined) (snd o.o_quarantined)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Call_empty);
        (3, return Io_call);
        (2, return Denied_call);
        (3, map (fun n -> Fiber_round n) (int_range 1 8));
        (3, map (fun n -> Mixed_round n) (int_range 2 8));
        (1, return Supervised_denied);
      ])

let backend_gen = QCheck.Gen.oneofl Fixtures.all_backends

let scenario_arb =
  QCheck.make
    ~print:(fun (backend, cores, ops) ->
      Printf.sprintf "%s @ %d cores: %s"
        (Lb.backend_name backend)
        cores
        (String.concat ", " (List.map op_name ops)))
    QCheck.Gen.(
      triple backend_gen (int_range 2 6)
        (list_size (int_range 1 24) op_gen))

let differential_prop (backend, cores, ops) =
  let single = run_ops backend ~cores:1 ops in
  let sharded = run_ops backend ~cores ops in
  if single <> sharded then
    QCheck.Test.fail_reportf
      "outcomes diverged:\n  1 core:  %s\n  %d cores: %s" (pp_outcome single)
      cores (pp_outcome sharded);
  true

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"the core count preserves enforcement outcomes" ~count:200
         scenario_arb differential_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Work stealing *)

let stealing_tests =
  [
    Alcotest.test_case "queued fibers migrate to idle cores" `Quick
      (fun () ->
        let rt = boot Lb.Mpk ~cores:4 in
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
        let rt = boot Lb.Mpk ~cores:4 in
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
        let rt = boot Lb.Mpk ~cores:2 in
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
