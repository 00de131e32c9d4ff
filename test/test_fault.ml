(* Tests of the robustness layer: the deterministic fault injector
   (stream determinism, per-point independence, plans), enclosure
   quarantine (budget crossing, fail-fast Prolog, unquarantine),
   supervised-fiber reaping and the deadlock detector, the chaos
   scenarios' input and fault-accounting checks, and qcheck properties
   reconciling injector fires with the registry's counters. *)

module Fault = Encl_fault.Fault
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs
module Metrics = Encl_obs.Metrics
module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Channel = Encl_golike.Channel
module Scenarios = Encl_apps.Scenarios

(* ------------------------------------------------------------------ *)
(* Injector *)

let armed ?(seed = 7L) ?prob ?max_fires ?env_prefix point =
  let inj = Fault.create ~seed () in
  Fault.register inj ~point ~doc:"test point";
  Fault.arm inj (Fault.rule ?prob ?max_fires ?env_prefix point);
  inj

let sequence inj ?(env = "trusted") point n =
  List.init n (fun _ -> Fault.fires inj ~env point)

let injector_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = sequence (armed ~prob:0.3 "p") "p" 200 in
        let b = sequence (armed ~prob:0.3 "p") "p" 200 in
        Alcotest.(check (list bool)) "identical" a b;
        Alcotest.(check bool) "some fired" true (List.mem true a);
        Alcotest.(check bool) "some held" true (List.mem false a));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = sequence (armed ~seed:1L ~prob:0.5 "p") "p" 200 in
        let b = sequence (armed ~seed:2L ~prob:0.5 "p") "p" 200 in
        Alcotest.(check bool) "streams differ" true (a <> b));
    Alcotest.test_case "set_seed resets to a pristine stream" `Quick (fun () ->
        let inj = armed ~prob:0.3 "p" in
        let a = sequence inj "p" 100 in
        Fault.set_seed inj 7L;
        Alcotest.(check int) "fired reset" 0 (Fault.fired inj "p");
        Alcotest.(check int) "consulted reset" 0 (Fault.consulted inj "p");
        Alcotest.(check (list (pair string string))) "log reset" [] (Fault.log inj);
        let b = sequence inj "p" 100 in
        Alcotest.(check (list bool)) "replayed" a b);
    Alcotest.test_case "streams are per-point independent" `Quick (fun () ->
        (* Consulting a second armed point must not perturb the first
           point's stream. *)
        let alone = sequence (armed ~prob:0.4 "a") "a" 100 in
        let inj = armed ~prob:0.4 "a" in
        Fault.register inj ~point:"b" ~doc:"noise";
        Fault.arm inj (Fault.rule ~prob:0.9 "b");
        let interleaved =
          List.init 100 (fun _ ->
              ignore (Fault.fires inj ~env:"trusted" "b");
              Fault.fires inj ~env:"trusted" "a")
        in
        Alcotest.(check (list bool)) "a unchanged" alone interleaved);
    Alcotest.test_case "max_fires caps the point" `Quick (fun () ->
        let inj = armed ~prob:1.0 ~max_fires:3 "p" in
        let seq = sequence inj "p" 10 in
        Alcotest.(check int) "fired" 3 (Fault.fired inj "p");
        Alcotest.(check int) "consulted" 10 (Fault.consulted inj "p");
        Alcotest.(check (list bool)) "first three"
          [ true; true; true ]
          (List.filteri (fun i _ -> i < 3) seq);
        Alcotest.(check bool) "then quiet" false
          (List.exists Fun.id (List.filteri (fun i _ -> i >= 3) seq)));
    Alcotest.test_case "env prefix gates firing" `Quick (fun () ->
        let inj = armed ~prob:1.0 ~env_prefix:"enc:" "p" in
        Alcotest.(check bool) "trusted misses" false
          (Fault.fires inj ~env:"trusted" "p");
        Alcotest.(check int) "mismatch not consulted" 0 (Fault.consulted inj "p");
        Alcotest.(check bool) "enclosure hits" true
          (Fault.fires inj ~env:"enc:rcl" "p");
        Alcotest.(check (list (pair string string))) "log records env"
          [ ("p", "enc:rcl") ]
          (Fault.log inj));
    Alcotest.test_case "unarmed and disarmed points never fire" `Quick (fun () ->
        let inj = Fault.create () in
        Fault.register inj ~point:"p" ~doc:"";
        Alcotest.(check bool) "inactive injector" false (Fault.active inj);
        Alcotest.(check bool) "unarmed" false (Fault.fires inj ~env:"e" "p");
        Fault.arm inj (Fault.rule ~prob:1.0 "p");
        Alcotest.(check bool) "armed" true (Fault.fires inj ~env:"e" "p");
        Fault.disarm inj "p";
        Alcotest.(check bool) "disarmed" false (Fault.fires inj ~env:"e" "p"));
    Alcotest.test_case "parse_plan accepts the documented forms" `Quick (fun () ->
        match Fault.parse_plan "a:0.5,b:1.0:max=3:env=enc:" with
        | Error e -> Alcotest.fail e
        | Ok [ ra; rb ] ->
            Alcotest.(check string) "a point" "a" ra.Fault.r_point;
            Alcotest.(check (float 1e-9)) "a prob" 0.5 ra.Fault.r_prob;
            Alcotest.(check (option int)) "b max" (Some 3) rb.Fault.r_max_fires;
            Alcotest.(check (option string)) "b env" (Some "enc:")
              rb.Fault.r_env_prefix
        | Ok _ -> Alcotest.fail "expected two rules");
    Alcotest.test_case "parse_plan rejects junk" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Fault.parse_plan spec with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("accepted: " ^ spec))
          [ "a:2.0"; "a:-0.1"; "a:0.5:bogus=1"; ":0.5"; "a:notafloat" ]);
    Alcotest.test_case "on_fire sees every fire" `Quick (fun () ->
        let inj = armed ~prob:0.5 "p" in
        let seen = ref 0 in
        Fault.on_fire inj (fun ~point ~env ->
            Alcotest.(check string) "point" "p" point;
            Alcotest.(check string) "env" "trusted" env;
            incr seen);
        ignore (sequence inj "p" 200);
        Alcotest.(check int) "callback count" (Fault.total_fired inj) !seen;
        Alcotest.(check int) "log length" (Fault.total_fired inj)
          (List.length (Fault.log inj)));
  ]

(* ------------------------------------------------------------------ *)
(* Quarantine *)

(* One enclosure fault in rcl: sys=none, so any syscall is killed and
   charged to the enclosure. *)
let fault_once lb =
  Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
  (match Lb.syscall lb K.Getuid with
  | exception Lb.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault");
  Lb.epilog lb ~site:"enclosure:rcl"

let quarantine_tests =
  [
    Alcotest.test_case "budget crossing quarantines the enclosure" `Quick
      (fun () ->
        let _, _, lb = Fixtures.boot Lb.Mpk in
        Lb.set_fault_budget lb 2;
        Alcotest.(check bool) "fresh" false (Lb.quarantined lb "rcl");
        fault_once lb;
        Alcotest.(check bool) "below budget" false (Lb.quarantined lb "rcl");
        fault_once lb;
        Alcotest.(check bool) "at budget" true (Lb.quarantined lb "rcl");
        Alcotest.(check int) "enclosure count" 2
          (Lb.enclosure_fault_count lb "rcl"));
    Alcotest.test_case "quarantined prolog fails fast" `Quick (fun () ->
        let _, _, lb = Fixtures.boot Lb.Mpk in
        Lb.set_fault_budget lb 1;
        fault_once lb;
        match Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl" with
        | exception Lb.Quarantined { enclosure; faults } ->
            Alcotest.(check string) "name" "rcl" enclosure;
            Alcotest.(check int) "faults" 1 faults
        | () -> Alcotest.fail "expected Quarantined");
    Alcotest.test_case "other enclosures stay usable" `Quick (fun () ->
        let _, _, lb = Fixtures.boot Lb.Mpk in
        Lb.set_fault_budget lb 1;
        fault_once lb;
        (* io_enc has its own budget: entering it still works. *)
        Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc";
        Lb.epilog lb ~site:"enclosure:io_enc");
    Alcotest.test_case "unquarantine restores service" `Quick (fun () ->
        let _, _, lb = Fixtures.boot Lb.Mpk in
        Lb.set_fault_budget lb 1;
        fault_once lb;
        (match Lb.unquarantine lb "rcl" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "cleared" false (Lb.quarantined lb "rcl");
        Alcotest.(check int) "count reset" 0 (Lb.enclosure_fault_count lb "rcl");
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        Lb.epilog lb ~site:"enclosure:rcl");
    Alcotest.test_case "unquarantine of unknown enclosure errors" `Quick
      (fun () ->
        let _, _, lb = Fixtures.boot Lb.Mpk in
        match Lb.unquarantine lb "phantom" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected an error");
    Alcotest.test_case "budget must be positive" `Quick (fun () ->
        let _, _, lb = Fixtures.boot Lb.Mpk in
        match Lb.set_fault_budget lb 0 with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler: supervised reaping and the deadlock detector *)

let boot_minimal () =
  let main = Runtime.package "main" ~functions:[ ("main", 128) ] () in
  match Runtime.boot (Runtime.with_backend Lb.Mpk) ~packages:[ main ] ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith e

let sched_tests =
  [
    Alcotest.test_case "supervised fiber is reaped, scheduler survives" `Quick
      (fun () ->
        let rt = boot_minimal () in
        let survivor = ref false in
        let fid = ref 0 in
        Runtime.run_main rt (fun () ->
            fid := Runtime.go_supervised rt (fun () -> failwith "boom");
            Runtime.go rt (fun () -> survivor := true));
        Alcotest.(check bool) "other fiber ran" true !survivor;
        Alcotest.(check int) "kill count" 1 (Sched.kill_count (Runtime.sched rt));
        (match Runtime.fiber_result rt !fid with
        | Some (Sched.Killed reason) ->
            Alcotest.(check bool) "reason mentions boom" true
              (String.length reason > 0)
        | other ->
            Alcotest.failf "expected Killed, got %s"
              (match other with
              | None -> "None"
              | Some Sched.Finished -> "Finished"
              | Some (Sched.Killed _) -> "?"));
        (* The trusted environment is back in place. *)
        match Runtime.lb rt with
        | Some lb ->
            Alcotest.(check bool) "trusted env restored" true
              (Lb.env_matches lb (Lb.trusted_env_ref lb))
        | None -> ());
    Alcotest.test_case "supervised completion is recorded" `Quick (fun () ->
        let rt = boot_minimal () in
        let fid = ref 0 in
        Runtime.run_main rt (fun () ->
            fid := Runtime.go_supervised rt (fun () -> ()));
        match Runtime.fiber_result rt !fid with
        | Some Sched.Finished -> ()
        | _ -> Alcotest.fail "expected Finished");
    Alcotest.test_case "deadlock detector names the stuck fibers" `Quick
      (fun () ->
        let rt = boot_minimal () in
        let sched = Runtime.sched rt in
        match
          Runtime.run_main rt (fun () ->
              let c1 : int Channel.t = Channel.create sched ~cap:1 in
              let c2 : int Channel.t = Channel.create sched ~cap:1 in
              Runtime.go rt (fun () -> ignore (Channel.recv c1));
              Runtime.go rt (fun () -> ignore (Channel.recv c2)))
        with
        | exception Sched.Deadlock { fiber_ids } ->
            Alcotest.(check int) "both stuck fibers" 2 (List.length fiber_ids)
        | () -> Alcotest.fail "expected Deadlock");
    Alcotest.test_case "external waits are not a deadlock" `Quick (fun () ->
        let rt = boot_minimal () in
        let sched = Runtime.sched rt in
        Runtime.run_main rt (fun () ->
            (* An fd-style wait the outside world could satisfy later
               (e.g. an idle server): the scheduler just parks it. *)
            Runtime.go rt (fun () ->
                Sched.wait_until sched (fun () -> false)));
        Alcotest.(check int) "parked" 1 (Sched.blocked_count sched));
  ]

(* ------------------------------------------------------------------ *)
(* Chaos scenarios *)

let tallies = function
  | Ok (_rt, r) -> (r, Scenarios.metric r)
  | Error e -> Alcotest.fail e

let chaos_tests =
  [
    Alcotest.test_case "http chaos: contained, quarantined, available" `Quick
      (fun () ->
        let _, m =
          tallies (Scenarios.chaos_http (Some Lb.Mpk) ~seed:42L ~requests:150 ())
        in
        Alcotest.(check bool) "availability >= 0.9" true
          (m "availability" >= 0.9);
        Alcotest.(check bool) "faults happened" true (m "faults" > 0.);
        Alcotest.(check bool) "quarantined" true (m "quarantined" = 1.);
        Alcotest.(check (float 0.)) "faults = injected" (m "injected")
          (m "faults"));
    Alcotest.test_case "http chaos is deterministic" `Quick (fun () ->
        let run () =
          fst (tallies (Scenarios.chaos_http (Some Lb.Mpk) ~seed:9L ~requests:120 ()))
        in
        let a = Scenarios.pp_chaos_result (run ()) in
        let b = Scenarios.pp_chaos_result (run ()) in
        Alcotest.(check string) "identical metrics" a b);
    Alcotest.test_case "wiki chaos: retries and reconnects keep it up" `Quick
      (fun () ->
        let _, m =
          tallies (Scenarios.chaos_wiki (Some Lb.Mpk) ~seed:42L ~requests:120 ())
        in
        Alcotest.(check bool) "availability >= 0.9" true
          (m "availability" >= 0.9);
        Alcotest.(check bool) "injection active" true (m "injected" > 0.);
        Alcotest.(check bool) "pq reconnected" true (m "reconnects" > 0.));
    Alcotest.test_case "fault accounting catches a fault the injector never fired"
      `Quick (fun () ->
        match Scenarios.chaos_http (Some Lb.Mpk) ~seed:42L ~requests:150 () with
        | Error e -> Alcotest.fail e
        | Ok (rt, _) ->
            Alcotest.(check (result unit string))
              "one fault per firing" (Ok ())
              (Scenarios.chaos_fault_accounting rt);
            let lb = Option.get (Runtime.lb rt) in
            (* A prolog from an unregistered call site faults without
               the injector. *)
            (try Lb.prolog lb ~name:"handler_enc" ~site:"not-a-gate"
             with Lb.Fault _ -> ());
            Alcotest.(check bool)
              "an extra fault diverges" true
              (Result.is_error (Scenarios.chaos_fault_accounting rt)));
    Alcotest.test_case "a rate outside [0, 1] is refused" `Quick (fun () ->
        let http rate =
          Result.map ignore
            (Scenarios.chaos_http (Some Lb.Mpk) ~seed:42L ~rate ~requests:16 ())
        and wiki rate =
          Result.map ignore
            (Scenarios.chaos_wiki (Some Lb.Mpk) ~seed:42L ~rate ~requests:16 ())
        in
        List.iter
          (fun rate ->
            Alcotest.(check bool)
              (Printf.sprintf "http refuses %g" rate) true
              (Result.is_error (http rate));
            Alcotest.(check bool)
              (Printf.sprintf "wiki refuses %g" rate) true
              (Result.is_error (wiki rate)))
          [ nan; -0.5; 1.5 ];
        (* The bounds are probabilities. (wiki at rate 1 drops every
           connection it opens and never finishes, so only http runs
           it.) *)
        Alcotest.(check (result unit string)) "http accepts 0" (Ok ()) (http 0.);
        Alcotest.(check (result unit string)) "http accepts 1" (Ok ()) (http 1.);
        Alcotest.(check (result unit string)) "wiki accepts 0" (Ok ()) (wiki 0.);
        (match Fault.rule ~prob:nan "p" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "Fault.rule accepted a NaN probability");
        Alcotest.(check bool) "plans share the check" true
          (Result.is_error (Fault.parse_plan "p:nan")));
  ]

(* ------------------------------------------------------------------ *)
(* Properties: injector fires reconcile with the registry's counters *)

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"machine mirrors every fire into obs" ~count:50
         (QCheck.make
            QCheck.Gen.(
              triple (int_range 0 1000) (int_range 0 100) (int_range 1 200)))
         (fun (seed, prob_pct, consults) ->
           (* The sink stays disabled: the registry counts regardless. *)
           let machine = Machine.create () in
           let inj = machine.Machine.inject in
           Fault.set_seed inj (Int64.of_int seed);
           Fault.arm inj
             (Fault.rule
                ~prob:(float_of_int prob_pct /. 100.)
                "cpu.spurious_fault");
           for _ = 1 to consults do
             ignore (Fault.fires inj ~env:"trusted" "cpu.spurious_fault")
           done;
           let registry_total =
             Option.value ~default:0
               (List.assoc_opt "inject"
                  (Metrics.totals (Obs.metrics machine.Machine.obs)))
           in
           Fault.total_fired inj = registry_total
           && List.length (Fault.log inj) = registry_total));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fire counts replay exactly under a seed"
         ~count:50
         (QCheck.make QCheck.Gen.(pair (int_range 0 1000) (int_range 1 300)))
         (fun (seed, consults) ->
           let run () =
             let inj = Fault.create ~seed:(Int64.of_int seed) () in
             Fault.register inj ~point:"p" ~doc:"";
             Fault.arm inj (Fault.rule ~prob:0.37 "p");
             for _ = 1 to consults do
               ignore (Fault.fires inj ~env:"e" "p")
             done;
             (Fault.total_fired inj, Fault.log inj)
           in
           run () = run ()));
  ]

let () =
  Alcotest.run "fault"
    [
      ("injector", injector_tests);
      ("quarantine", quarantine_tests);
      ("sched", sched_tests);
      ("chaos", chaos_tests);
      ("properties", prop_tests);
    ]
