(* Tests for the CPython-like frontend and the §6.4 experiment. *)

module Pyrt = Encl_pylike.Pyrt
module Plot = Encl_pylike.Plot_experiment
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module Cluster = Encl_litterbox.Cluster

let boot ?backend ?(mode = Pyrt.Conservative) () =
  match Pyrt.boot ?backend ~mode () with
  | Ok rt -> rt
  | Error e -> failwith e

let import rt ?imports ?arena_bytes name =
  match Pyrt.import_module rt ~name ?imports ?arena_bytes () with
  | Ok () -> ()
  | Error e -> failwith e

let import_tests =
  [
    Alcotest.test_case "lazy import registers once" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx () in
        import rt "numpy";
        Alcotest.(check bool) "imported" true (Pyrt.is_imported rt "numpy");
        Alcotest.(check bool) "re-import is a no-op" true
          (Pyrt.import_module rt ~name:"numpy" () = Ok ()));
    Alcotest.test_case "imports require dependencies first" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx () in
        Alcotest.(check bool) "missing dep" true
          (Result.is_error
             (Pyrt.import_module rt ~name:"matplotlib" ~imports:[ "numpy" ] ())));
    Alcotest.test_case "module body runs at import" `Quick (fun () ->
        let rt = boot () in
        let ran = ref false in
        import rt "mod";
        ignore ran;
        let rt2 = boot () in
        (match Pyrt.import_module rt2 ~name:"mod2" ~body:(fun _ -> ran := true) () with
        | Ok () -> ()
        | Error e -> failwith e);
        Alcotest.(check bool) "ran" true !ran);
    Alcotest.test_case "multiple partial Inits accumulate" `Quick (fun () ->
        let rt = boot ~backend:Lb.Mpk () in
        List.iter (fun n -> import rt n) [ "a"; "b"; "c"; "d" ];
        Alcotest.(check int) "5 modules" 5 (List.length (Pyrt.modules rt)));
  ]

let object_tests =
  [
    Alcotest.test_case "alloc starts with refcount 1" `Quick (fun () ->
        let rt = boot () in
        import rt "m";
        let o = Pyrt.alloc_obj rt ~modul:"m" ~len:16 in
        Alcotest.(check int) "rc" 1 (Pyrt.refcount rt o));
    Alcotest.test_case "incref/decref" `Quick (fun () ->
        let rt = boot () in
        import rt "m";
        let o = Pyrt.alloc_obj rt ~modul:"m" ~len:16 in
        Pyrt.incref rt o;
        Pyrt.incref rt o;
        Alcotest.(check int) "3" 3 (Pyrt.refcount rt o);
        Pyrt.decref rt o;
        Alcotest.(check int) "2" 2 (Pyrt.refcount rt o));
    Alcotest.test_case "decref underflow rejected" `Quick (fun () ->
        let rt = boot () in
        import rt "m";
        let o = Pyrt.alloc_obj rt ~modul:"m" ~len:8 in
        Pyrt.decref rt o;
        match Pyrt.decref rt o with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "underflow accepted");
    Alcotest.test_case "payload roundtrip" `Quick (fun () ->
        let rt = boot () in
        import rt "m";
        let o = Pyrt.alloc_obj rt ~modul:"m" ~len:11 in
        Pyrt.write_payload rt o (Bytes.of_string "hello world");
        Alcotest.(check bytes) "payload" (Bytes.of_string "hello world")
          (Pyrt.read_payload rt o));
    Alcotest.test_case "localcopy lands in the destination module" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx () in
        import rt "src";
        import rt "dst";
        let o = Pyrt.alloc_obj rt ~modul:"src" ~len:8 in
        Pyrt.write_payload rt o (Bytes.of_string "copydata");
        let c = Pyrt.localcopy rt o ~dst_module:"dst" in
        Alcotest.(check string) "module" "dst" c.Pyrt.o_module;
        Alcotest.(check bytes) "payload" (Bytes.of_string "copydata")
          (Pyrt.read_payload rt c));
    Alcotest.test_case "collect frees dead objects" `Quick (fun () ->
        let rt = boot () in
        import rt "m";
        let a = Pyrt.alloc_obj rt ~modul:"m" ~len:8 in
        let _b = Pyrt.alloc_obj rt ~modul:"m" ~len:8 in
        Pyrt.decref rt a;
        let live0 = Pyrt.live_objects rt in
        let freed = Pyrt.collect rt in
        Alcotest.(check int) "one freed" 1 freed;
        Alcotest.(check int) "live count" (live0 - 1) (Pyrt.live_objects rt));
    Alcotest.test_case "minor collection promotes survivors" `Quick (fun () ->
        let rt = boot () in
        import rt "m";
        let a = Pyrt.alloc_obj rt ~modul:"m" ~len:8 in
        let b = Pyrt.alloc_obj rt ~modul:"m" ~len:8 in
        Pyrt.decref rt b;
        Alcotest.(check int) "both young" 2 (Pyrt.young_objects rt);
        let freed = Pyrt.collect_minor rt in
        Alcotest.(check int) "one freed" 1 freed;
        Alcotest.(check int) "survivor promoted" 1 (Pyrt.old_objects rt);
        Alcotest.(check int) "young empty" 0 (Pyrt.young_objects rt);
        (* A dead old object survives minors but not majors. *)
        Pyrt.decref rt a;
        Alcotest.(check int) "minor skips old gen" 0 (Pyrt.collect_minor rt);
        Alcotest.(check int) "major reclaims it" 1 (Pyrt.collect rt));
    Alcotest.test_case "automatic minor collections at the threshold" `Quick
      (fun () ->
        let rt =
          match Pyrt.boot ~gc_threshold:10 ~mode:Pyrt.Conservative () with
          | Ok rt -> rt
          | Error e -> failwith e
        in
        (match Pyrt.import_module rt ~name:"m" () with Ok () -> () | Error e -> failwith e);
        for _ = 1 to 35 do
          let o = Pyrt.alloc_obj rt ~modul:"m" ~len:8 in
          Pyrt.decref rt o
        done;
        Alcotest.(check bool) "collections ran" true (Pyrt.collections rt >= 3);
        Alcotest.(check bool) "garbage reclaimed" true (Pyrt.live_objects rt < 35));
    Alcotest.test_case "arena exhaustion reported" `Quick (fun () ->
        let rt = boot () in
        import rt ~arena_bytes:4096 "tiny";
        match
          for _ = 1 to 500 do
            ignore (Pyrt.alloc_obj rt ~modul:"tiny" ~len:64)
          done
        with
        | exception Failure _ -> ()
        | () -> Alcotest.fail "arena never exhausted");
  ]

let enclosure_tests =
  [
    Alcotest.test_case "read-only secret readable inside enclosure" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx () in
        import rt "secret";
        import rt "libplot";
        let o = Pyrt.alloc_obj rt ~modul:"secret" ~len:8 in
        Pyrt.write_payload rt o (Bytes.of_string "8bytes!!");
        match
          Pyrt.with_enclosure rt ~name:"e" ~owner:"__main__" ~deps:[ "libplot" ]
            ~policy:"secret:R; sys=none" (fun () -> Pyrt.read_payload rt o)
        with
        | Ok payload -> Alcotest.(check bytes) "read" (Bytes.of_string "8bytes!!") payload
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "enclosure cannot write the read-only secret" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx () in
        import rt "secret";
        import rt "libplot";
        let o = Pyrt.alloc_obj rt ~modul:"secret" ~len:8 in
        match
          Pyrt.with_enclosure rt ~name:"e" ~owner:"__main__" ~deps:[ "libplot" ]
            ~policy:"secret:R; sys=none" (fun () ->
              Pyrt.write_payload rt o (Bytes.make 8 'x'))
        with
        | Ok () -> Alcotest.fail "write allowed"
        | Error _ -> ());
    Alcotest.test_case "unlisted module is unmapped" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx () in
        import rt "secret";
        import rt "libplot";
        let o = Pyrt.alloc_obj rt ~modul:"secret" ~len:8 in
        match
          Pyrt.with_enclosure rt ~name:"e" ~owner:"__main__" ~deps:[ "libplot" ]
            ~policy:"; sys=none" (fun () -> Pyrt.read_payload rt o)
        with
        | Ok _ -> Alcotest.fail "secret readable without grant"
        | Error _ -> ());
    Alcotest.test_case "conservative mode switches on RO refcounts" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx ~mode:Pyrt.Conservative () in
        import rt "secret";
        import rt "libplot";
        let o = Pyrt.alloc_obj rt ~modul:"secret" ~len:8 in
        let s0 = Pyrt.trusted_switches rt in
        ignore
          (Pyrt.with_enclosure rt ~name:"e" ~owner:"__main__" ~deps:[ "libplot" ]
             ~policy:"secret:R; sys=none" (fun () ->
               Pyrt.incref rt o;
               Pyrt.decref rt o));
        Alcotest.(check int) "4 switches (2 round trips)" 4
          (Pyrt.trusted_switches rt - s0));
    Alcotest.test_case "decoupled mode avoids the switches" `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx ~mode:Pyrt.Decoupled () in
        import rt "secret";
        import rt "libplot";
        let o = Pyrt.alloc_obj rt ~modul:"secret" ~len:8 in
        let s0 = Pyrt.trusted_switches rt in
        ignore
          (Pyrt.with_enclosure rt ~name:"e" ~owner:"__main__" ~deps:[ "libplot" ]
             ~policy:"secret:R; sys=none" (fun () ->
               Pyrt.incref rt o;
               Pyrt.decref rt o));
        Alcotest.(check int) "no switches" 0 (Pyrt.trusted_switches rt - s0));
    Alcotest.test_case "refcount updates inside the enclosure's own module are free"
      `Quick (fun () ->
        let rt = boot ~backend:Lb.Vtx ~mode:Pyrt.Conservative () in
        import rt "libplot";
        let s0 = Pyrt.trusted_switches rt in
        ignore
          (Pyrt.with_enclosure rt ~name:"e" ~owner:"__main__" ~deps:[ "libplot" ]
             ~policy:"; sys=none" (fun () ->
               let o = Pyrt.alloc_obj rt ~modul:"libplot" ~len:8 in
               Pyrt.incref rt o;
               Pyrt.decref rt o));
        Alcotest.(check int) "no switches" 0 (Pyrt.trusted_switches rt - s0));
  ]

(* Registrations at run time: a lazy import inside an enclosure, and a
   registration LB_MPK has no key left for. *)
let registration_tests =
  let enclose rt name deps =
    Pyrt.with_enclosure rt ~name ~owner:"__main__" ~deps ~policy:"; sys=none"
      (fun () -> ())
  in
  [
    Alcotest.test_case "a lazy import inside an enclosure works on every backend"
      `Quick (fun () ->
        List.iter
          (fun backend ->
            let tag = Lb.backend_name backend in
            let rt = boot ~backend () in
            (match
               Pyrt.with_enclosure rt ~name:"e0" ~owner:"__main__" ~deps:[]
                 ~policy:"; sys=none" (fun () ->
                   Pyrt.import_module rt ~name:"m1" ())
             with
            | Ok (Ok ()) -> ()
            | Ok (Error e) | Error e -> Alcotest.failf "%s: %s" tag e);
            Alcotest.(check int) (tag ^ " faults") 0
              (Lb.fault_count (Option.get (Pyrt.lb rt))))
          Encl_litterbox.Backend.all);
    Alcotest.test_case "a registration refused for want of keys changes nothing"
      `Quick (fun () ->
        let rt = boot ~backend:Lb.Mpk () in
        let lb = Option.get (Pyrt.lb rt) in
        let modules = List.init 20 (Printf.sprintf "m%d") in
        List.iter (import rt) modules;
        (* One enclosure per module: each view is a new meta-package. *)
        let rec first_refused = function
          | [] -> Alcotest.fail "every registration fitted"
          | m :: rest -> (
              let clusters = Cluster.count (Lb.cluster lb) in
              match enclose rt ("e_" ^ m) [ m ] with
              | Ok () -> first_refused rest
              | Error e ->
                  Alcotest.(check bool) ("out of keys: " ^ e) true
                    (Fixtures.contains e "protection keys");
                  ("e_" ^ m, clusters))
        in
        let refused, clusters = first_refused modules in
        Alcotest.(check bool) "refused name absent" false
          (List.mem refused (Lb.enclosure_names lb));
        Alcotest.(check int) "clustering unchanged" clusters
          (Cluster.count (Lb.cluster lb));
        (match enclose rt "e_m0_twin" [ "m0" ] with
        | Ok () -> ()
        | Error e -> Alcotest.failf "same view as e_m0: %s" e);
        match Lb.prolog lb ~name:refused ~site:("enclosure:" ^ refused) with
        | exception Lb.Fault _ -> ()
        | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
        | () -> Alcotest.fail "entered a refused enclosure");
  ]

let experiment_tests =
  [
    Alcotest.test_case "plot experiment functional under all configs" `Quick
      (fun () ->
        let base = Plot.run ~mode:Pyrt.Conservative ~points:2_000 () in
        Alcotest.(check bool) "plot written" true base.Plot.plot_on_disk;
        Alcotest.(check int) "all points" 2_000 base.Plot.plotted;
        let cons = Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Conservative ~points:2_000 () in
        Alcotest.(check bool) "plot written (vtx)" true cons.Plot.plot_on_disk;
        (* Two switches per refcount excursion, incref+decref per point. *)
        Alcotest.(check int) "switch count" (2_000 * 4) cons.Plot.switches;
        let dec = Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Decoupled ~points:2_000 () in
        Alcotest.(check int) "no switches decoupled" 0 dec.Plot.switches;
        Alcotest.(check bool) "conservative slower" true
          (cons.Plot.total_ns > dec.Plot.total_ns));
    Alcotest.test_case "conservative switch time dominates" `Quick (fun () ->
        let cons = Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Conservative ~points:20_000 () in
        Alcotest.(check bool) "switch > compute" true
          (cons.Plot.switch_ns > cons.Plot.compute_ns));
  ]

let () =
  Alcotest.run "pylike"
    [
      ("import", import_tests);
      ("objects", object_tests);
      ("enclosures", enclosure_tests);
      ("register", registration_tests);
      ("experiment", experiment_tests);
    ]
