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
        Alcotest.(check string) "module" "dst" (Pyrt.module_name c.Pyrt.o_module);
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

(* ------------------------------------------------------------------ *)
(* The access memo's differential

   Conservative refcount operations and localcopy read an enclosure's
   access to a module from a memo kept per installed view. Random op
   sequences run them from enclosures holding R, RW and U views of
   [secret], interleaved with lazy imports, a late import edge that
   widens the U view, and late registrations. Every operation is held
   to the unmemoized answer, [Lb.current_access]: the excursions a
   refcount operation takes follow from it, and none ever faults. Each
   run is then compared, as the enforcement oracle compares Go-like
   runs, with the all-off reference on the same backend (texts), and
   the references of the four backends with each other (classes). The
   pylike runtime is single-core (it never runs the scheduler), so the
   draws are all at one core: a four-core leg would rerun the same
   case. *)

module Types = Encl_litterbox.Types

type scope = Trusted | In of string  (** an enclosure name *)

let policy_of = function
  | "r" -> "secret:R; sys=none"
  | "rw" -> "secret:RW; sys=none"
  | _ -> "; sys=none"

type rc = Incref | Decref | Read

type pyop =
  | Rc of scope * rc * int  (** on [objects.(i)] *)
  | Copy of scope * int * string  (** localcopy into a module *)
  | Import of scope  (** a lazy import of a fresh module *)
  | Link  (** plot imports secret: the U view widens to RWX *)
  | Late of string  (** register a fresh enclosure, incref from it *)

let scope_name = function Trusted -> "trusted" | In e -> e

let pp_op = function
  | Rc (s, k, i) ->
      Printf.sprintf "%s:%d@%s"
        (match k with Incref -> "incref" | Decref -> "decref" | Read -> "refcount")
        i (scope_name s)
  | Copy (s, i, dst) -> Printf.sprintf "localcopy:%d->%s@%s" i dst (scope_name s)
  | Import s -> "import@" ^ scope_name s
  | Link -> "link"
  | Late p -> "late:" ^ p

(* secret's two objects, then plot's and __main__'s. *)
let object_modules = [| "secret"; "secret"; "plot"; "__main__" |]

let pyop_gen =
  let open QCheck.Gen in
  let scope = oneofl [ Trusted; In "r"; In "rw"; In "u" ] in
  let obj = int_range 0 (Array.length object_modules - 1) in
  frequency
    [
      (8, map3 (fun s k i -> Rc (s, k, i)) scope (oneofl [ Incref; Decref; Read ]) obj);
      (2, map3 (fun s i d -> Copy (s, i, d)) scope obj (oneofl [ "plot"; "secret" ]));
      (1, map (fun s -> Import s) scope);
      (1, return Link);
      (1, map (fun p -> Late p) (oneofl [ "r"; "rw"; "u" ]));
    ]

type pyrun = {
  texts : string list;  (** one outcome per op, then the final state *)
  classes : string list;  (** the same, with fault texts reduced to "error" *)
}

let py_run backend (c : Oracle.config) ops =
  Oracle.with_config c @@ fun () ->
  let py = boot ~backend () in
  let lb = Option.get (Pyrt.lb py) in
  import py "secret";
  import py "plot";
  let objects =
    Array.map
      (fun modul ->
        let o = Pyrt.alloc_obj py ~modul ~len:8 in
        Pyrt.write_payload py o (Bytes.of_string ("pay-" ^ String.sub modul 0 4));
        o)
      object_modules
  in
  let fresh = ref 0 in
  let next prefix =
    incr fresh;
    Printf.sprintf "%s%d" prefix !fresh
  in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        QCheck.Test.fail_reportf "%s under %s: %s" (Lb.backend_name backend)
          (Oracle.pp_config c) s)
      fmt
  in
  (* [body] in [scope]; an absorbed fault is the text [Error]. *)
  let from scope body =
    match scope with
    | Trusted -> Ok (body ())
    | In name ->
        Pyrt.with_enclosure py ~name ~owner:"__main__" ~deps:[ "plot" ]
          ~policy:(policy_of name) body
  in
  let rc_op kind o =
    let write = kind <> Read in
    let expected =
      match Lb.current_access lb (Pyrt.module_name o.Pyrt.o_module) with
      | None | Some (Types.RW | Types.RWX) -> 0
      | Some Types.U -> 1
      | Some Types.R -> if write then 1 else 0
    in
    let s0 = Pyrt.trusted_switches py in
    let r =
      match kind with
      | Incref ->
          Pyrt.incref py o;
          "inc"
      | Decref -> (
          match Pyrt.decref py o with
          | () -> "dec"
          | exception Invalid_argument _ -> "underflow")
      | Read -> string_of_int (Pyrt.refcount py o)
    in
    let excursions = (Pyrt.trusted_switches py - s0) / 2 in
    if excursions <> expected then
      fail "%s took %d excursions, the view calls for %d" r excursions expected;
    Printf.sprintf "%s exc=%d" r excursions
  in
  let settle = ref [] in
  let run_op op =
    let outcome =
      match op with
      | Rc (scope, kind, i) -> (
          match from scope (fun () -> rc_op kind objects.(i)) with
          | Ok s -> Ok s
          | Error e -> fail "%s faulted: %s" (pp_op op) e)
      | Copy (scope, i, dst_module) ->
          from scope (fun () ->
              let copy = Pyrt.localcopy py objects.(i) ~dst_module in
              settle := copy :: !settle;
              "copy:" ^ Bytes.to_string (Pyrt.read_payload py copy))
      | Import scope ->
          let name = next "lazy" in
          from scope (fun () ->
              match Pyrt.import_module py ~name ~imports:[ "secret" ] () with
              | Ok () -> "imported"
              | Error e -> "refused:" ^ e)
      | Link -> (
          match Lb.add_import lb ~importer:"plot" ~imported:"secret" with
          | Ok () -> Ok "linked"
          | Error e -> Ok ("refused:" ^ e))
      | Late p ->
          let name = next ("late_" ^ p ^ "_") in
          Pyrt.with_enclosure py ~name ~owner:"__main__" ~deps:[ "plot" ]
            ~policy:(policy_of p) (fun () -> rc_op Incref objects.(0))
    in
    (* Settle every share a localcopy left: a trusted write to each copy
       materializes the deferred one, so refcounts agree whether the
       copy was elided or not. *)
    List.iter
      (fun copy -> Pyrt.write_payload py copy (Pyrt.read_payload py copy))
      !settle;
    settle := [];
    match outcome with
    | Ok s -> (s, s)
    | Error e -> ("error:" ^ e, "error")
  in
  let outcomes = List.map run_op ops in
  let final =
    [
      "refcounts "
      ^ String.concat "," (Array.to_list (Array.map (fun o -> string_of_int (Pyrt.refcount py o)) objects));
      (* An elided localcopy pays one excursion, for its incref of the
         R-viewed source; the copy it stands in for pays none. *)
      Printf.sprintf "trusted_switches %d"
        (Pyrt.trusted_switches py - (2 * Pyrt.copy_elided_count py));
      Printf.sprintf "faults %d" (Lb.fault_count lb);
    ]
  in
  {
    texts = List.map fst outcomes @ final @ Lb.fault_log lb;
    classes = List.map snd outcomes @ final;
  }

let py_agree ops (la, a) (lb, b) =
  let rec first i = function
    | x :: xs, y :: ys ->
        if x = y then first (i + 1) (xs, ys)
        else
          QCheck.Test.fail_reportf "item %d differs:\n  %s: %s\n  %s: %s\n  ops: %s"
            i la x lb y (String.concat ", " (List.map pp_op ops))
    | [], [] -> ()
    | _ -> QCheck.Test.fail_reportf "%s and %s differ in length" la lb
  in
  first 0 (a, b)

let memo_property =
  let config_gen =
    QCheck.Gen.(
      let+ knobs = flatten_l (List.map (fun k -> map (fun b -> (k, b)) bool) Knob.all)
      and+ obs = bool
      and+ witness = bool in
      { Oracle.knobs; obs; witness; cores = 1 })
  in
  let arb =
    QCheck.make
      ~shrink:QCheck.Shrink.(triple nil nil list)
      ~print:(fun (backend, c, ops) ->
        Printf.sprintf "%s under %s: %s" (Lb.backend_name backend) (Oracle.pp_config c)
          (String.concat ", " (List.map pp_op ops)))
      QCheck.Gen.(
        triple (oneofl Fixtures.all_backends) config_gen
          (list_size (int_range 1 25) pyop_gen))
  in
  QCheck.Test.make ~name:"the access memo decides as the views do" ~count:400 arb
    (fun (backend, c, ops) ->
      let refs =
        List.map (fun b -> (b, py_run b Oracle.reference ops)) Fixtures.all_backends
      in
      let base = List.assoc backend refs in
      let drawn = py_run backend c ops in
      py_agree ops
        (Lb.backend_name backend ^ " reference", base.texts)
        (Lb.backend_name backend ^ " under " ^ Oracle.pp_config c, drawn.texts);
      (match refs with
      | (b0, r0) :: rest ->
          List.iter
            (fun (b, r) ->
              py_agree ops
                (Lb.backend_name b0, r0.classes)
                (Lb.backend_name b, r.classes))
            rest
      | [] -> ());
      true)

let () =
  Alcotest.run "pylike"
    [
      ("import", import_tests);
      ("objects", object_tests);
      ("enclosures", enclosure_tests);
      ("register", registration_tests);
      ("experiment", experiment_tests);
      ("memo", [ QCheck_alcotest.to_alcotest memo_property ]);
    ]
