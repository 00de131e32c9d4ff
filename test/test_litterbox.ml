(* End-to-end tests of LitterBox over the Figure 1 program, plus unit
   tests for views, policies, and clustering. *)

module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module Policy = Encl_litterbox.Policy
module View = Encl_litterbox.View
module Types = Encl_litterbox.Types
module Cluster = Encl_litterbox.Cluster
module K = Encl_kernel.Kernel
module Image = Encl_elf.Image
module Runtime = Encl_golike.Runtime
module Galloc = Encl_golike.Galloc
module Scenarios = Encl_apps.Scenarios

let check_fails name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Lb.Fault _ -> ()
      | exception Cpu.Fault _ -> ()
      | exception K.Syscall_killed _ -> ()
      | _ -> Alcotest.fail "expected a fault")

(* ------------------------------------------------------------------ *)
(* Policy parsing *)

let policy_tests =
  let roundtrip s =
    match Policy.parse s with
    | Error e -> Alcotest.failf "parse %S: %s" s e
    | Ok p -> (
        match Policy.parse (Policy.to_string p) with
        | Error e -> Alcotest.failf "re-parse of %S: %s" (Policy.to_string p) e
        | Ok p' ->
            Alcotest.(check string)
              "roundtrip" (Policy.to_string p) (Policy.to_string p'))
  in
  [
    Alcotest.test_case "default is empty + none" `Quick (fun () ->
        let p = Policy.default in
        Alcotest.(check bool) "no modifiers" true (p.Policy.modifiers = []);
        Alcotest.(check bool) "no syscalls" true (p.Policy.filter = Policy.Sys_none));
    Alcotest.test_case "parse figure-1 policy" `Quick (fun () ->
        match Policy.parse "secrets:R; sys=none" with
        | Error e -> Alcotest.fail e
        | Ok p ->
            Alcotest.(check bool)
              "secrets read-only" true
              (p.Policy.modifiers = [ ("secrets", Types.R) ]);
            Alcotest.(check bool) "none" true (p.Policy.filter = Policy.Sys_none));
    Alcotest.test_case "parse categories" `Quick (fun () ->
        match Policy.parse "; sys=net,file" with
        | Error e -> Alcotest.fail e
        | Ok p ->
            Alcotest.(check bool)
              "net allowed" true
              (Policy.filter_allows_cat p.Policy.filter Encl_kernel.Sysno.Cat_net);
            Alcotest.(check bool)
              "mem denied" false
              (Policy.filter_allows_cat p.Policy.filter Encl_kernel.Sysno.Cat_mem));
    Alcotest.test_case "parse connect() ip lists" `Quick (fun () ->
        match Policy.parse "; sys=connect(10.0.0.1|10.0.0.2)" with
        | Error e -> Alcotest.fail e
        | Ok p ->
            let ip1 = Encl_kernel.Net.addr_of_string "10.0.0.1" in
            let evil = Encl_kernel.Net.addr_of_string "6.6.6.6" in
            Alcotest.(check bool)
              "listed ip ok" true
              (Policy.filter_allows_connect p.Policy.filter ~ip:ip1);
            Alcotest.(check bool)
              "other ip denied" false
              (Policy.filter_allows_connect p.Policy.filter ~ip:evil));
    Alcotest.test_case "reject junk" `Quick (fun () ->
        List.iter
          (fun s ->
            match Policy.parse s with
            | Ok _ -> Alcotest.failf "expected %S to be rejected" s
            | Error _ -> ())
          [
            "secrets"; "secrets:RWW"; ":R"; "; sys="; "; sys=bogus";
            "; sys=connect()"; "a:R a:RW"; "; nonsense=3";
          ]);
    Alcotest.test_case "roundtrips" `Quick (fun () ->
        List.iter roundtrip
          [
            ""; "secrets:R; sys=none"; "a:U b:RWX; sys=all";
            "; sys=net,file,connect(1.2.3.4)";
          ]);
    Alcotest.test_case "filter_leq lattice" `Quick (fun () ->
        let atoms_net =
          Policy.Sys_atoms [ Policy.Cat Encl_kernel.Sysno.Cat_net ]
        in
        let connect_only =
          Policy.Sys_atoms
            [ Policy.Connect_to [ Encl_kernel.Net.addr_of_string "1.2.3.4" ] ]
        in
        Alcotest.(check bool) "none <= all" true (Policy.filter_leq Policy.Sys_none Policy.Sys_all);
        Alcotest.(check bool) "all </= none" false (Policy.filter_leq Policy.Sys_all Policy.Sys_none);
        Alcotest.(check bool) "net <= all" true (Policy.filter_leq atoms_net Policy.Sys_all);
        Alcotest.(check bool) "connect-list <= net" true (Policy.filter_leq connect_only atoms_net);
        Alcotest.(check bool) "net </= connect-list" false (Policy.filter_leq atoms_net connect_only));
  ]

(* ------------------------------------------------------------------ *)
(* Views *)

let view_tests =
  [
    Alcotest.test_case "figure-1 default view" `Quick (fun () ->
        let image = Fixtures.figure1_image () in
        let policy = Result.get_ok (Policy.parse "secrets:R; sys=none") in
        match View.compute ~graph:image.Image.graph ~deps:[ "libFx" ] ~policy with
        | Error e -> Alcotest.fail e
        | Ok v ->
            let acc p = View.access v p in
            Alcotest.(check string) "libFx" "RWX" (Types.access_name (acc "libFx"));
            Alcotest.(check string) "img (transitive)" "RWX" (Types.access_name (acc "img"));
            Alcotest.(check string) "secrets (modifier)" "R" (Types.access_name (acc "secrets"));
            Alcotest.(check string) "main unmapped" "U" (Types.access_name (acc "main"));
            Alcotest.(check string) "os unmapped" "U" (Types.access_name (acc "os")));
    Alcotest.test_case "subset ordering" `Quick (fun () ->
        let a = View.of_list [ ("x", Types.R) ] in
        let b = View.of_list [ ("x", Types.RWX); ("y", Types.R) ] in
        Alcotest.(check bool) "a <= b" true (View.subset a b);
        Alcotest.(check bool) "b </= a" false (View.subset b a));
    Alcotest.test_case "unknown package in policy rejected" `Quick (fun () ->
        let image = Fixtures.figure1_image () in
        let policy = Result.get_ok (Policy.parse "ghost:R") in
        match View.compute ~graph:image.Image.graph ~deps:[ "libFx" ] ~policy with
        | Ok _ -> Alcotest.fail "expected error"
        | Error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Clustering *)

let cluster_tests =
  [
    Alcotest.test_case "identical vectors cluster" `Quick (fun () ->
        let v1 = View.of_list [ ("a", Types.RWX); ("b", Types.RWX); ("c", Types.R) ] in
        let v2 = View.of_list [ ("a", Types.R); ("b", Types.R) ] in
        let c =
          Cluster.compute ~packages:[ "a"; "b"; "c"; "d" ] ~views:[ v1; v2 ]
            ~pinned:[]
        in
        (* a,b share (RWX,R); c is (R,U); d is (U,U). *)
        Alcotest.(check int) "3 clusters" 3 (Cluster.count c);
        Alcotest.(check bool)
          "a with b" true
          (Cluster.cluster_of c "a" = Cluster.cluster_of c "b");
        Alcotest.(check bool)
          "c alone" true
          (Cluster.cluster_of c "c" <> Cluster.cluster_of c "a"));
    Alcotest.test_case "pinned package is singleton" `Quick (fun () ->
        let c =
          Cluster.compute ~packages:[ "a"; "b"; "super" ] ~views:[]
            ~pinned:[ "super" ]
        in
        (* With no views, a and b share the empty vector; super is pinned. *)
        Alcotest.(check int) "2 clusters" 2 (Cluster.count c);
        Alcotest.(check bool)
          "super alone" true
          (Cluster.members c (Option.get (Cluster.cluster_of c "super")) = [ "super" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Property tests: views, clustering, policies *)

let access_gen =
  QCheck.Gen.oneofl [ Types.U; Types.R; Types.RW; Types.RWX ]

let pkg_names = [ "a"; "b"; "c"; "d"; "e" ]

let view_gen =
  QCheck.Gen.(
    let* rights = list_repeat (List.length pkg_names) access_gen in
    return (View.of_list (List.combine pkg_names rights)))

let view_arb =
  QCheck.make
    ~print:(fun v -> Format.asprintf "%a" View.pp v)
    view_gen

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subset is reflexive" ~count:200 view_arb
         (fun v -> View.subset v v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subset is transitive" ~count:200
         (QCheck.triple view_arb view_arb view_arb)
         (fun (a, b, c) ->
           QCheck.assume (View.subset a b && View.subset b c);
           View.subset a c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"restrict_to is the greatest lower bound" ~count:200
         (QCheck.triple view_arb view_arb view_arb)
         (fun (a, b, c) ->
           let m = View.restrict_to a b in
           View.subset m a && View.subset m b
           && ((not (View.subset c a && View.subset c b)) || View.subset c m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"clusters partition packages by access vector"
         ~count:200
         (QCheck.pair view_arb view_arb)
         (fun (v1, v2) ->
           let c =
             Cluster.compute ~packages:pkg_names ~views:[ v1; v2 ] ~pinned:[]
           in
           let vector p = (View.access v1 p, View.access v2 p) in
           (* same cluster <=> same vector, and every package is placed *)
           List.for_all
             (fun p ->
               match Cluster.cluster_of c p with
               | None -> false
               | Some i ->
                   List.for_all (fun q -> vector q = vector p) (Cluster.members c i))
             pkg_names
           && List.for_all
                (fun p ->
                  List.for_all
                    (fun q ->
                      (vector p = vector q)
                      = (Cluster.cluster_of c p = Cluster.cluster_of c q))
                    pkg_names)
                pkg_names));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"filter_leq is reflexive and Sys_none is bottom"
         ~count:200
         (QCheck.make
            QCheck.Gen.(
              oneof
                [
                  return Policy.Sys_none;
                  return Policy.Sys_all;
                  map
                    (fun cats ->
                      Policy.Sys_atoms (List.map (fun c -> Policy.Cat c) cats))
                    (list_size (int_range 1 3)
                       (oneofl Encl_kernel.Sysno.all_categories));
                ]))
         (fun f ->
           Policy.filter_leq f f
           && Policy.filter_leq Policy.Sys_none f
           && Policy.filter_leq f Policy.Sys_all));
    (let policy_arb =
       let cat_gen =
         QCheck.Gen.oneofl Encl_kernel.Sysno.all_categories
       in
       let filter_gen =
         QCheck.Gen.(
           oneof
             [
               return Policy.Sys_none;
               return Policy.Sys_all;
               map
                 (fun cats ->
                   Policy.Sys_atoms (List.map (fun c -> Policy.Cat c) cats))
                 (list_size (int_range 1 3) cat_gen);
             ])
       in
       let gen =
         QCheck.Gen.(
           let* n = int_range 0 3 in
           let* pkgs =
             list_repeat n (oneofl [ "alpha"; "beta"; "gamma"; "delta" ])
           in
           let pkgs = List.sort_uniq compare pkgs in
           let* rights = list_repeat (List.length pkgs) access_gen in
           let* filter = filter_gen in
           return { Policy.modifiers = List.combine pkgs rights; filter })
       in
       QCheck.make ~print:Policy.to_string gen
     in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make ~name:"policy to_string/parse roundtrip" ~count:300
          policy_arb
          (fun p ->
            match Policy.parse (Policy.to_string p) with
            | Error _ -> false
            | Ok p' -> Policy.to_string p = Policy.to_string p')));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end enforcement, parameterized by backend *)

let enforcement_tests backend backend_tag =
  let tc name f = Alcotest.test_case (backend_tag ^ ": " ^ name) `Quick f in
  let fails name f = check_fails (backend_tag ^ ": " ^ name) f in
  [
    tc "init computes expected view" (fun () ->
        let _, _, lb = Fixtures.boot backend in
        match Lb.view_of lb "rcl" with
        | None -> Alcotest.fail "rcl not registered"
        | Some v ->
            Alcotest.(check string) "secrets" "R" (Types.access_name (View.access v "secrets"));
            Alcotest.(check string) "main" "U" (Types.access_name (View.access v "main")));
    tc "enclosure can read shared secret" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        let addr = Fixtures.sym_addr image ~pkg:"secrets" "original" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        let data = Cpu.read_bytes machine.Machine.cpu ~addr ~len:19 in
        Lb.epilog lb ~site:"enclosure:rcl";
        Alcotest.(check string) "secret readable" "original-image-bits" (Bytes.to_string data));
    fails "enclosure cannot write read-only secret" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        let addr = Fixtures.sym_addr image ~pkg:"secrets" "original" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        Cpu.write8 machine.Machine.cpu addr 0);
    fails "enclosure cannot read main's private key" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        let addr = Fixtures.sym_addr image ~pkg:"main" "private_key" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        ignore (Cpu.read8 machine.Machine.cpu addr));
    fails "enclosure cannot call os functions" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        let addr = Fixtures.sym_addr image ~pkg:"os" "getenv" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        Cpu.fetch machine.Machine.cpu ~addr);
    tc "enclosure can call its dependencies" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        let addr = Fixtures.sym_addr image ~pkg:"libFx" "invert" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        Cpu.fetch machine.Machine.cpu ~addr;
        let addr2 = Fixtures.sym_addr image ~pkg:"img" "decode" in
        Cpu.fetch machine.Machine.cpu ~addr:addr2;
        Lb.epilog lb ~site:"enclosure:rcl");
    fails "syscalls are denied inside rcl" (fun () ->
        let _, _, lb = Fixtures.boot backend in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        ignore (Lb.syscall lb K.Getuid));
    tc "syscalls work from trusted code" (fun () ->
        let _, _, lb = Fixtures.boot backend in
        match Lb.syscall lb K.Getuid with
        | Ok uid -> Alcotest.(check int) "uid" 1000 uid
        | Error e -> Alcotest.fail (K.errno_name e));
    fails "prolog from unverified call-site" (fun () ->
        let _, _, lb = Fixtures.boot backend in
        Lb.prolog lb ~name:"rcl" ~site:"evil:site");
    tc "trusted code can access everything" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        ignore lb;
        let addr = Fixtures.sym_addr image ~pkg:"main" "private_key" in
        Alcotest.(check int) "read ok" (Char.code 's') (Cpu.read8 machine.Machine.cpu addr));
    tc "transfer moves arena ownership" (fun () ->
        let machine, _, lb = Fixtures.boot backend in
        match Lb.syscall lb (K.Mmap { len = 4 * Phys.page_size }) with
        | Error e -> Alcotest.fail (K.errno_name e)
        | Ok addr ->
            Lb.transfer lb ~addr ~len:(4 * Phys.page_size) ~to_pkg:"img"
              ~site:"runtime.mallocgc";
            Alcotest.(check (option string)) "owner" (Some "img") (Lb.owner_of lb ~addr);
            List.iter
              (fun addr ->
                Alcotest.(check (option string)) "no owner outside [0, 2^36) pages" None
                  (Lb.owner_of lb ~addr))
              [ -2 * Phys.page_size; 1 lsl 50; max_int ];
            (* The enclosure may use img's arena. *)
            Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
            Cpu.write8 machine.Machine.cpu addr 42;
            Alcotest.(check int) "readback" 42 (Cpu.read8 machine.Machine.cpu addr);
            Lb.epilog lb ~site:"enclosure:rcl");
    fails "transferred main arena is not accessible in rcl" (fun () ->
        let machine, _, lb = Fixtures.boot backend in
        match Lb.syscall lb (K.Mmap { len = Phys.page_size }) with
        | Error _ -> Alcotest.fail "mmap failed"
        | Ok addr ->
            Lb.transfer lb ~addr ~len:Phys.page_size ~to_pkg:"main"
              ~site:"runtime.mallocgc";
            Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
            ignore (Cpu.read8 machine.Machine.cpu addr));
    tc "with_trusted restores the enclosure environment" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        let secret = Fixtures.sym_addr image ~pkg:"main" "private_key" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        Lb.with_trusted lb (fun () ->
            Alcotest.(check int) "trusted read" (Char.code 's')
              (Cpu.read8 machine.Machine.cpu secret));
        (match Cpu.read8 machine.Machine.cpu secret with
        | exception Cpu.Fault _ -> ()
        | _ -> Alcotest.fail "environment not restored");
        Lb.epilog lb ~site:"enclosure:rcl");
    tc "fault count increments" (fun () ->
        let machine, image, lb = Fixtures.boot backend in
        let addr = Fixtures.sym_addr image ~pkg:"main" "private_key" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        let result =
          Lb.run_protected lb (fun () -> Cpu.read8 machine.Machine.cpu addr)
        in
        Alcotest.(check bool) "faulted" true (Result.is_error result);
        Alcotest.(check bool) "counted" true (Lb.fault_count lb >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic registration (the Python-style partial-Init path) *)

let init_error_tests =
  let module Objfile = Encl_elf.Objfile in
  let image_with_policy policy =
    let objfiles =
      [
        Objfile.make ~pkg:"lib" ~functions:[ Objfile.sym "f" 16 ] ();
        Objfile.make ~pkg:"main" ~imports:[ "lib" ]
          ~functions:[ Objfile.sym "main" 16; Objfile.sym "b" 16 ]
          ~enclosures:
            [
              {
                Objfile.enc_name = "e";
                enc_policy = policy;
                enc_closure = "b";
                enc_deps = [ "lib" ];
              };
            ]
          ()
      ]
    in
    Result.get_ok (Encl_elf.Linker.link ~objfiles ~entry:"main")
  in
  [
    Alcotest.test_case "init rejects malformed policy literals" `Quick (fun () ->
        let image = image_with_policy "; sys=time-travel" in
        let machine = Machine.create () in
        Alcotest.(check bool) "error" true
          (Result.is_error (Lb.init ~machine ~backend:Lb.Mpk ~image ())));
    Alcotest.test_case "init rejects policies naming unknown packages" `Quick
      (fun () ->
        let image = image_with_policy "phantom:R; sys=none" in
        let machine = Machine.create () in
        Alcotest.(check bool) "error" true
          (Result.is_error (Lb.init ~machine ~backend:Lb.Vtx ~image ())));
    Alcotest.test_case "binary scan refuses foreign PKRU writers" `Quick (fun () ->
        let image = image_with_policy "; sys=none" in
        let machine = Machine.create () in
        Alcotest.(check bool) "refused" true
          (Result.is_error
             (Lb.init ~machine ~backend:Lb.Mpk ~image
                ~binary_scan:[ ("lib", "sneaky_wrpkru") ]
                ()));
        let machine2 = Machine.create () in
        Alcotest.(check bool) "litterbox.user allowed" true
          (Result.is_ok
             (Lb.init ~machine:machine2 ~backend:Lb.Mpk
                ~image:(image_with_policy "; sys=none")
                ~binary_scan:[ ("litterbox.user", "switch_gate") ]
                ())));
    Alcotest.test_case "epilog without prolog faults" `Quick (fun () ->
        let _, _, lb = Fixtures.boot Lb.Mpk in
        match Lb.epilog lb ~site:"enclosure:rcl" with
        | exception Lb.Fault _ -> ()
        | () -> Alcotest.fail "stray epilog accepted");
    Alcotest.test_case "fault log records root causes" `Quick (fun () ->
        let machine, image, lb = Fixtures.boot Lb.Mpk in
        let addr = Fixtures.sym_addr image ~pkg:"main" "private_key" in
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        ignore (Lb.run_protected lb (fun () -> Cpu.read8 machine.Machine.cpu addr));
        Lb.epilog lb ~site:"enclosure:rcl";
        match Lb.fault_log lb with
        | trace :: _ ->
            let contains s sub =
              let n = String.length sub and h = String.length s in
              let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "names the package" true (contains trace "main")
        | [] -> Alcotest.fail "no trace recorded");
  ]

let marker_tests =
  [
    Alcotest.test_case "all-covering view still gets a distinct PKRU" `Quick
      (fun () ->
        (* An enclosure whose memory view spans every package must still
           be distinguishable from trusted code in the seccomp dispatch:
           the marker key guarantees it. *)
        let module Objfile = Encl_elf.Objfile in
        let objfiles =
          [
            Objfile.make ~pkg:"lib" ~functions:[ Objfile.sym "f" 16 ] ();
            Objfile.make ~pkg:"main" ~imports:[ "lib" ]
              ~functions:[ Objfile.sym "main" 16; Objfile.sym "b" 16 ]
              ~enclosures:
                [
                  {
                    Objfile.enc_name = "everything";
                    enc_policy = "main:RWX; sys=none";
                    enc_closure = "b";
                    enc_deps = [ "lib" ];
                  };
                ]
              ();
          ]
        in
        let image =
          Result.get_ok (Encl_elf.Linker.link ~objfiles ~entry:"main")
        in
        let machine = Machine.create () in
        let lb = Result.get_ok (Lb.init ~machine ~backend:Lb.Mpk ~image ()) in
        Lb.prolog lb ~name:"everything" ~site:"enclosure:everything";
        (match Lb.syscall lb K.Getuid with
        | exception Lb.Fault _ -> ()
        | exception K.Syscall_killed _ -> ()
        | _ -> Alcotest.fail "enclosure shared the trusted PKRU value");
        Lb.epilog lb ~site:"enclosure:everything");
  ]

let dynamic_tests =
  let module Section = Encl_elf.Section in
  let module Mm = Encl_kernel.Mm in
  let mmap_section machine ~name ~owner ~kind ~len =
    let addr =
      Mm.map machine.Machine.mm ~len ~perms:{ Pte.r = true; w = true; x = false }
    in
    Section.make ~name ~owner ~kind ~addr ~size:len
  in
  [
    Alcotest.test_case "register_package extends views by default" `Quick
      (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Vtx in
        let sec =
          mmap_section machine ~name:"newmod.objs" ~owner:"newmod"
            ~kind:Section.Arena ~len:8192
        in
        (match
           Lb.register_package lb ~name:"newmod" ~imports:[] ~sections:[ sec ]
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (* A dynamically discovered import makes it part of rcl's view. *)
        (match Lb.add_import lb ~importer:"libFx" ~imported:"newmod" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let v = Option.get (Lb.view_of lb "rcl") in
        Alcotest.(check string) "visible" "RWX"
          (Types.access_name (View.access v "newmod"));
        (* And it is actually accessible inside the enclosure. *)
        Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
        Cpu.write8 machine.Machine.cpu sec.Encl_elf.Section.addr 5;
        Alcotest.(check int) "write ok" 5
          (Cpu.read8 machine.Machine.cpu sec.Encl_elf.Section.addr);
        Lb.epilog lb ~site:"enclosure:rcl");
    Alcotest.test_case "page sharing between packages is refused" `Quick
      (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Mpk in
        let sec =
          mmap_section machine ~name:"a.objs" ~owner:"a" ~kind:Section.Arena
            ~len:4096
        in
        (match Lb.register_package lb ~name:"a" ~imports:[] ~sections:[ sec ] with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (* A second package claiming the same page must be rejected
           (the layout assumption of paper 2.3). *)
        let evil_twin =
          Encl_elf.Section.make ~name:"b.objs" ~owner:"b" ~kind:Section.Arena
            ~addr:sec.Encl_elf.Section.addr ~size:4096
        in
        Alcotest.(check bool) "refused" true
          (Result.is_error
             (Lb.register_package lb ~name:"b" ~imports:[] ~sections:[ evil_twin ])));
    Alcotest.test_case "duplicate package registration refused" `Quick (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Vtx in
        let sec =
          mmap_section machine ~name:"m.objs" ~owner:"m" ~kind:Section.Arena
            ~len:4096
        in
        Alcotest.(check bool) "first ok" true
          (Result.is_ok (Lb.register_package lb ~name:"m" ~imports:[] ~sections:[ sec ]));
        Alcotest.(check bool) "second refused" true
          (Result.is_error (Lb.register_package lb ~name:"m" ~imports:[] ~sections:[])));
    Alcotest.test_case "dynamic enclosure on a dynamic package" `Quick (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Mpk in
        ignore machine;
        let sec =
          mmap_section machine ~name:"plug.objs" ~owner:"plug" ~kind:Section.Arena
            ~len:4096
        in
        (match Lb.register_package lb ~name:"plug" ~imports:[] ~sections:[ sec ] with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (match
           Lb.register_enclosure lb ~name:"plug_enc" ~owner:"main" ~deps:[ "plug" ]
             ~policy:"; sys=none" ~closure_addr:0
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Lb.prolog lb ~name:"plug_enc" ~site:"enclosure:plug_enc";
        Cpu.write8 machine.Machine.cpu sec.Encl_elf.Section.addr 9;
        Lb.epilog lb ~site:"enclosure:plug_enc");
    Alcotest.test_case "a package registration refused for want of keys is undone"
      `Quick (fun () ->
        (* Without clustering every package needs its own key, so
           registering packages soon runs LB_MPK out of them. *)
        let machine = Machine.create () in
        let lb =
          Result.get_ok
            (Lb.init ~machine ~backend:Lb.Mpk ~image:(Fixtures.figure1_image ())
               ~clustering:false ())
        in
        let rec register i =
          let name = Printf.sprintf "p%d" i in
          let sec =
            mmap_section machine ~name:(name ^ ".objs") ~owner:name
              ~kind:Section.Arena ~len:4096
          in
          let packages = Encl_pkg.Graph.packages (Lb.graph lb) in
          match
            Lb.register_package lb ~name ~imports:[ "os" ] ~sections:[ sec ]
          with
          | Ok () -> register (i + 1)
          | Error _ ->
              Alcotest.(check (list string)) "graph unchanged" packages
                (Encl_pkg.Graph.packages (Lb.graph lb));
              Alcotest.(check (option string)) "section unregistered" None
                (Lb.owner_of lb ~addr:sec.Section.addr);
              Alcotest.(check bool) "name free again" true
                (Result.is_error
                   (Lb.register_package lb ~name ~imports:[ "os" ]
                      ~sections:[ sec ])
                && not (Encl_pkg.Graph.mem (Lb.graph lb) name))
        in
        register 0);
  ]

(* LB_MPK reprograms from the trusted side: a registration that moves
   super's key (the late enclosure's view of os is a new meta-package)
   neither strands trusted code on a stale PKRU nor, from inside an
   enclosure, issues its page tagging outside a gate. *)
let reprogram_tests =
  let register_late lb =
    Lb.register_enclosure lb ~name:"late" ~owner:"main" ~deps:[ "os" ]
      ~policy:"; sys=none" ~closure_addr:0
  in
  let on_every_backend boot name f =
    Alcotest.test_case name `Quick (fun () ->
        List.iter
          (fun backend ->
            let tag = Lb.backend_name backend in
            match f (boot backend) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" tag e
            | exception e -> Alcotest.failf "%s: %s" tag (Printexc.to_string e))
          Fixtures.all_backends)
  in
  let figure1 backend =
    let _, _, lb = Fixtures.boot backend in
    lb
  in
  let table1 backend =
    let rcfg = { (Runtime.with_backend backend) with Runtime.cores = 1 } in
    match
      Runtime.boot rcfg ~packages:(Scenarios.table1_packages ()) ~entry:"main"
    with
    | Ok rt -> rt
    | Error e -> failwith e
  in
  [
    on_every_backend figure1 "a trusted syscall right after register_enclosure"
      (fun lb ->
        Result.bind (register_late lb) (fun () ->
            Result.map ignore
              (Result.map_error K.errno_name (Lb.syscall lb K.Getpid))));
    on_every_backend figure1 "register_enclosure inside an enclosure" (fun lb ->
        Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc";
        let r = register_late lb in
        Lb.epilog lb ~site:"enclosure:io_enc";
        r);
    (* The allocation comes first: its retag replaces the boot
       environment with app-trusted's PKRU, which the registration then
       moves. From the boot environment, whose PKRU every program
       trusts, a missing re-install would go unnoticed. *)
    on_every_backend table1 "a registration re-installs the current environment"
      (fun rt ->
        ignore (Galloc.alloc (Runtime.galloc rt) ~pkg:"lib" 64);
        Result.bind
          (Lb.register_enclosure
             (Option.get (Runtime.lb rt))
             ~name:"late" ~owner:"main" ~deps:[ "img" ] ~policy:"; sys=none"
             ~closure_addr:0)
          (fun () ->
            match Runtime.syscall rt K.Getpid with
            | Ok 4217 -> Ok ()
            | Ok pid -> Error (Printf.sprintf "getpid returned %d" pid)
            | Error e -> Error (K.errno_name e)));
  ]

(* ------------------------------------------------------------------ *)
(* Microbenchmark-shaped cost checks (Table 1 calibration) *)

let cost_tests =
  let switch_cost backend =
    let machine, _, lb = Fixtures.boot backend in
    let t0 = Clock.now machine.Machine.clock in
    Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl";
    Lb.epilog lb ~site:"enclosure:rcl";
    Clock.now machine.Machine.clock - t0
  in
  [
    Alcotest.test_case "MPK switch pair costs 41ns" `Quick (fun () ->
        Alcotest.(check int) "prolog+epilog" 41 (switch_cost Lb.Mpk));
    Alcotest.test_case "VTX switch pair costs 879ns" `Quick (fun () ->
        Alcotest.(check int) "prolog+epilog" 879 (switch_cost Lb.Vtx));
    Alcotest.test_case "LWC switch pair costs two lwSwitch calls" `Quick
      (fun () ->
        Alcotest.(check int) "prolog+epilog"
          (2 * Costs.default.Costs.lwc_switch)
          (switch_cost Lb.Lwc));
    Alcotest.test_case "LWC syscalls cost the baseline" `Quick (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Lwc in
        Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc";
        let t0 = Clock.now machine.Machine.clock in
        ignore (Lb.syscall lb K.Getuid);
        Alcotest.(check int) "syscall" 387 (Clock.now machine.Machine.clock - t0);
        Lb.epilog lb ~site:"enclosure:io_enc");
    Alcotest.test_case "MPK 4-page transfer costs 1002ns" `Quick (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Mpk in
        let addr = Result.get_ok (Lb.syscall lb (K.Mmap { len = 4 * Phys.page_size })) in
        let t0 = Clock.now machine.Machine.clock in
        Lb.transfer lb ~addr ~len:(4 * Phys.page_size) ~to_pkg:"img"
          ~site:"runtime.mallocgc";
        Alcotest.(check int) "transfer" 1002 (Clock.now machine.Machine.clock - t0));
    Alcotest.test_case "VTX 4-page transfer costs 158ns" `Quick (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Vtx in
        let addr = Result.get_ok (Lb.syscall lb (K.Mmap { len = 4 * Phys.page_size })) in
        let t0 = Clock.now machine.Machine.clock in
        Lb.transfer lb ~addr ~len:(4 * Phys.page_size) ~to_pkg:"img"
          ~site:"runtime.mallocgc";
        Alcotest.(check int) "transfer" 158 (Clock.now machine.Machine.clock - t0));
    Alcotest.test_case "MPK getuid costs 523ns (enclosed)" `Quick (fun () ->
        (* The Table 1 microbenchmark performs getuid from inside an
           enclosure whose filter permits it. *)
        let machine, _, lb = Fixtures.boot Lb.Mpk in
        Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc";
        let t0 = Clock.now machine.Machine.clock in
        ignore (Lb.syscall lb K.Getuid);
        Alcotest.(check int) "syscall" 523 (Clock.now machine.Machine.clock - t0);
        Lb.epilog lb ~site:"enclosure:io_enc");
    Alcotest.test_case "MPK getuid from trusted code is fast-path" `Quick
      (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Mpk in
        let t0 = Clock.now machine.Machine.clock in
        ignore (Lb.syscall lb K.Getuid);
        Alcotest.(check int) "syscall" 417 (Clock.now machine.Machine.clock - t0));
    Alcotest.test_case "VTX getuid costs 4126ns (enclosed)" `Quick (fun () ->
        let machine, _, lb = Fixtures.boot Lb.Vtx in
        Lb.prolog lb ~name:"io_enc" ~site:"enclosure:io_enc";
        let t0 = Clock.now machine.Machine.clock in
        ignore (Lb.syscall lb K.Getuid);
        Alcotest.(check int) "syscall" 4126 (Clock.now machine.Machine.clock - t0);
        Lb.epilog lb ~site:"enclosure:io_enc");
  ]

(* ------------------------------------------------------------------ *)
(* The one switch protocol: prolog, epilog, execute and both halves of
   with_trusted, on every backend with the fast path on and off *)

let switch_protocol_tests =
  let module Obs = Encl_obs.Obs in
  let module Span = Encl_obs.Span in
  let module Metrics = Encl_obs.Metrics in
  let c = Costs.default in
  (* The backend's cost of a switch that is not elided: prolog, epilog,
     execute, excursion enter, excursion return. *)
  let costs = function
    | Lb.Mpk -> (c.mpk_prolog, c.mpk_epilog, c.wrpkru, c.mpk_prolog, c.mpk_epilog)
    | Lb.Vtx ->
        ( c.vtx_guest_syscall, c.vtx_guest_sysret, c.vtx_guest_syscall,
          c.vtx_guest_syscall, c.vtx_guest_sysret )
    | Lb.Lwc ->
        (c.lwc_switch, c.lwc_switch, c.lwc_switch, c.lwc_switch, c.lwc_switch)
    | Lb.Sfi ->
        (c.sfi_switch, c.sfi_switch, c.sfi_switch, c.sfi_switch, c.sfi_switch)
  in
  let run backend fastpath () =
    Knob.with_value Knob.fastpath fastpath @@ fun () ->
    Obs.with_default true @@ fun () ->
    let machine, _, lb = Fixtures.boot backend in
    let obs = machine.Machine.obs in
    let counter scope name =
      Option.value ~default:0
        (List.assoc_opt name (Metrics.counters (Obs.metrics obs) ~scope))
    in
    let prolog, epilog, resume, out, back = costs backend in
    let elided cost = if fastpath then c.switch_elided else cost in
    (* [op] must make one switch per expected span, each counted under
       [scope] (and elided under it when its cost is [switch_elided]),
       each in a span of the given name, category and lane lasting
       exactly its cost, and charge nothing else. *)
    let expect what ~scope spans op =
      let closed0 = List.length (Span.closed (Obs.spans obs)) in
      let switches0 = Lb.switch_count lb and here0 = counter scope "switch" in
      let elided0 = counter scope "switch_elided" in
      let t0 = Clock.now machine.Machine.clock in
      op ();
      let n = List.length spans in
      let check_int label = Alcotest.(check int) (what ^ ": " ^ label) in
      check_int "switches" n (Lb.switch_count lb - switches0);
      check_int ("switches under " ^ scope) n (counter scope "switch" - here0);
      check_int "elided"
        (List.length
           (List.filter (fun (_, _, _, cost) -> fastpath && cost = c.switch_elided) spans))
        (counter scope "switch_elided" - elided0);
      check_int "charged"
        (List.fold_left (fun acc (_, _, _, cost) -> acc + cost) 0 spans)
        (Clock.now machine.Machine.clock - t0);
      let opened =
        List.filteri (fun i _ -> i >= closed0) (Span.closed (Obs.spans obs))
      in
      check_int "spans" n (List.length opened);
      List.iter2
        (fun (sp : Span.span) (name, category, lane, cost) ->
          Alcotest.(check string) (what ^ ": span") name sp.Span.name;
          Alcotest.(check string) (what ^ ": category")
            (Span.category_name category)
            (Span.category_name sp.Span.category);
          Alcotest.(check string) (what ^ ": lane") lane sp.Span.lane;
          check_int (name ^ " lasts its cost") cost (sp.Span.stop - sp.Span.start))
        opened spans
    in
    let excursion ~lane ~out ~back =
      [
        ("excursion:enter", Span.Prolog, lane, out);
        ("excursion:exit", Span.Epilog, lane, back);
      ]
    in
    expect "prolog" ~scope:"rcl" [ ("prolog:rcl", Span.Prolog, "rcl", prolog) ]
      (fun () -> Lb.prolog lb ~name:"rcl" ~site:"enclosure:rcl");
    let inside = Lb.capture_env lb in
    expect "execute (installed)" ~scope:"rcl"
      [ ("execute:rcl", Span.Sched, "rcl", elided resume) ]
      (fun () -> Lb.execute lb inside ~site:"runtime.scheduler");
    expect "with_trusted (enclosed)" ~scope:"rcl"
      (excursion ~lane:"rcl" ~out ~back)
      (fun () -> Lb.with_trusted lb ignore);
    expect "execute (to trusted)" ~scope:"trusted"
      [ ("execute:trusted", Span.Sched, "trusted", resume) ]
      (fun () -> Lb.execute lb (Lb.trusted_env_ref lb) ~site:"runtime.scheduler");
    expect "execute (back)" ~scope:"rcl"
      [ ("execute:rcl", Span.Sched, "rcl", resume) ]
      (fun () -> Lb.execute lb inside ~site:"runtime.scheduler");
    expect "epilog" ~scope:"rcl" [ ("epilog:rcl", Span.Epilog, "rcl", epilog) ]
      (fun () -> Lb.epilog lb ~site:"enclosure:rcl");
    expect "with_trusted (trusted)" ~scope:"trusted"
      (excursion ~lane:"trusted" ~out:(elided out) ~back:(elided back))
      (fun () -> Lb.with_trusted lb ignore)
  in
  List.concat_map
    (fun backend ->
      List.map
        (fun fastpath ->
          Alcotest.test_case
            (Printf.sprintf "%s, fast path %s" (Lb.backend_name backend)
               (if fastpath then "on" else "off"))
            `Quick (run backend fastpath))
        [ true; false ])
    Fixtures.all_backends

(* ------------------------------------------------------------------ *)
(* The "baseline or backend" argument every tool parses *)

let backend_arg_tests =
  [
    Alcotest.test_case "every backend spelling round-trips, junk is refused"
      `Quick (fun () ->
        let module B = Encl_litterbox.Backend in
        List.iter
          (fun b ->
            List.iter
              (fun s ->
                Alcotest.(check bool) s true (B.config_of_string s = Ok (Some b)))
              [ B.arg_name b; B.name b; String.uppercase_ascii (B.arg_name b) ];
            Alcotest.(check bool) "printed name parses back" true
              (B.config_of_string (B.config_arg_name (Some b)) = Ok (Some b)))
          B.all;
        List.iter
          (fun s -> Alcotest.(check bool) s true (B.config_of_string s = Ok None))
          [ "baseline"; "none" ];
        match B.config_of_string "bogus" with
        | Ok _ -> Alcotest.fail "bogus accepted"
        | Error e ->
            List.iter
              (fun choice ->
                Alcotest.(check bool) ("lists " ^ choice) true
                  (Fixtures.contains e choice))
              ("baseline" :: List.map B.arg_name B.all));
  ]

let () =
  Alcotest.run "litterbox"
    [
      ("backend-arg", backend_arg_tests);
      ("policy", policy_tests);
      ("view", view_tests);
      ("cluster", cluster_tests);
      ("props", prop_tests);
      ("enforce-mpk", enforcement_tests Lb.Mpk "mpk");
      ("enforce-vtx", enforcement_tests Lb.Vtx "vtx");
      ("enforce-lwc", enforcement_tests Lb.Lwc "lwc");
      ("dynamic", dynamic_tests);
      ("reprogram", reprogram_tests);
      ("marker-key", marker_tests);
      ("init-errors", init_error_tests);
      ("costs", cost_tests);
      ("switch", switch_protocol_tests);
    ]
