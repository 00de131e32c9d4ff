(* Tests for the workload applications: minidb SQL engine, mux router,
   bild, the HTTP servers, the wiki app, and the attack suite. *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module Minidb = Encl_apps.Minidb
module Mux = Encl_apps.Mux
module Bild = Encl_apps.Bild
module Httpd = Encl_apps.Httpd
module Scenarios = Encl_apps.Scenarios
module Legacy = Encl_attack.Legacy
module Deps = Encl_apps.Deps

(* A scenario's report; a refusal to run fails the test. *)
let report = function Ok (_rt, r) -> r | Error e -> Alcotest.fail e
let metric r name = int_of_float (Scenarios.metric r name)

(* ------------------------------------------------------------------ *)
(* Minidb *)

let db_exec db sql =
  match Minidb.exec db sql with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "%s: %s" sql e

let minidb_tests =
  [
    Alcotest.test_case "create, insert, select *" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a, b)");
        ignore (db_exec db "INSERT INTO t VALUES ('1', 'x')");
        ignore (db_exec db "INSERT INTO t VALUES ('2', 'y')");
        Alcotest.(check (list (list string))) "rows"
          [ [ "1"; "x" ]; [ "2"; "y" ] ]
          (db_exec db "SELECT * FROM t"));
    Alcotest.test_case "select with projection and where" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a, b)");
        ignore (db_exec db "INSERT INTO t VALUES ('1', 'x')");
        ignore (db_exec db "INSERT INTO t VALUES ('2', 'y')");
        Alcotest.(check (list (list string))) "projected"
          [ [ "y" ] ]
          (db_exec db "SELECT b FROM t WHERE a = '2'"));
    Alcotest.test_case "update with where" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a, b)");
        ignore (db_exec db "INSERT INTO t VALUES ('1', 'x')");
        ignore (db_exec db "INSERT INTO t VALUES ('2', 'y')");
        ignore (db_exec db "UPDATE t SET b = 'z' WHERE a = '1'");
        Alcotest.(check (list (list string))) "updated"
          [ [ "z" ] ]
          (db_exec db "SELECT b FROM t WHERE a = '1'");
        Alcotest.(check (list (list string))) "other row intact"
          [ [ "y" ] ]
          (db_exec db "SELECT b FROM t WHERE a = '2'"));
    Alcotest.test_case "delete" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "INSERT INTO t VALUES ('1')");
        ignore (db_exec db "INSERT INTO t VALUES ('2')");
        ignore (db_exec db "DELETE FROM t WHERE a = '1'");
        Alcotest.(check int) "one left" 1 (Option.get (Minidb.row_count db "t")));
    Alcotest.test_case "drop table" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "DROP TABLE t");
        Alcotest.(check (list string)) "gone" [] (Minidb.table_names db));
    Alcotest.test_case "errors" `Quick (fun () ->
        let db = Minidb.create () in
        let expect_err sql =
          Alcotest.(check bool) sql true (Result.is_error (Minidb.exec db sql))
        in
        expect_err "SELECT * FROM nope";
        ignore (db_exec db "CREATE TABLE t (a)");
        expect_err "CREATE TABLE t (a)";
        expect_err "INSERT INTO t VALUES ('1', '2')";
        expect_err "SELECT ghost FROM t";
        expect_err "FROBNICATE ALL THE THINGS";
        expect_err "SELECT * FROM t WHERE a = unquoted");
    Alcotest.test_case "values may contain keywords and spaces" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "INSERT INTO t VALUES ('SELECT * FROM secrets')");
        Alcotest.(check (list (list string))) "stored verbatim"
          [ [ "SELECT * FROM secrets" ] ]
          (db_exec db "SELECT * FROM t"));
    Alcotest.test_case "wire protocol roundtrip with partial chunks" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "INSERT INTO t VALUES ('v')");
        let req = Minidb.encode_request "SELECT * FROM t" in
        let half = Bytes.length req / 2 in
        let r1 = Minidb.wire_server db (Bytes.sub req 0 half) in
        Alcotest.(check int) "no reply yet" 0 (List.length r1);
        let r2 = Minidb.wire_server db (Bytes.sub req half (Bytes.length req - half)) in
        Alcotest.(check int) "one reply" 1 (List.length r2);
        Alcotest.(check (list (list string))) "decoded"
          [ [ "v" ] ]
          (Result.get_ok (Minidb.decode_response (List.hd r2))));
    Alcotest.test_case "wire errors decode as errors" `Quick (fun () ->
        let db = Minidb.create () in
        let replies = Minidb.wire_server db (Minidb.encode_request "GARBAGE") in
        Alcotest.(check bool) "error" true
          (Result.is_error (Minidb.decode_response (List.hd replies))));
  ]

(* Property: inserted rows always come back with SELECT *. *)
let minidb_props =
  let value_gen =
    QCheck.Gen.(
      map
        (String.map (fun c ->
             if c = '\'' || c = '\000' || c = '\n' || c = '\t' then '_' else c))
        (string_size (int_range 0 12)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"insert/select roundtrip" ~count:100
         (QCheck.make QCheck.Gen.(list_size (int_range 1 10) (pair value_gen value_gen)))
         (fun rows ->
           let db = Minidb.create () in
           ignore (db_exec db "CREATE TABLE t (a, b)");
           List.iter
             (fun (a, b) ->
               ignore
                 (db_exec db (Printf.sprintf "INSERT INTO t VALUES ('%s', '%s')" a b)))
             rows;
           db_exec db "SELECT * FROM t" = List.map (fun (a, b) -> [ a; b ]) rows));
  ]

(* ------------------------------------------------------------------ *)
(* Deps / Mux / Bild *)

let deps_tests =
  [
    Alcotest.test_case "tree links and reaches every package" `Quick (fun () ->
        let pkgs, root = Deps.tree ~prefix:"x" ~count:15 in
        let main =
          Runtime.package "main" ~imports:[ root ] ~functions:[ ("main", 32) ] ()
        in
        match Runtime.boot Runtime.baseline ~packages:(main :: pkgs) ~entry:"main" with
        | Error e -> Alcotest.fail e
        | Ok rt ->
            let g = (Runtime.image rt).Encl_elf.Image.graph in
            Alcotest.(check int) "all reachable" 15
              (List.length (Encl_pkg.Graph.natural_deps g "main")));
  ]

let mux_tests =
  [
    Alcotest.test_case "longest prefix and method match" `Quick (fun () ->
        let main =
          Runtime.package "main" ~imports:[ Mux.pkg ] ~functions:[ ("main", 32) ] ()
        in
        let rt =
          match
            Runtime.boot Runtime.baseline
              ~packages:(main :: Mux.packages ())
              ~entry:"main"
          with
          | Ok rt -> rt
          | Error e -> failwith e
        in
        let r = Mux.router rt in
        Mux.handle r ~meth:"GET" ~pattern:"/" `Root;
        Mux.handle r ~meth:"GET" ~pattern:"/page/" `Page;
        Mux.handle r ~meth:"POST" ~pattern:"/page/" `Create;
        Alcotest.(check bool) "page" true
          (Mux.route rt r ~meth:"GET" ~path:"/page/home" = Some `Page);
        Alcotest.(check bool) "root fallback" true
          (Mux.route rt r ~meth:"GET" ~path:"/other" = Some `Root);
        Alcotest.(check bool) "method" true
          (Mux.route rt r ~meth:"POST" ~path:"/page/x" = Some `Create);
        Alcotest.(check bool) "no match" true
          (Mux.route rt r ~meth:"PUT" ~path:"/page/x" = None));
  ]

let bild_tests =
  [
    Alcotest.test_case "invert inverts every byte" `Quick (fun () ->
        let r = report (Scenarios.bild None ~width:64 ~height:64 ~iters:1 ()) in
        (* 64*64*4 bytes of 0x55 inverted to 0xAA. *)
        Alcotest.(check int) "checksum" (64 * 64 * 4 * 0xAA) (metric r "checksum"));
    Alcotest.test_case "enclosed invert matches baseline output" `Quick (fun () ->
        let checksum c =
          metric (report (Scenarios.bild c ~width:32 ~height:32 ~iters:1 ())) "checksum"
        in
        let base = checksum None in
        Alcotest.(check int) "mpk" base (checksum (Some Lb.Mpk));
        Alcotest.(check int) "vtx" base (checksum (Some Lb.Vtx)));
    Alcotest.test_case "bild refuses a run with no measured iteration" `Quick
      (fun () ->
        match Scenarios.bild None ~width:8 ~height:8 ~iters:0 () with
        | Ok _ -> Alcotest.fail "iters:0 measured nothing and still reported"
        | Error e ->
            Alcotest.(check bool) ("names the count: " ^ e) true
              (Fixtures.contains e "got 0"));
    Alcotest.test_case "enclosure cannot write the shared image" `Quick (fun () ->
        let secrets = Runtime.package "secrets" ~functions:[ ("load", 32) ] () in
        let main =
          Runtime.package "main"
            ~imports:[ Bild.pkg; "secrets" ]
            ~functions:[ ("main", 64); ("body", 32) ]
            ~enclosures:
              [
                {
                  Encl_elf.Objfile.enc_name = "rcl";
                  enc_policy = "secrets:R; sys=none";
                  enc_closure = "body";
                  enc_deps = [ Bild.pkg ];
                };
              ]
            ()
        in
        let rt =
          Result.get_ok
            (Runtime.boot (Runtime.with_backend Lb.Mpk)
               ~packages:(main :: secrets :: Bild.packages ())
               ~entry:"main")
        in
        let image = Runtime.alloc_in rt ~pkg:"secrets" 4096 in
        match
          Runtime.with_enclosure rt "rcl" (fun () ->
              Gbuf.set (Runtime.machine rt) image 0 1)
        with
        | exception Cpu.Fault _ -> ()
        | () -> Alcotest.fail "read-only image was writable");
    Alcotest.test_case "grayscale averages rgb, preserves alpha" `Quick (fun () ->
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:
                 (Runtime.package "main" ~imports:[ Bild.pkg ]
                    ~functions:[ ("main", 32) ] ()
                 :: Bild.packages ())
               ~entry:"main")
        in
        let m = Runtime.machine rt in
        let src = Runtime.alloc_in rt ~pkg:"main" (4 * 4) in
        (* one row of 4 pixels: r,g,b,a = 10,20,30,40 *)
        for p = 0 to 3 do
          Gbuf.set m src (4 * p) 10;
          Gbuf.set m src ((4 * p) + 1) 20;
          Gbuf.set m src ((4 * p) + 2) 30;
          Gbuf.set m src ((4 * p) + 3) 40
        done;
        let out = Bild.grayscale rt ~src ~width:4 ~height:1 in
        Alcotest.(check int) "r" 20 (Gbuf.get m out 0);
        Alcotest.(check int) "g" 20 (Gbuf.get m out 1);
        Alcotest.(check int) "b" 20 (Gbuf.get m out 2);
        Alcotest.(check int) "alpha kept" 40 (Gbuf.get m out 3));
    Alcotest.test_case "blur averages horizontal neighbours" `Quick (fun () ->
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:
                 (Runtime.package "main" ~imports:[ Bild.pkg ]
                    ~functions:[ ("main", 32) ] ()
                 :: Bild.packages ())
               ~entry:"main")
        in
        let m = Runtime.machine rt in
        let src = Runtime.alloc_in rt ~pkg:"main" (4 * 3) in
        (* red channel of 3 pixels: 0, 90, 0 *)
        Gbuf.set m src 4 90;
        let out = Bild.blur rt ~src ~width:3 ~height:1 in
        Alcotest.(check int) "left" 30 (Gbuf.get m out 0);
        Alcotest.(check int) "centre" 30 (Gbuf.get m out 4);
        Alcotest.(check int) "right" 30 (Gbuf.get m out 8));
    Alcotest.test_case "invert flips every byte of random images" `Quick (fun () ->
        (* Odd width x odd height makes the last tile one row of 4 * odd
           bytes, so the word-at-a-time loop leaves a byte tail. *)
        let rng = Random.State.make [| 13 |] in
        List.iter
          (fun (width, height) ->
            let rt =
              Result.get_ok
                (Runtime.boot Runtime.baseline
                   ~packages:
                     (Runtime.package "main" ~imports:[ Bild.pkg ]
                        ~functions:[ ("main", 32) ] ()
                     :: Bild.packages ())
                   ~entry:"main")
            in
            let m = Runtime.machine rt in
            let size = width * height * 4 in
            let image = Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
            let src = Runtime.alloc_in rt ~pkg:"main" size in
            Gbuf.write_bytes m src image;
            let out = Gbuf.read_bytes m (Bild.invert rt ~src ~width ~height) in
            Alcotest.(check bytes)
              (Printf.sprintf "%dx%d" width height)
              (Bytes.map (fun c -> Char.chr (255 - Char.code c)) image)
              out)
          [ (1, 1); (7, 5); (13, 9); (31, 17); (8, 3); (5, 8); (64, 2); (33, 33) ]);
    Alcotest.test_case "transfers only happen under LitterBox" `Quick (fun () ->
        let transfers c =
          metric (report (Scenarios.bild c ~width:64 ~height:64 ~iters:1 ())) "transfers"
        in
        Alcotest.(check int) "baseline none" 0 (transfers None);
        Alcotest.(check bool) "mpk many" true (transfers (Some Lb.Mpk) > 0));
  ]

(* ------------------------------------------------------------------ *)
(* HTTP servers *)

let http_tests =
  [
    Alcotest.test_case "http server answers with the page" `Quick (fun () ->
        let r = report (Scenarios.http None ~requests:16 ~conns:2 ()) in
        Alcotest.(check int) "served" 16 r.Scenarios.ops;
        Alcotest.(check bool) "throughput sane" true
          (Scenarios.metric r "req_per_sec" > 0.0));
    Alcotest.test_case "fewer requests than connections is refused" `Quick
      (fun () ->
        (* 4 requests over 8 connections is zero measured rounds: the
           rate would be 0/0. *)
        List.iter
          (fun (name, run) ->
            match run None ~requests:4 ~conns:8 () with
            | Ok (_, r) ->
                Alcotest.failf "%s measured %d requests, req/s %g" name
                  r.Scenarios.ops (Scenarios.metric r "req_per_sec")
            | Error e ->
                Alcotest.(check bool) (name ^ " names both numbers: " ^ e) true
                  (Fixtures.contains e "4 requests"
                  && Fixtures.contains e "8 connections"))
          [
            ("http", fun c ~requests ~conns () -> Scenarios.http c ~requests ~conns ());
            ( "smp_http",
              fun c ~requests ~conns () -> Scenarios.smp_http c ~requests ~conns () );
            ( "zerocopy_http",
              fun c ~requests ~conns () ->
                Scenarios.zerocopy_http c ~requests ~conns () );
          ]);
    Alcotest.test_case "client_read_response joins the chunks once" `Quick (fun () ->
        let main = Runtime.package "main" ~functions:[ ("main", 64) ] () in
        let rt = Result.get_ok (Runtime.boot Runtime.baseline ~packages:[ main ] ~entry:"main") in
        let net = (Runtime.machine rt).Machine.net in
        let l = Result.get_ok (Encl_kernel.Net.listen net ~port:9100) in
        let ep = Httpd.client_connect rt ~port:9100 in
        let server = Option.get (Encl_kernel.Net.accept net l) in
        (* Three chunks that take three 64 KiB reads. *)
        let chunks = [ "HTTP/1.1 200 OK\r\n\r\n"; String.make 70_000 'b'; String.make 65_000 't' ] in
        List.iter (fun c -> ignore (Encl_kernel.Net.send net server (Bytes.of_string c))) chunks;
        Alcotest.(check string) "concatenation" (String.concat "" chunks)
          (Bytes.to_string (Httpd.client_read_response rt ep));
        Alcotest.(check bool) "socket empty" false (Encl_kernel.Net.readable net ep);
        Alcotest.(check bool) "would block" true
          (Encl_kernel.Net.recv net ep 1 = Encl_kernel.Net.Would_block));
    Alcotest.test_case "http under both backends" `Quick (fun () ->
        List.iter
          (fun c -> ignore (report (Scenarios.http c ~requests:8 ~conns:2 ())))
          [ Some Lb.Mpk; Some Lb.Vtx ]);
    Alcotest.test_case "fasthttp under both backends" `Quick (fun () ->
        List.iter
          (fun c -> ignore (report (Scenarios.fasthttp c ~requests:8 ~conns:2 ())))
          [ Some Lb.Mpk; Some Lb.Vtx ]);
    Alcotest.test_case "http and fasthttp have similar syscall traces" `Quick
      (fun () ->
        (* Paper §6.2: "FastHTTP and HTTP have a similar system call
           trace". *)
        let a = report (Scenarios.http None ~requests:64 ~conns:4 ()) in
        let b = report (Scenarios.fasthttp None ~requests:64 ~conns:4 ()) in
        let per_req r = Scenarios.metric r "syscalls_per_req" in
        Alcotest.(check bool) "within one syscall" true
          (abs_float (per_req a -. per_req b) < 1.0));
    Alcotest.test_case "response carries the full 13KB page" `Quick (fun () ->
        let main =
          Runtime.package "main" ~imports:[ Httpd.pkg; "assets" ]
            ~functions:[ ("main", 64) ] ()
        in
        let assets =
          Runtime.package "assets"
            ~constants:[ ("index_html", 13 * 1024, Some (Bytes.make (13 * 1024) 'p')) ]
            ()
        in
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:(main :: assets :: Httpd.packages ())
               ~entry:"main")
        in
        let page = Runtime.global rt ~pkg:"assets" "index_html" in
        Runtime.run_main rt (fun () ->
            Httpd.serve rt ~port:9000 ~handler:(fun ~meth:_ ~path:_ -> page));
        Runtime.kick rt;
        let ep = Httpd.client_connect rt ~port:9000 in
        Runtime.kick rt;
        Httpd.client_get rt ep ~path:"/";
        Runtime.kick rt;
        let resp = Bytes.to_string (Httpd.client_read_response rt ep) in
        Alcotest.(check bool) "status line" true
          (String.length resp > 20 && String.sub resp 0 15 = "HTTP/1.1 200 OK");
        Alcotest.(check bool) "body present" true (String.length resp > 13 * 1024));
  ]

(* ------------------------------------------------------------------ *)
(* Wiki *)

let failure_tests =
  [
    Alcotest.test_case "client close ends the connection loop" `Quick (fun () ->
        let main =
          Runtime.package "main" ~imports:[ Httpd.pkg; "assets" ]
            ~functions:[ ("main", 64) ] ()
        in
        let assets =
          Runtime.package "assets"
            ~constants:[ ("index_html", 1024, Some (Bytes.make 1024 'p')) ]
            ()
        in
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:(main :: assets :: Httpd.packages ())
               ~entry:"main")
        in
        let page = Runtime.global rt ~pkg:"assets" "index_html" in
        Runtime.run_main rt (fun () ->
            Httpd.serve rt ~port:9100 ~handler:(fun ~meth:_ ~path:_ -> page));
        Runtime.kick rt;
        let ep = Httpd.client_connect rt ~port:9100 in
        Runtime.kick rt;
        Httpd.client_get rt ep ~path:"/";
        Runtime.kick rt;
        ignore (Httpd.client_read_response rt ep);
        Encl_kernel.Net.close_ep (Runtime.machine rt).Machine.net ep;
        (* The connection fiber must notice EOF and finish (no deadlock,
           no crash). *)
        Runtime.kick rt;
        Alcotest.(check pass) "survived" () ());
    Alcotest.test_case "double bind on a port fails cleanly" `Quick (fun () ->
        let m = Encl_litterbox.Machine.create () in
        let k = m.Machine.kernel in
        let open Encl_kernel.Kernel in
        let fd1 = Result.get_ok (syscall k Socket) in
        ignore (syscall k (Bind { fd = fd1; port = 7777 }));
        ignore (syscall k (Listen fd1));
        let fd2 = Result.get_ok (syscall k Socket) in
        ignore (syscall k (Bind { fd = fd2; port = 7777 }));
        Alcotest.(check bool) "second listen fails" true
          (Result.is_error (syscall k (Listen fd2))));
    Alcotest.test_case "pq surfaces database errors" `Quick (fun () ->
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:
                 (Runtime.package "main" ~imports:[ Encl_apps.Pq.pkg ]
                    ~functions:[ ("main", 32) ] ()
                 :: Encl_apps.Pq.packages ())
               ~entry:"main")
        in
        let db = Encl_apps.Minidb.create () in
        ignore
          (Encl_kernel.Net.register_remote (Runtime.machine rt).Machine.net
             ~ip:(Encl_kernel.Net.addr_of_string "10.0.0.9")
             ~port:5432
             ~respond:(Encl_apps.Minidb.wire_server db)
             "pg");
        Runtime.run_main rt (fun () ->
            let conn =
              Encl_apps.Pq.connect rt ~ip:(Encl_kernel.Net.addr_of_string "10.0.0.9")
                ~port:5432
            in
            Alcotest.(check bool) "error surfaced" true
              (Result.is_error (Encl_apps.Pq.query rt conn "NOT EVEN SQL"));
            ignore
              (Result.get_ok
                 (Encl_apps.Pq.query rt conn "CREATE TABLE kv (k, v)"));
            Alcotest.(check bool) "then works" true
              (Result.is_ok
                 (Encl_apps.Pq.query rt conn "INSERT INTO kv VALUES ('a', 'b')"))));
    Alcotest.test_case "minidb handles several statements in one chunk" `Quick
      (fun () ->
        let db = Encl_apps.Minidb.create () in
        let chunk =
          Bytes.concat Bytes.empty
            [
              Encl_apps.Minidb.encode_request "CREATE TABLE t (a)";
              Encl_apps.Minidb.encode_request "INSERT INTO t VALUES ('x')";
              Encl_apps.Minidb.encode_request "SELECT * FROM t";
            ]
        in
        let replies = Encl_apps.Minidb.wire_server db chunk in
        Alcotest.(check int) "three replies" 3 (List.length replies);
        Alcotest.(check (list (list string))) "last is the row"
          [ [ "x" ] ]
          (Result.get_ok (Encl_apps.Minidb.decode_response (List.nth replies 2))));
    Alcotest.test_case "fasthttp under LB_LWC serves" `Quick (fun () ->
        let r = report (Scenarios.fasthttp (Some Lb.Lwc) ~requests:8 ~conns:2 ()) in
        Alcotest.(check int) "served" 8 r.Scenarios.ops);
    Alcotest.test_case "wiki under LB_LWC roundtrips" `Quick (fun () ->
        Alcotest.(check bool) "ok" true
          (Result.is_ok (Scenarios.wiki_check (Some Lb.Lwc))));
    Alcotest.test_case "a faulting request costs only its connection" `Quick
      (fun () ->
        (* Each server as its scenario boots it, after a one-request
           run: (name, the run, its port, the enclosure it serves in). *)
        let mpk = Some Lb.Mpk in
        let servers =
          [
            ("http", (fun () -> Scenarios.http mpk ~requests:1 ~conns:1 ()), 8080, "handler_enc");
            ( "fasthttp",
              (fun () -> Scenarios.fasthttp mpk ~requests:1 ~conns:1 ()),
              8081,
              "fasthttp_srv" );
            ( "zerocopy_http",
              (fun () -> Scenarios.zerocopy_http mpk ~requests:1 ~conns:1 ()),
              8082,
              "zc_srv" );
            ("wiki", (fun () -> Scenarios.wiki mpk ~requests:1 ~conns:1 ()), 8090, "http_srv");
          ]
        in
        List.iter
          (fun (name, run, port, enc) ->
            let rt, _ = Result.get_ok (run ()) in
            let m = Runtime.machine rt in
            let lb = Option.get (Runtime.lb rt) in
            let faults0 = Lb.fault_count lb in
            let get ep =
              Httpd.client_get rt ep ~path:"/page/home";
              Runtime.kick rt;
              Httpd.client_read_response rt ep
            in
            let connect () =
              let ep = Httpd.client_connect rt ~port in
              Runtime.kick rt;
              ep
            in
            (* Accepted first, so the fault lands in the connection's own
               fiber: the next checked access in the serving enclosure. *)
            let ep = connect () in
            Encl_fault.Fault.arm m.Machine.inject
              (Encl_fault.Fault.rule ~max_fires:1
                 ~env_prefix:(Cpu.enclosure_label enc) "cpu.spurious_fault");
            let what = Printf.sprintf "%s: %s" name in
            Alcotest.(check int) (what "faulted request gets no body") 0
              (Bytes.length (get ep));
            Alcotest.(check int) (what "one fault") (faults0 + 1) (Lb.fault_count lb);
            Alcotest.(check int) (what "http.conn_failed") 1
              (Encl_apps.Serve.total rt Encl_apps.Serve.conn_failed_counter);
            Alcotest.(check int) (what "no fiber killed") 0
              (Encl_golike.Sched.kill_count (Runtime.sched rt));
            Alcotest.(check bool) (what "another connection is served") true
              (Fixtures.contains (Bytes.to_string (get (connect ()))) "HTTP/1.1 200 OK");
            (* Nothing the faulted request held is left behind: no
               pending ring entry, no rx descriptor in flight. *)
            Alcotest.(check (list string)) (what "audit") [] (Runtime.audit rt))
          servers);
  ]

let wiki_tests =
  [
    Alcotest.test_case "roundtrip works in baseline" `Quick (fun () ->
        match Scenarios.wiki_check None with
        | Ok body ->
            Alcotest.(check string) "body"
              "<html><body>Enclosures in OCaml</body></html>" body
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "roundtrip works under MPK" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Result.is_ok (Scenarios.wiki_check (Some Lb.Mpk))));
    Alcotest.test_case "roundtrip works under VTX" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Result.is_ok (Scenarios.wiki_check (Some Lb.Vtx))));
    Alcotest.test_case "wiki serves sustained load enclosed" `Quick (fun () ->
        let r = report (Scenarios.wiki (Some Lb.Mpk) ~requests:40 ~conns:4 ()) in
        Alcotest.(check int) "served" 40 r.Scenarios.ops);
  ]

(* ------------------------------------------------------------------ *)
(* Attacks (§6.5) *)

let attack_tests =
  let run ?(backend = Some Lb.Mpk) attack mitigation =
    Legacy.run ~backend attack mitigation
  in
  [
    Alcotest.test_case "unprotected ssh-decorator exfiltrates" `Quick (fun () ->
        let o = run ~backend:None Legacy.Ssh_decorator Legacy.Unprotected in
        Alcotest.(check bool) "legit" true o.Legacy.legit_ok;
        Alcotest.(check bool) "stolen" true (o.Legacy.exfiltrated > 0));
    Alcotest.test_case "default policy contains every attack" `Quick (fun () ->
        List.iter
          (fun attack ->
            let o = run attack Legacy.Default_policy in
            Alcotest.(check bool)
              (Legacy.attack_name attack ^ " blocked")
              true o.Legacy.attack_blocked;
            Alcotest.(check int)
              (Legacy.attack_name attack ^ " exfil")
              0 o.Legacy.exfiltrated)
          Legacy.all_attacks);
    Alcotest.test_case "default policy breaks legitimate ssh use" `Quick (fun () ->
        let o = run Legacy.Ssh_decorator Legacy.Default_policy in
        Alcotest.(check bool) "legit broken" false o.Legacy.legit_ok);
    Alcotest.test_case "preallocated socket keeps ssh working, contained" `Quick
      (fun () ->
        let o = run Legacy.Ssh_decorator Legacy.Preallocated_socket in
        Alcotest.(check bool) "legit" true o.Legacy.legit_ok;
        Alcotest.(check bool) "blocked" true o.Legacy.attack_blocked);
    Alcotest.test_case "connect list keeps ssh working, contained" `Quick (fun () ->
        let o = run Legacy.Ssh_decorator Legacy.Connect_list in
        Alcotest.(check bool) "legit" true o.Legacy.legit_ok;
        Alcotest.(check bool) "blocked" true o.Legacy.attack_blocked);
    Alcotest.test_case "connect list cannot stop a backdoor listener" `Quick
      (fun () ->
        (* An honest limitation: granting the net category for the
           legitimate connection also allows bind/listen. *)
        let o = run Legacy.Backdoor Legacy.Connect_list in
        Alcotest.(check bool) "not blocked" false o.Legacy.attack_blocked);
    Alcotest.test_case "memory snoop faults under both backends" `Quick (fun () ->
        List.iter
          (fun backend ->
            let o =
              run ~backend:(Some backend) Legacy.Memory_snoop Legacy.Default_policy
            in
            Alcotest.(check bool) "blocked" true o.Legacy.attack_blocked)
          Fixtures.all_backends);
  ]

let () =
  Alcotest.run "apps"
    [
      ("minidb", minidb_tests @ minidb_props);
      ("deps", deps_tests);
      ("mux", mux_tests);
      ("bild", bild_tests);
      ("http", http_tests);
      ("wiki", wiki_tests);
      ("failures", failure_tests);
      ("attacks", attack_tests);
    ]
