module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Channel = Encl_golike.Channel
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine

let db_ip = Encl_kernel.Net.addr_of_string "10.0.0.5"
let db_port = 5432

(* Calibrated per-request constants (ns). *)
let parse_ns = 3_200
let render_ns = 9_500
let validate_ns = 1_800
let bookkeeping_ns = 12_000
let assembly_ns_per_kb = 1_400

let packages () = Mux.packages () @ Pq.packages ()

let main_package () =
  Runtime.package "main" ~imports:[ Mux.pkg; Pq.pkg ]
    ~functions:
      [
        ("main", 1024);
        ("http_srv_body", 2048);
        ("db_proxy_body", 2048);
        ("glue", 2048);
        ("render", 1024);
      ]
    ~globals:
      [
        ("db_password", 64, Some (Bytes.of_string "correct-horse-battery"));
        ("page_template", 4096, Some (Bytes.of_string "<html><body>{{body}}</body></html>"));
      ]
    ~enclosures:
      [
        {
          Encl_elf.Objfile.enc_name = "http_srv";
          enc_policy = "; sys=net";
          enc_closure = "http_srv_body";
          enc_deps = [ Mux.pkg ];
        };
        {
          Encl_elf.Objfile.enc_name = "db_proxy";
          enc_policy =
            Printf.sprintf "; sys=net,connect(%s)"
              (Encl_kernel.Net.string_of_addr db_ip);
          enc_closure = "db_proxy_body";
          enc_deps = [ Pq.pkg ];
        };
      ]
    ()

let setup_remote_db rt =
  let db = Minidb.create () in
  let net = (Runtime.machine rt).Machine.net in
  ignore
    (Encl_kernel.Net.register_remote net ~ip:db_ip ~port:db_port
       ~respond:(Minidb.wire_server db) "postgres");
  let seed sql =
    match Minidb.exec db sql with
    | Ok _ -> ()
    | Error e -> failwith ("wiki: seeding the database failed: " ^ e)
  in
  seed "CREATE TABLE pages (title, body)";
  seed "INSERT INTO pages VALUES ('home', 'Welcome to the wiki')";
  seed "INSERT INTO pages VALUES ('about', 'A wiki about enclosures')";
  db

(* The tallies live in the machine's counter registry ({!Serve}), fresh
   on every boot; perfbench/ still calls this after its boots. *)
let reset_counters () = ()

type action = View of string | Create of string * string | Not_found

type db_op = Select of string | Insert of string * string

(* Enclosure C: the database proxy. Accepts operations on a channel,
   talks to Postgres, returns rows to trusted code. *)
let db_proxy_loop rt ~db_req ~db_resp () =
  let conn = Pq.connect rt ~ip:db_ip ~port:db_port in
  let rec loop () =
    let op = Channel.recv db_req in
    let sql =
      match op with
      | Select title -> Printf.sprintf "SELECT body FROM pages WHERE title = '%s'" title
      | Insert (title, body) ->
          Printf.sprintf "INSERT INTO pages VALUES ('%s', '%s')" title body
    in
    (* The proxy must always answer: a fault here would otherwise leave
       the glue goroutine blocked on [db_resp] forever (the deadlock
       detector would flag it). Pq reconnects on dropped connections;
       an enclosure fault degrades to a database-error reply. *)
    let resp =
      match Pq.query rt conn sql with
      | r -> r
      | exception e -> (
          match Runtime.absorb_fault rt e with
          | Some reason -> Error ("proxy fault: " ^ reason)
          | None -> raise e)
    in
    Channel.send db_resp resp;
    loop ()
  in
  loop ()

(* Trusted glue: reads forwarded requests, drives the proxy, validates,
   renders HTML. *)
let glue_loop rt ~http_req ~db_req ~db_resp () =
  let m = Runtime.machine rt in
  let template = Gbuf.read_string m (Runtime.global rt ~pkg:"main" "page_template") in
  (* The global's section is larger than the initializer: cut at NUL. *)
  let template =
    match String.index_opt template '\000' with
    | Some i -> String.sub template 0 i
    | None -> template
  in
  let render body =
    Serve.charge rt Clock.Compute render_ns;
    let html =
      match String.index_opt template '{' with
      | Some i ->
          String.sub template 0 i ^ body
          ^ String.sub template (i + 8) (String.length template - i - 8)
      | None -> body
    in
    (* The response is handed to the enclosed HTTP server, which can only
       see mux's resources: stage it in mux's arena (trusted code may
       write anywhere). *)
    let buf = Runtime.alloc_in rt ~pkg:Mux.pkg (String.length html) in
    Gbuf.write_string m buf html;
    buf
  in
  let rec loop () =
    let action, reply = Channel.recv http_req in
    (* Netpoller work happens on the trusted side. *)
    Runtime.syscall_nowait rt K.Epoll_wait;
    Runtime.syscall_nowait rt K.Futex;
    Runtime.syscall_nowait rt K.Clock_gettime;
    let resp =
      match action with
      | View title -> (
          Channel.send db_req (Select title);
          match Channel.recv db_resp with
          | Ok ((body :: _) :: _) ->
              Serve.charge rt Clock.Compute validate_ns;
              render body
          | Ok _ -> render "(no such page)"
          | Error e -> render ("(database error: " ^ e ^ ")"))
      | Create (title, body) -> (
          Channel.send db_req (Insert (title, body));
          match Channel.recv db_resp with
          | Ok _ ->
              Serve.charge rt Clock.Compute validate_ns;
              render "created"
          | Error e -> render ("(database error: " ^ e ^ ")"))
      | Not_found -> render "404 not found"
    in
    Runtime.syscall_nowait rt K.Futex;
    Runtime.syscall_nowait rt K.Clock_gettime;
    Channel.send reply resp;
    loop ()
  in
  loop ()

(* Enclosure B: the mux-based HTTP server. A connection's fiber runs
   inside the http_srv environment, so a faulting request ends that
   fiber only and its fd stays for trusted code (close(2) is a file
   call, denied under net-only). *)
let http_conn rt ~conn_fd ~router ~http_req () =
  let m = Runtime.machine rt in
  let http_resp = Channel.create (Runtime.sched rt) ~cap:1 in
  let reqbuf = Runtime.alloc_in rt ~pkg:Mux.pkg 4096 in
  let handle () =
    match
      Retry.with_backoff rt ~op:"wiki.recv" (fun () ->
          Runtime.syscall_batched rt
            (K.Recv { fd = conn_fd; buf = reqbuf.Gbuf.addr; len = 4096 }))
    with
    | Error _ | Ok 0 -> false
    | Ok n ->
        Serve.charge rt Clock.Compute parse_ns;
        let raw =
          Bytes.to_string (Cpu.read_bytes m.Machine.cpu ~addr:reqbuf.Gbuf.addr ~len:n)
        in
        let meth, path = Serve.request_line raw in
        let body =
          match String.index_opt raw '|' with
          | Some i -> String.sub raw (i + 1) (String.length raw - i - 1) |> String.trim
          | None -> ""
        in
        let action =
          match Mux.route rt router ~meth ~path with
          | Some mk -> mk ~path ~body
          | None -> Not_found
        in
        Runtime.syscall_nowait rt (K.Setsockopt conn_fd);
        Channel.send http_req (action, http_resp);
        let page = Channel.recv http_resp in
        let headers = Serve.head page.Gbuf.len in
        let total = String.length headers + page.Gbuf.len in
        let resp = Runtime.alloc_in rt ~pkg:Mux.pkg total in
        Gbuf.write_string m (Gbuf.sub resp ~pos:0 ~len:(String.length headers)) headers;
        Gbuf.blit m ~src:page
          ~dst:(Gbuf.sub resp ~pos:(String.length headers) ~len:page.Gbuf.len);
        Serve.charge rt Clock.Io (assembly_ns_per_kb * (total / 1024));
        ignore
          (Retry.send_all rt ~op:"wiki.send" ~fd:conn_fd ~buf:resp.Gbuf.addr ~len:total);
        Serve.charge rt Clock.Compute bookkeeping_ns;
        Serve.note_served rt;
        true
  in
  Serve.connection rt ~conn_fd ~close:false handle

let page_title path =
  match String.split_on_char '/' path with
  | _ :: "page" :: title :: _ -> title
  | _ -> "home"

let http_srv_loop rt ~port ~http_req () =
  let router = Mux.router rt in
  Mux.handle router ~meth:"GET" ~pattern:"/page/" (fun ~path ~body:_ ->
      View (page_title path));
  Mux.handle router ~meth:"POST" ~pattern:"/page/" (fun ~path ~body ->
      Create (page_title path, body));
  let fd = Serve.listen rt ~port in
  Serve.accept_loop rt ~fd ~label:"wiki accept" (fun conn_fd ->
      http_conn rt ~conn_fd ~router ~http_req)

let start rt ~port ~enclosed () =
  let sched = Runtime.sched rt in
  let http_req = Channel.create sched ~cap:64 in
  let db_req = Channel.create sched ~cap:16 in
  let db_resp = Channel.create sched ~cap:16 in
  let enclosure name = if enclosed then Some name else None in
  Serve.spawn rt ?enclosure:(enclosure "db_proxy") (db_proxy_loop rt ~db_req ~db_resp);
  Runtime.go rt (glue_loop rt ~http_req ~db_req ~db_resp);
  Serve.spawn rt ?enclosure:(enclosure "http_srv") (http_srv_loop rt ~port ~http_req)
