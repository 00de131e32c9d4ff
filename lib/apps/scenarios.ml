module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Sysno = Encl_kernel.Sysno
module Net = Encl_kernel.Net
module Machine = Encl_litterbox.Machine
module Fault = Encl_fault.Fault

type config = Lb.backend option

let config_name = function
  | None -> "Baseline"
  | Some backend -> Lb.backend_name backend

type report = {
  ops : int;
  cpu_ns : int;
  wall_ns : int;
  metrics : (string * float) list;
}

type outcome = (Runtime.t * report, string) result

let metric r name = List.assoc name r.metrics

let pp_report r =
  String.concat " "
    (Printf.sprintf "ops=%d cpu_ns=%d wall_ns=%d" r.ops r.cpu_ns r.wall_ns
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%.10g" k v) r.metrics)

let runtime_config ?rcfg config =
  match rcfg with
  | Some c -> c
  | None -> (
      match config with
      | None -> Runtime.baseline
      | Some b -> Runtime.with_backend b)

let with_cores ?rcfg ?cores config =
  match cores with
  | None -> rcfg
  | Some c -> Some { (runtime_config ?rcfg config) with Runtime.cores = c }

let boot_exn ?rcfg config ~packages ~entry =
  match Runtime.boot (runtime_config ?rcfg config) ~packages ~entry with
  | Ok rt -> rt
  | Error e -> failwith ("scenario boot: " ^ e)

(* Open the measured span: the returned function closes it into a report
   of [ops] with the metrics [metrics cpu_ns wall_ns]. *)
let measure rt =
  let clock = Runtime.clock rt in
  let t0 = Clock.now clock and w0 = Clock.wall clock in
  fun ~ops metrics ->
    let cpu_ns = Clock.now clock - t0 and wall_ns = Clock.wall clock - w0 in
    Ok (rt, { ops; cpu_ns; wall_ns; metrics = metrics cpu_ns wall_ns })

(* A program's main package: [main] plus the closure [body] of its one
   enclosure [enc], which runs [policy] over [deps]. *)
let main_package ~imports ~body:(closure, size) ~enc ~policy ~deps =
  Runtime.package "main" ~imports
    ~functions:[ ("main", 512); (closure, size) ]
    ~enclosures:
      [
        {
          Encl_elf.Objfile.enc_name = enc;
          enc_policy = policy;
          enc_closure = closure;
          enc_deps = deps;
        };
      ]
    ()

let table1_packages () =
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
            (* A distinct memory view from "enc" so the two enclosures
               get distinct PKRU values: LB_MPK's seccomp program
               dispatches on PKRU and merges filters of identical views
               fail-closed. *)
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

(* ------------------------------------------------------------------ *)
(* bild                                                                *)

let bild config ?rcfg ?(width = 1024) ?(height = 1024) ?(iters = 3) () =
  if iters < 1 then
    Error
      (Printf.sprintf "bild needs at least 1 measured iteration, got %d" iters)
  else
  let secrets =
    Runtime.package "secrets" ~functions:[ ("load_image", 256) ] ()
  in
  let main =
    main_package ~imports:[ Bild.pkg; "secrets" ] ~body:("rcl_body", 256)
      ~enc:"rcl" ~policy:"secrets:R; sys=none" ~deps:[ Bild.pkg ]
  in
  let rt =
    boot_exn ?rcfg config
      ~packages:(main :: secrets :: Bild.packages ())
      ~entry:"main"
  in
  let m = Runtime.machine rt in
  (* The sensitive image lives in the secrets package's arena. *)
  let size = width * height * 4 in
  let image = Runtime.alloc_in rt ~pkg:"secrets" size in
  Gbuf.fill m image 0x55;
  let checksum = ref 0 in
  let invert_once () =
    Runtime.with_enclosure rt "rcl" (fun () ->
        Bild.invert rt ~src:image ~width ~height)
  in
  (* Warm-up (hardware and allocator caches, as in any benchmark). *)
  ignore (invert_once ());
  let transfer_count () =
    match Runtime.lb rt with Some lb -> Lb.transfer_count lb | None -> 0
  in
  let transfers0 = transfer_count () in
  let finish = measure rt in
  for _ = 1 to iters do
    let out = invert_once () in
    checksum := Bild.checksum rt out
  done;
  let transfers = transfer_count () - transfers0 in
  finish ~ops:iters (fun elapsed _ ->
      [
        ("ns_per_invert", float_of_int (elapsed / iters));
        ("transfers", float_of_int (transfers / iters));
        ("checksum", float_of_int !checksum);
      ])

(* ------------------------------------------------------------------ *)
(* HTTP servers                                                        *)

let page_bytes = 13 * 1024

let assets_package () =
  Runtime.package "assets"
    ~constants:[ ("index_html", page_bytes, Some (Bytes.make page_bytes 'x')) ]
    ()

let rate ops ns = float_of_int ops /. (float_of_int ns /. 1e9)

(* Drive [requests] requests over [conns] persistent connections and
   measure the steady state. The request rate is over total CPU time,
   or over the makespan (the slowest core's lane) with [makespan].
   The server's answered requests are the machine's "http.served"
   total. *)
let drive ?(makespan = false) rt ~port ~requests ~conns =
  if conns < 1 || requests < conns then
    Error
      (Printf.sprintf
         "%d requests over %d connections: need at least one request per \
          connection to measure a round"
         requests conns)
  else
  let m = Runtime.machine rt in
  let kernel = m.Machine.kernel in
  (* Let the server start. *)
  Runtime.kick rt;
  let eps = List.init conns (fun _ -> Httpd.client_connect rt ~port) in
  Runtime.kick rt;
  (* Warm-up round. *)
  List.iter (fun ep -> Httpd.client_get rt ep ~path:"/page/home") eps;
  Runtime.kick rt;
  List.iter (fun ep -> ignore (Httpd.client_read_response rt ep)) eps;
  let finish = measure rt in
  let sys0 = K.syscall_count kernel in
  let served () = Serve.total rt Serve.served_counter in
  let served0 = served () in
  let rounds = requests / conns in
  for _ = 1 to rounds do
    List.iter (fun ep -> Httpd.client_get rt ep ~path:"/page/home") eps;
    Runtime.kick rt;
    List.iter
      (fun ep ->
        let resp = Httpd.client_read_response rt ep in
        if Bytes.length resp = 0 then failwith "empty response")
      eps
  done;
  let handled = served () - served0 in
  if handled < rounds * conns then
    failwith
      (Printf.sprintf "server fell behind: %d/%d requests" handled (rounds * conns));
  let syscalls = K.syscall_count kernel - sys0 in
  finish ~ops:handled (fun elapsed wall ->
      [
        ("req_per_sec", rate handled (if makespan then wall else elapsed));
        ("syscalls_per_req", float_of_int syscalls /. float_of_int handled);
      ])

(* The net/http program: an enclosed request handler (no packages, no
   system calls) that selects the in-memory 13 KB page. *)
let http_boot ?rcfg config =
  let main =
    main_package ~imports:[ Httpd.pkg; "assets" ] ~body:("handler_body", 256)
      ~enc:"handler_enc" ~policy:"assets:R; sys=none" ~deps:[]
  in
  let packages = main :: assets_package () :: Httpd.packages () in
  boot_exn ?rcfg config ~packages ~entry:"main"

(* Serve the page on [port]. [render_ns] is per-request template
   compute, charged to the lane of whichever core runs the connection's
   fiber; [fallback] is a trusted page served once the handler's
   enclosure is quarantined. *)
let http_serve ?(render_ns = 0) ?fallback rt ~port =
  let page = Runtime.global rt ~pkg:"assets" "index_html" in
  let m = Runtime.machine rt in
  let clock = Runtime.clock rt in
  let enclosed () =
    Runtime.with_enclosure rt "handler_enc" (fun () ->
        ignore (Gbuf.get m page 0);
        Clock.consume clock Clock.Compute render_ns;
        page)
  in
  let handler ~meth:_ ~path:_ =
    match fallback with
    | None -> enclosed ()
    | Some body -> ( try enclosed () with Lb.Quarantined _ -> body)
  in
  Runtime.run_main rt (fun () -> Httpd.serve rt ~port ~handler)

let http config ?rcfg ?(requests = 2000) ?(conns = 8) () =
  let rt = http_boot ?rcfg config in
  http_serve rt ~port:8080;
  drive rt ~port:8080 ~requests ~conns

let fasthttp config ?rcfg ?(requests = 2000) ?(conns = 8) () =
  let main =
    main_package ~imports:[ Fasthttp.pkg; "assets" ] ~body:("srv_body", 256)
      ~enc:"fasthttp_srv" ~policy:"; sys=net" ~deps:[ Fasthttp.pkg ]
  in
  let packages = main :: assets_package () :: Fasthttp.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  let page = Runtime.global rt ~pkg:"assets" "index_html" in
  (* The enclosed server cannot see the assets package; the trusted
     handler stages the body into a server-owned buffer (fasthttp's
     ctx.SetBody), reused across requests. *)
  let m = Runtime.machine rt in
  let staged = Runtime.alloc_in rt ~pkg:Fasthttp.pkg page_bytes in
  Gbuf.blit m ~src:page ~dst:staged;
  let handler (_ : Fasthttp.request) = staged in
  let enclosure = match config with None -> None | Some _ -> Some "fasthttp_srv" in
  Runtime.run_main rt (fun () ->
      Fasthttp.serve_enclosed rt ~port:8081 ~enclosure ~handler);
  drive rt ~port:8081 ~requests ~conns

(* ------------------------------------------------------------------ *)
(* Wiki (Figure 5)                                                     *)

let wiki_boot ?rcfg config =
  let packages = Wiki.main_package () :: Wiki.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  let _db = Wiki.setup_remote_db rt in
  Runtime.run_main rt (fun () ->
      Wiki.start rt ~port:8090 ~enclosed:(config <> None) ());
  rt

let wiki config ?rcfg ?cores ?(requests = 1000) ?(conns = 4) () =
  let rt = wiki_boot ?rcfg:(with_cores ?rcfg ?cores config) config in
  drive rt ~port:8090 ~requests ~conns

(* ------------------------------------------------------------------ *)
(* pq: an enclosed database client                                     *)

(* The database driver alone inside an enclosure: connect once, then a
   query loop against the mini-Postgres remote. The whole untrusted
   surface is pq and its dependency tree, so the least-privilege policy
   is exactly the db_proxy grant — net syscalls narrowed to the
   database address — which makes this the policy miner's third
   reference scenario (http mines memory, wiki mines two enclosures,
   pq mines a connect narrowing in isolation). *)
let pq config ?rcfg ?cores ?(workers = 1) ?(queries = 200) () =
  let rcfg = with_cores ?rcfg ?cores config in
  let main =
    main_package ~imports:[ Pq.pkg ] ~body:("pq_body", 512) ~enc:"pq_enc"
      ~policy:
        (Printf.sprintf "; sys=net,connect(%s)" (Net.string_of_addr Wiki.db_ip))
      ~deps:[ Pq.pkg ]
  in
  let rt =
    boot_exn ?rcfg config ~packages:(main :: Pq.packages ()) ~entry:"main"
  in
  let _db = Wiki.setup_remote_db rt in
  let completed = ref 0 in
  let finish = measure rt in
  let sql = "SELECT body FROM pages WHERE title = 'home'" in
  (* No [Pq.close]: close(2) is file-category and denied under the
     net-only filter; trusted code sweeps the fd (same division of labor
     as the wiki's db proxy). *)
  let query_loop n =
    let conn = Pq.connect rt ~ip:Wiki.db_ip ~port:Wiki.db_port in
    for _ = 1 to n do
      match Pq.query rt conn sql with
      | Ok _ -> incr completed
      | Error e -> failwith ("pq query: " ^ e)
    done
  in
  (if workers <= 1 then
     Runtime.run_main rt (fun () ->
         Runtime.with_enclosure rt "pq_enc" (fun () -> query_loop queries))
   else
     (* Parallel query fibers, spawned inside the enclosure environment
        (inherited at spawn, like fasthttp's connection fibers): each
        worker owns a connection, and with a sharded machine the fibers
        spread over the cores by work stealing. *)
     Runtime.run_main rt (fun () ->
         Runtime.with_enclosure rt "pq_enc" (fun () ->
             let finished = ref 0 in
             let per = queries / workers in
             for w = 0 to workers - 1 do
               let n =
                 if w = workers - 1 then queries - (per * (workers - 1))
                 else per
               in
               Runtime.go rt (fun () ->
                   query_loop n;
                   incr finished)
             done;
             Encl_golike.Sched.wait_until (Runtime.sched rt) (fun () ->
                 !finished = workers))));
  Runtime.kick rt;
  if !completed < queries then
    failwith (Printf.sprintf "pq: %d/%d queries completed" !completed queries);
  finish ~ops:!completed (fun elapsed _ ->
      [ ("ns_per_query", float_of_int (elapsed / max 1 queries)) ])

(* ------------------------------------------------------------------ *)
(* zerocopy_http: the zero-copy data plane end to end                  *)

let zc_static_path = "/srv/index.html"

(* The ring arena's owning package: attach_netring's heap spans are
   transferred to it, so "netring:R" in a policy grants read-only view
   of the descriptors. The anchor global just makes it linkable. *)
let netring_package () =
  Runtime.package Runtime.netring_pkg
    ~globals:[ ("ring_anchor", 64, None) ]
    ()

(* The fasthttp server in zero-copy serving mode: requests read in
   place from the rx view ring, the 13 KiB static body spliced from the
   VFS with sendfile(2). The identical syscall sequence runs with
   ENCL_ZEROCOPY off (the kernel bounce-copies internally), so the flag
   moves only time and the bytes_copied ledger — which is exactly what
   the A/B runner and the CI enforcement pin check. *)
let zerocopy_http config ?rcfg ?(requests = 2000) ?(conns = 8) () =
  let main =
    main_package ~imports:[ Fasthttp.pkg; Runtime.netring_pkg ]
      ~body:("srv_body", 256) ~enc:"zc_srv"
      ~policy:(Runtime.netring_pkg ^ ":R; sys=net,io")
      ~deps:[ Fasthttp.pkg ]
  in
  let packages = main :: netring_package () :: Fasthttp.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  let m = Runtime.machine rt in
  (* Static body on the VFS, opened read-only by trusted setup — the
     net,io filter denies open(2) inside the enclosure. *)
  let module Vfs = Encl_kernel.Vfs in
  let vfs_ok = function
    | Ok () -> ()
    | Error e -> failwith ("zerocopy_http: " ^ Vfs.errno_name e)
  in
  vfs_ok (Vfs.mkdir_p m.Machine.vfs "/srv");
  vfs_ok
    (Vfs.create_file m.Machine.vfs zc_static_path (Bytes.make page_bytes 'x'));
  let file_fd =
    Runtime.syscall_exn rt (K.Open { path = zc_static_path; flags = [ K.O_rdonly ] })
  in
  let ring = Runtime.attach_netring rt () in
  let enclosure = match config with None -> None | Some _ -> Some "zc_srv" in
  Runtime.run_main rt (fun () ->
      Fasthttp.serve_zc rt ~port:8082 ~ring ~file_fd ~file_len:page_bytes
        ~enclosure);
  drive rt ~port:8082 ~requests ~conns

(* ------------------------------------------------------------------ *)
(* smp_http: the HTTP server sharded across simulated cores            *)

(* The http program with a per-request template-render cost and the
   request rate measured against the makespan (the slowest core's
   lane) rather than total CPU time. The render compute is what scales
   across cores: connection fibers spread over the shard by work
   stealing while the client loop stays serial on core 0 (the
   scenario's Amdahl bound). The core count follows [ENCL_CORES] unless
   pinned, so benchmark rows pin it per call. *)
let smp_http config ?rcfg ?cores ?(requests = 4096) ?(conns = 64)
    ?(render_ns = 30_000) () =
  let rt = http_boot ?rcfg:(with_cores ?rcfg ?cores config) config in
  http_serve rt ~port:8088 ~render_ns;
  drive ~makespan:true rt ~port:8088 ~requests ~conns

(* ------------------------------------------------------------------ *)
(* Chaos: workloads under deterministic fault injection                *)

let arm rt ~seed ~budget rules =
  let inject = (Runtime.machine rt).Machine.inject in
  Fault.set_seed inject seed;
  Fault.arm_plan inject rules;
  match Runtime.lb rt with
  | Some lb -> Lb.set_fault_budget lb budget
  | None -> ()

(* A fault-tolerant client driver: every request counts as sent; a
   connection the server tore down (or the injector dropped) is
   re-dialed and the lost request stays unserved. Success is counted on
   the client side — the attempt saw response bytes — so one attempt can
   never score more than once (an injected short read can split one
   request into two server-side handle cycles, which would inflate a
   server-side counter). The injector is disarmed before the tallies are
   read; the contained connection faults and pq re-dials are the
   machine's "http.conn_failed" and "pq.reconnect" totals. *)
let chaos_drive rt ~port ~requests ~conns ~enclosure =
  if conns < 1 then
    Error (Printf.sprintf "chaos needs a connection, got %d" conns)
  else
  let m = Runtime.machine rt in
  let net = m.Machine.net in
  let finish = measure rt in
  Runtime.kick rt;
  let connect () =
    match Net.client_connect net ~port with
    | Ok ep -> ep
    | Error e -> failwith ("chaos client_connect: " ^ e)
  in
  let eps = Array.init conns (fun _ -> connect ()) in
  Runtime.kick rt;
  let answered = ref 0 in
  (* A fresh buffer per send: the stream keeps the one it is given. *)
  let req () = Bytes.of_string "GET /page/home HTTP/1.1\r\nHost: sim\r\n\r\n" in
  for i = 0 to requests - 1 do
    let idx = i mod conns in
    (* Like any real client fetching an idempotent GET: one retry on a
       fresh connection when the first try died under the request. *)
    let rec attempt tries =
      if Net.ep_closed eps.(idx) then eps.(idx) <- connect ();
      match Net.send net eps.(idx) (req ()) with
      | Ok _ ->
          Runtime.kick rt;
          let got = ref false in
          let rec drain () =
            match Net.recv net eps.(idx) 65536 with
            | Net.Data _ ->
                got := true;
                drain ()
            | Net.Would_block | Net.Eof -> ()
          in
          drain ();
          if !got then true
          else if tries > 0 then begin
            eps.(idx) <- connect ();
            attempt (tries - 1)
          end
          else false
      | Error _ ->
          eps.(idx) <- connect ();
          if tries > 0 then attempt (tries - 1) else false
    in
    if attempt 1 then incr answered
  done;
  Runtime.kick rt;
  Fault.disarm_all m.Machine.inject;
  let lb = Runtime.lb rt in
  let count n = float_of_int n in
  finish ~ops:!answered (fun _ _ ->
      [
        ("sent", count requests);
        ("served", count !answered);
        ( "availability",
          float_of_int !answered /. float_of_int (max 1 requests) );
        ("injected", count (Fault.total_fired m.Machine.inject));
        ( "faults",
          count (match lb with Some lb -> Lb.fault_count lb | None -> 0) );
        ("kills", count (Sched.kill_count (Runtime.sched rt)));
        ("conns_failed", count (Serve.total rt Serve.conn_failed_counter));
        ( "quarantined",
          match (lb, enclosure) with
          | Some lb, Some enc when Lb.quarantined lb enc -> 1.0
          | _ -> 0.0 );
        ("reconnects", count (Serve.total rt Pq.reconnect_counter));
      ])

let pp_chaos_result r =
  let n k = int_of_float (metric r k) in
  Printf.sprintf
    "sent=%d served=%d availability=%.3f injected=%d faults=%d kills=%d \
     conns_failed=%d quarantined=%b reconnects=%d"
    (n "sent") (n "served") (metric r "availability") (n "injected")
    (n "faults") (n "kills") (n "conns_failed") (n "quarantined" = 1)
    (n "reconnects")

(* The HTTP chaos scenario: spurious page faults inside the request
   handler's enclosure. Containment shows up at three levels — the
   faulting request's connection is closed (not the server), the
   enclosure is quarantined once it exhausts its fault budget, and the
   handler then degrades to a trusted fallback page so availability
   recovers. *)
(* A rate that is not a probability is input the scenario cannot
   measure: refuse it. *)
let check_rate rate k =
  if Fault.valid_prob rate then k ()
  else Error (Printf.sprintf "rate %g is not a probability in [0, 1]" rate)

(* Every firing of cpu.spurious_fault is accounted as exactly one
   LitterBox fault: the injector's own fire count and the fault counter
   are derived independently. *)
let chaos_fault_accounting rt =
  let fired =
    Fault.fired (Runtime.machine rt).Machine.inject "cpu.spurious_fault"
  in
  let faults = match Runtime.lb rt with Some lb -> Lb.fault_count lb | None -> 0 in
  if faults = fired then Ok ()
  else
    Error
      (Printf.sprintf
         "fault accounting diverged: %d faults for %d cpu.spurious_fault \
          firings"
         faults fired)

let chaos_http config ?rcfg ?(seed = 42L) ?(rate = 0.10) ?(budget = 5)
    ?(requests = 500) ?(conns = 8) () =
  check_rate rate @@ fun () ->
  let rt = http_boot ?rcfg config in
  (* Trusted fallback body, staged in the server's own arena so the
     serving loop can read it once the enclosure is off-line. *)
  let fallback = Runtime.alloc_in rt ~pkg:Httpd.pkg 512 in
  Gbuf.fill (Runtime.machine rt) fallback 0x66;
  arm rt ~seed ~budget
    [
      Fault.rule ~prob:rate ~env_prefix:(Cpu.enclosure_label "")
        "cpu.spurious_fault";
    ];
  http_serve rt ~port:8080 ~fallback;
  chaos_drive rt ~port:8080 ~requests ~conns ~enclosure:(Some "handler_enc")

(* The wiki chaos scenario: network-level failures (dropped connections,
   short reads/writes, transient errnos) across the whole stack,
   exercising the retry helpers and the pq -> minidb reconnect. *)
let chaos_wiki config ?rcfg ?(seed = 42L) ?(rate = 0.05) ?(budget = 5)
    ?(requests = 400) ?(conns = 4) () =
  check_rate rate @@ fun () ->
  let rt = wiki_boot ?rcfg config in
  arm rt ~seed ~budget
    (List.map
       (Fault.rule ~prob:rate)
       [
         "net.conn_drop";
         "net.partial_read";
         "net.partial_write";
         "kernel.transient_eintr";
         "kernel.transient_eagain";
       ]);
  chaos_drive rt ~port:8090 ~requests ~conns ~enclosure:None

(* ------------------------------------------------------------------ *)
(* Enforcement summary                                                 *)

(* Memory-management syscalls (mmap, pkey_mprotect, ...) are left out:
   their counts follow allocator span growth and GC timing, which
   legitimately move with fiber interleaving, backend (MPK transfers
   call pkey_mprotect) and core count. The ring never carries them —
   every syscall the apps make is non-mem, and those must match
   call-for-call. *)
let workload_syscalls rt =
  List.filter
    (fun (nr, _) -> Sysno.category nr <> Sysno.Cat_mem)
    (K.trace (Runtime.machine rt).Machine.kernel)

(* Only quantities no knob, core count or backend may move appear: the
   rx ring's descriptor counters are enforcement state, bytes copied
   (which the zero-copy knob moves) is not. The two line shapes are
   pinned in bench/enforcement_pin.txt. *)
let enforcement ~label rt r =
  let trace = workload_syscalls rt in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 trace in
  let faults, ring_balanced =
    match Runtime.lb rt with
    | Some lb ->
        ( Lb.fault_count lb,
          Lb.ring_submitted_count lb
          = Lb.ring_drained_count lb + Lb.ring_pending lb )
    | None -> (0, true)
  in
  let kernel = (Runtime.machine rt).Machine.kernel in
  let ring =
    if K.rxring_attached kernel then
      let g, c, rc = K.rxring_counters kernel in
      Printf.sprintf "rxring=%d/%d/%d balanced=%b" g c rc (g = c + rc)
    else Printf.sprintf "ring_balanced=%b" ring_balanced
  in
  Printf.sprintf "  %-16s served=%d workload_syscalls=%d faults=%d %s" label
    r.ops total faults ring
  :: List.map
       (fun (nr, n) -> Printf.sprintf "    sys %-14s %d" (Sysno.name nr) n)
       trace

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

type runner =
  config -> ?rcfg:Runtime.config -> ?requests:int -> unit -> outcome

let registry : (string * runner) list =
  [
    (* [requests] does not apply: bild is iteration-driven. *)
    ("bild", fun c ?rcfg ?requests:_ () -> bild c ?rcfg ());
    ("http", fun c ?rcfg ?requests () -> http c ?rcfg ?requests ());
    ("fasthttp", fun c ?rcfg ?requests () -> fasthttp c ?rcfg ?requests ());
    ("wiki", fun c ?rcfg ?requests () -> wiki c ?rcfg ?requests ());
    ("pq", fun c ?rcfg ?requests () -> pq c ?rcfg ?queries:requests ());
    ("smp_http", fun c ?rcfg ?requests () -> smp_http c ?rcfg ?requests ());
    ( "zerocopy_http",
      fun c ?rcfg ?requests () -> zerocopy_http c ?rcfg ?requests () );
  ]

let find name =
  match List.assoc_opt name registry with
  | Some run -> Ok run
  | None ->
      Error
        (Printf.sprintf "unknown scenario %s (choose from: %s)" name
           (String.concat ", " (List.map fst registry)))

let wiki_check config =
  let rt = wiki_boot config in
  Runtime.kick rt;
  let ep = Httpd.client_connect rt ~port:8090 in
  (* Create a page, then read it back. *)
  let post = "POST /page/ocaml HTTP/1.1\r\nHost: sim\r\n\r\n|Enclosures in OCaml" in
  (match Net.send (Runtime.machine rt).Machine.net ep (Bytes.of_string post) with
  | Ok _ -> ()
  | Error e -> failwith e);
  Runtime.kick rt;
  ignore (Httpd.client_read_response rt ep);
  Httpd.client_get rt ep ~path:"/page/ocaml";
  Runtime.kick rt;
  let resp = Bytes.to_string (Httpd.client_read_response rt ep) in
  if resp = "" then Error "no response"
  else
    match String.index_opt resp '<' with
    | Some i -> Ok (String.sub resp i (String.length resp - i))
    | None -> Error ("unexpected response: " ^ resp)
