module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net
module Machine = Encl_litterbox.Machine

type config = Lb.backend option

let config_name = function
  | None -> "Baseline"
  | Some backend -> Lb.backend_name backend

let runtime_config ?rcfg config =
  match rcfg with
  | Some c -> c
  | None -> (
      match config with
      | None -> Runtime.baseline
      | Some b -> Runtime.with_backend b)

let boot_exn ?rcfg config ~packages ~entry =
  match Runtime.boot (runtime_config ?rcfg config) ~packages ~entry with
  | Ok rt -> rt
  | Error e -> failwith ("scenario boot: " ^ e)

(* ------------------------------------------------------------------ *)
(* bild                                                                *)

type bild_result = {
  b_ns_per_invert : int;
  b_transfers : int;
  b_checksum : int;
}

let bild_rt config ?rcfg ?(width = 1024) ?(height = 1024) ?(iters = 3) () =
  let secrets =
    Runtime.package "secrets" ~functions:[ ("load_image", 256) ] ()
  in
  let main =
    Runtime.package "main"
      ~imports:[ Bild.pkg; "secrets" ]
      ~functions:[ ("main", 512); ("rcl_body", 256) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "rcl";
            enc_policy = "secrets:R; sys=none";
            enc_closure = "rcl_body";
            enc_deps = [ Bild.pkg ];
          };
        ]
      ()
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
  let transfers0 =
    match Runtime.lb rt with Some lb -> Lb.transfer_count lb | None -> 0
  in
  let clock = Runtime.clock rt in
  let t0 = Clock.now clock in
  for _ = 1 to iters do
    let out = invert_once () in
    checksum := Bild.checksum rt out
  done;
  let elapsed = Clock.now clock - t0 in
  let transfers =
    (match Runtime.lb rt with Some lb -> Lb.transfer_count lb | None -> 0)
    - transfers0
  in
  ( rt,
    {
      b_ns_per_invert = elapsed / iters;
      b_transfers = transfers / max 1 iters;
      b_checksum = !checksum;
    } )

let bild config ?rcfg ?width ?height ?iters () =
  snd (bild_rt config ?rcfg ?width ?height ?iters ())

(* ------------------------------------------------------------------ *)
(* HTTP servers                                                        *)

type http_result = {
  h_requests : int;
  h_ns : int;
  h_req_per_sec : float;
  h_syscalls_per_req : float;
}

let page_bytes = 13 * 1024

let assets_package () =
  Runtime.package "assets"
    ~constants:[ ("index_html", page_bytes, Some (Bytes.make page_bytes 'x')) ]
    ()

(* Drive [requests] requests over [conns] persistent connections and
   measure the steady state. *)
let drive rt ~port ~requests ~conns ~served =
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
  let clock = Runtime.clock rt in
  let t0 = Clock.now clock in
  let sys0 = K.syscall_count kernel in
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
  let elapsed = Clock.now clock - t0 in
  let syscalls = K.syscall_count kernel - sys0 in
  {
    h_requests = handled;
    h_ns = elapsed;
    h_req_per_sec = float_of_int handled /. (float_of_int elapsed /. 1e9);
    h_syscalls_per_req = float_of_int syscalls /. float_of_int handled;
  }

let http_rt config ?rcfg ?(requests = 2000) ?(conns = 8) () =
  let main =
    Runtime.package "main"
      ~imports:[ Httpd.pkg; "assets" ]
      ~functions:[ ("main", 512); ("handler_body", 256) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "handler_enc";
            enc_policy = "assets:R; sys=none";
            enc_closure = "handler_body";
            enc_deps = [];
          };
        ]
      ()
  in
  let packages = main :: assets_package () :: Httpd.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  Httpd.reset_counters ();
  let page = Runtime.global rt ~pkg:"assets" "index_html" in
  let m = Runtime.machine rt in
  let handler ~meth:_ ~path:_ =
    Runtime.with_enclosure rt "handler_enc" (fun () ->
        (* The handler's logic selects the in-memory page. *)
        ignore (Gbuf.get m page 0);
        page)
  in
  Runtime.run_main rt (fun () -> Httpd.serve rt ~port:8080 ~handler);
  (rt, drive rt ~port:8080 ~requests ~conns ~served:Httpd.requests_served)

let http config ?rcfg ?requests ?conns () =
  snd (http_rt config ?rcfg ?requests ?conns ())

let fasthttp_rt config ?rcfg ?(requests = 2000) ?(conns = 8) () =
  let main =
    Runtime.package "main"
      ~imports:[ Fasthttp.pkg; "assets" ]
      ~functions:[ ("main", 512); ("srv_body", 256) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "fasthttp_srv";
            enc_policy = "; sys=net";
            enc_closure = "srv_body";
            enc_deps = [ Fasthttp.pkg ];
          };
        ]
      ()
  in
  let packages = main :: assets_package () :: Fasthttp.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  Fasthttp.reset_counters ();
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
  (rt, drive rt ~port:8081 ~requests ~conns ~served:Fasthttp.requests_served)

let fasthttp config ?rcfg ?requests ?conns () =
  snd (fasthttp_rt config ?rcfg ?requests ?conns ())

(* ------------------------------------------------------------------ *)
(* Wiki (Figure 5)                                                     *)

let wiki_boot ?rcfg config =
  let packages = Wiki.main_package () :: Wiki.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  let _db = Wiki.setup_remote_db rt in
  Wiki.reset_counters ();
  Runtime.run_main rt (fun () ->
      Wiki.start rt ~port:8090 ~enclosed:(config <> None) ());
  rt

(* [cores], when pinned, shards the machine: the per-connection serving
   fibers (and the proxy/glue goroutines) then spread over the shard by
   work stealing. Left unset, the config is byte-identical to the old
   single-core boot. *)
let wiki_rt config ?rcfg ?cores ?(requests = 1000) ?(conns = 4) () =
  let rcfg =
    match cores with
    | None -> rcfg
    | Some c -> Some { (runtime_config ?rcfg config) with Runtime.cores = c }
  in
  let rt = wiki_boot ?rcfg config in
  (rt, drive rt ~port:8090 ~requests ~conns ~served:Wiki.requests_served)

let wiki config ?rcfg ?cores ?requests ?conns () =
  snd (wiki_rt config ?rcfg ?cores ?requests ?conns ())

(* ------------------------------------------------------------------ *)
(* pq: an enclosed database client                                     *)

type pq_result = { p_queries : int; p_ns_per_query : int }

(* The database driver alone inside an enclosure: connect once, then a
   query loop against the mini-Postgres remote. The whole untrusted
   surface is pq and its dependency tree, so the least-privilege policy
   is exactly the db_proxy grant — net syscalls narrowed to the
   database address — which makes this the policy miner's third
   reference scenario (http mines memory, wiki mines two enclosures,
   pq mines a connect narrowing in isolation). *)
let pq_rt config ?rcfg ?cores ?(workers = 1) ?(queries = 200) () =
  let rcfg =
    match cores with
    | None -> rcfg
    | Some c -> Some { (runtime_config ?rcfg config) with Runtime.cores = c }
  in
  let main =
    Runtime.package "main" ~imports:[ Pq.pkg ]
      ~functions:[ ("main", 512); ("pq_body", 512) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "pq_enc";
            enc_policy =
              Printf.sprintf "; sys=net,connect(%s)"
                (Encl_kernel.Net.string_of_addr Wiki.db_ip);
            enc_closure = "pq_body";
            enc_deps = [ Pq.pkg ];
          };
        ]
      ()
  in
  let rt =
    boot_exn ?rcfg config ~packages:(main :: Pq.packages ()) ~entry:"main"
  in
  let _db = Wiki.setup_remote_db rt in
  Pq.reset_counters ();
  let completed = ref 0 in
  let clock = Runtime.clock rt in
  let t0 = Clock.now clock in
  let sql = "SELECT body FROM pages WHERE title = 'home'" in
  (if workers <= 1 then
     Runtime.run_main rt (fun () ->
         Runtime.with_enclosure rt "pq_enc" (fun () ->
             let conn = Pq.connect rt ~ip:Wiki.db_ip ~port:Wiki.db_port in
             for _ = 1 to queries do
               match Pq.query rt conn sql with
               | Ok _ -> incr completed
               | Error e -> failwith ("pq query: " ^ e)
             done
             (* No [Pq.close]: close(2) is file-category and denied under
                the net-only filter; trusted code sweeps the fd (same
                division of labor as the wiki's db proxy). *)))
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
                   let conn = Pq.connect rt ~ip:Wiki.db_ip ~port:Wiki.db_port in
                   for _ = 1 to n do
                     match Pq.query rt conn sql with
                     | Ok _ -> incr completed
                     | Error e -> failwith ("pq query: " ^ e)
                   done;
                   incr finished)
             done;
             Encl_golike.Sched.wait_until (Runtime.sched rt) (fun () ->
                 !finished = workers))));
  Runtime.kick rt;
  if !completed < queries then
    failwith (Printf.sprintf "pq: %d/%d queries completed" !completed queries);
  let elapsed = Clock.now clock - t0 in
  (rt, { p_queries = !completed; p_ns_per_query = elapsed / max 1 queries })

let pq config ?rcfg ?cores ?workers ?queries () =
  snd (pq_rt config ?rcfg ?cores ?workers ?queries ())

(* ------------------------------------------------------------------ *)
(* zerocopy_http: the zero-copy data plane end to end                  *)

type zc_result = {
  z_requests : int;
  z_req_per_sec : float;
  z_syscalls_per_req : float;
  z_bytes_copied : int;
  z_ring_granted : int;
  z_ring_consumed : int;
  z_ring_reclaimed : int;
}

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
   the profile gate and the CI enforcement byte-diff check. *)
let zerocopy_http_rt config ?rcfg ?(requests = 2000) ?(conns = 8) () =
  let main =
    Runtime.package "main"
      ~imports:[ Fasthttp.pkg; Runtime.netring_pkg ]
      ~functions:[ ("main", 512); ("srv_body", 256) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "zc_srv";
            enc_policy = Runtime.netring_pkg ^ ":R; sys=net,io";
            enc_closure = "srv_body";
            enc_deps = [ Fasthttp.pkg ];
          };
        ]
      ()
  in
  let packages = main :: netring_package () :: Fasthttp.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  Fasthttp.zc_reset_counters ();
  let m = Runtime.machine rt in
  let kernel = m.Machine.kernel in
  (* Static body on the VFS, opened read-only by trusted setup — the
     net,io filter denies open(2) inside the enclosure. *)
  let vfs = m.Machine.vfs in
  (match Encl_kernel.Vfs.mkdir_p vfs "/srv" with
  | Ok () -> ()
  | Error e -> failwith ("zerocopy_http: " ^ Encl_kernel.Vfs.errno_name e));
  (match
     Encl_kernel.Vfs.create_file vfs zc_static_path (Bytes.make page_bytes 'x')
   with
  | Ok () -> ()
  | Error e -> failwith ("zerocopy_http: " ^ Encl_kernel.Vfs.errno_name e));
  let file_fd =
    Runtime.syscall_exn rt (K.Open { path = zc_static_path; flags = [ K.O_rdonly ] })
  in
  let ring = Runtime.attach_netring rt () in
  let enclosure = match config with None -> None | Some _ -> Some "zc_srv" in
  Runtime.run_main rt (fun () ->
      Fasthttp.serve_zc rt ~port:8082 ~ring ~file_fd ~file_len:page_bytes
        ~enclosure);
  let r =
    drive rt ~port:8082 ~requests ~conns ~served:Fasthttp.zc_requests_served
  in
  let granted, consumed, reclaimed = K.rxring_counters kernel in
  ( rt,
    {
      z_requests = r.h_requests;
      z_req_per_sec = r.h_req_per_sec;
      z_syscalls_per_req = r.h_syscalls_per_req;
      z_bytes_copied = K.bytes_copied_count kernel + m.Machine.bytes_copied;
      z_ring_granted = granted;
      z_ring_consumed = consumed;
      z_ring_reclaimed = reclaimed;
    } )

let zerocopy_http config ?rcfg ?requests ?conns () =
  snd (zerocopy_http_rt config ?rcfg ?requests ?conns ())

(* ------------------------------------------------------------------ *)
(* Chaos: workloads under deterministic fault injection                *)

module Fault = Encl_fault.Fault
module Sched = Encl_golike.Sched

type chaos_result = {
  c_sent : int;
  c_served : int;
  c_availability : float;
  c_injected : int;
  c_faults : int;
  c_kills : int;
  c_conns_failed : int;
  c_quarantined : bool;
  c_reconnects : int;
}

(* A fault-tolerant client driver: every request counts as sent; a
   connection the server tore down (or the injector dropped) is
   re-dialed and the lost request stays unserved. Success is counted on
   the client side — the attempt saw response bytes — so one attempt can
   never score more than once (an injected short read can split one
   request into two server-side handle cycles, which would inflate a
   server-side counter). *)
let chaos_drive rt ~port ~requests ~conns =
  let net = (Runtime.machine rt).Machine.net in
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
  (requests, !answered)

let chaos_result rt ~sent ~served ~conns_failed ~enclosure ~reconnects =
  let inject = (Runtime.machine rt).Machine.inject in
  let lb = Runtime.lb rt in
  {
    c_sent = sent;
    c_served = served;
    c_availability = float_of_int served /. float_of_int (max 1 sent);
    c_injected = Fault.total_fired inject;
    c_faults = (match lb with Some lb -> Lb.fault_count lb | None -> 0);
    c_kills = Sched.kill_count (Runtime.sched rt);
    c_conns_failed = conns_failed;
    c_quarantined =
      (match (lb, enclosure) with
      | Some lb, Some enc -> Lb.quarantined lb enc
      | _ -> false);
    c_reconnects = reconnects;
  }

let pp_chaos_result r =
  Printf.sprintf
    "sent=%d served=%d availability=%.3f injected=%d faults=%d kills=%d \
     conns_failed=%d quarantined=%b reconnects=%d"
    r.c_sent r.c_served r.c_availability r.c_injected r.c_faults r.c_kills
    r.c_conns_failed r.c_quarantined r.c_reconnects

(* The HTTP chaos scenario: spurious page faults inside the request
   handler's enclosure. Containment shows up at three levels — the
   faulting request's connection is closed (not the server), the
   enclosure is quarantined once it exhausts its fault budget, and the
   handler then degrades to a trusted fallback page so availability
   recovers. *)
let chaos_http config ?rcfg ?(seed = 42L) ?(rate = 0.10) ?(budget = 5)
    ?(requests = 500) ?(conns = 8) () =
  let main =
    Runtime.package "main"
      ~imports:[ Httpd.pkg; "assets" ]
      ~functions:[ ("main", 512); ("handler_body", 256) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "handler_enc";
            enc_policy = "assets:R; sys=none";
            enc_closure = "handler_body";
            enc_deps = [];
          };
        ]
      ()
  in
  let packages = main :: assets_package () :: Httpd.packages () in
  let rt = boot_exn ?rcfg config ~packages ~entry:"main" in
  Httpd.reset_counters ();
  let m = Runtime.machine rt in
  let page = Runtime.global rt ~pkg:"assets" "index_html" in
  (* Trusted fallback body, staged in the server's own arena so the
     serving loop can read it once the enclosure is off-line. *)
  let fallback = Runtime.alloc_in rt ~pkg:Httpd.pkg 512 in
  Gbuf.fill m fallback 0x66;
  let handler ~meth:_ ~path:_ =
    match
      Runtime.with_enclosure rt "handler_enc" (fun () ->
          ignore (Gbuf.get m page 0);
          page)
    with
    | body -> body
    | exception Lb.Quarantined _ -> fallback
  in
  let inject = m.Machine.inject in
  Fault.set_seed inject seed;
  Fault.arm inject
    (Fault.rule ~prob:rate ~env_prefix:"enc:" "cpu.spurious_fault");
  (match Runtime.lb rt with
  | Some lb -> Lb.set_fault_budget lb budget
  | None -> ());
  Runtime.run_main rt (fun () -> Httpd.serve rt ~port:8080 ~handler);
  let sent, served = chaos_drive rt ~port:8080 ~requests ~conns in
  Fault.disarm_all inject;
  ( rt,
    chaos_result rt ~sent ~served ~conns_failed:(Httpd.connections_failed ())
      ~enclosure:(Some "handler_enc") ~reconnects:0 )

(* The wiki chaos scenario: network-level failures (dropped connections,
   short reads/writes, transient errnos) across the whole stack,
   exercising the retry helpers and the pq -> minidb reconnect. *)
let chaos_wiki config ?rcfg ?(seed = 42L) ?(rate = 0.05) ?(budget = 5)
    ?(requests = 400) ?(conns = 4) () =
  let rt = wiki_boot ?rcfg config in
  Pq.reset_counters ();
  let m = Runtime.machine rt in
  let inject = m.Machine.inject in
  Fault.set_seed inject seed;
  Fault.arm_plan inject
    [
      Fault.rule ~prob:rate "net.conn_drop";
      Fault.rule ~prob:rate "net.partial_read";
      Fault.rule ~prob:rate "net.partial_write";
      Fault.rule ~prob:rate "kernel.transient_eintr";
      Fault.rule ~prob:rate "kernel.transient_eagain";
    ];
  (match Runtime.lb rt with
  | Some lb -> Lb.set_fault_budget lb budget
  | None -> ());
  let sent, served = chaos_drive rt ~port:8090 ~requests ~conns in
  Fault.disarm_all inject;
  ( rt,
    chaos_result rt ~sent ~served ~conns_failed:(Wiki.connections_failed ())
      ~enclosure:None ~reconnects:(Pq.reconnect_count ()) )

(* ------------------------------------------------------------------ *)
(* smp_http: the HTTP server sharded across simulated cores            *)

type smp_result = {
  s_cores : int;
  s_requests : int;
  s_wall_ns : int;
  s_cpu_ns : int;
  s_req_per_sec : float;
  s_steals : int;
  s_affinity_hits : int;
  s_switches : int;
  s_faults : int;
  s_syscalls : int;
}

(* The http scenario with a per-request template-render cost and the
   request rate measured against the makespan (the slowest core's
   lane) rather than total CPU time. The render compute is what scales
   across cores: connection fibers spread over the shard by work
   stealing while the client driver stays serial on core 0 (the
   scenario's Amdahl bound). The core count is pinned per call so
   benchmark rows never depend on the environment; the default follows
   [ENCL_CORES] for the CLI drivers. *)
let smp_http_rt config ?cores ?(requests = 4096) ?(conns = 64)
    ?(render_ns = 30_000) () =
  let cores =
    match cores with Some c -> c | None -> Runtime.default_cores ()
  in
  let rcfg = { (runtime_config config) with Runtime.cores } in
  let main =
    Runtime.package "main"
      ~imports:[ Httpd.pkg; "assets" ]
      ~functions:[ ("main", 512); ("handler_body", 256) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "handler_enc";
            enc_policy = "assets:R; sys=none";
            enc_closure = "handler_body";
            enc_deps = [];
          };
        ]
      ()
  in
  let packages = main :: assets_package () :: Httpd.packages () in
  let rt = boot_exn ~rcfg config ~packages ~entry:"main" in
  Httpd.reset_counters ();
  let page = Runtime.global rt ~pkg:"assets" "index_html" in
  let m = Runtime.machine rt in
  let clock = Runtime.clock rt in
  let handler ~meth:_ ~path:_ =
    Runtime.with_enclosure rt "handler_enc" (fun () ->
        ignore (Gbuf.get m page 0);
        (* Template rendering: per-request compute charged to the lane
           of whichever core runs this connection's fiber. *)
        Clock.consume clock Clock.Compute render_ns;
        page)
  in
  Runtime.run_main rt (fun () -> Httpd.serve rt ~port:8088 ~handler);
  Runtime.kick rt;
  let eps = List.init conns (fun _ -> Httpd.client_connect rt ~port:8088) in
  Runtime.kick rt;
  (* Warm-up round. *)
  List.iter (fun ep -> Httpd.client_get rt ep ~path:"/page/home") eps;
  Runtime.kick rt;
  List.iter (fun ep -> ignore (Httpd.client_read_response rt ep)) eps;
  let t0 = Clock.wall clock in
  let served0 = Httpd.requests_served () in
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
  let handled = Httpd.requests_served () - served0 in
  if handled < rounds * conns then
    failwith
      (Printf.sprintf "server fell behind: %d/%d requests" handled
         (rounds * conns));
  let wall = Clock.wall clock - t0 in
  let sched = Runtime.sched rt in
  let non_mem =
    List.fold_left
      (fun acc (nr, n) ->
        if Encl_kernel.Sysno.category nr = Encl_kernel.Sysno.Cat_mem then acc
        else acc + n)
      0
      (K.trace m.Machine.kernel)
  in
  ( rt,
    {
      s_cores = cores;
      s_requests = handled;
      s_wall_ns = wall;
      s_cpu_ns = Clock.now clock;
      s_req_per_sec = float_of_int handled /. (float_of_int wall /. 1e9);
      s_steals = Sched.steal_count sched;
      s_affinity_hits = Sched.affinity_hit_count sched;
      s_switches = Sched.switch_count sched;
      s_faults =
        (match Runtime.lb rt with Some lb -> Lb.fault_count lb | None -> 0);
      s_syscalls = non_mem;
    } )

let smp_http config ?cores ?requests ?conns ?render_ns () =
  snd (smp_http_rt config ?cores ?requests ?conns ?render_ns ())

(* ------------------------------------------------------------------ *)
(* Named dispatch (trace_dump, CI)                                     *)

let scenario_names =
  [ "bild"; "http"; "fasthttp"; "wiki"; "pq"; "smp_http"; "zerocopy_http" ]

let pp_http_result r =
  Printf.sprintf "%d requests, %.0f req/s, %.2f syscalls/req" r.h_requests
    r.h_req_per_sec r.h_syscalls_per_req

let run_named name config ?requests () =
  match name with
  | "bild" ->
      (* [requests] does not apply: bild is iteration-driven. *)
      let rt, r = bild_rt config () in
      Ok
        ( rt,
          Printf.sprintf "%d ns/invert, %d transfers/invert" r.b_ns_per_invert
            r.b_transfers )
  | "http" ->
      let rt, r = http_rt config ?requests () in
      Ok (rt, pp_http_result r)
  | "fasthttp" ->
      let rt, r = fasthttp_rt config ?requests () in
      Ok (rt, pp_http_result r)
  | "wiki" ->
      let rt, r = wiki_rt config ?requests () in
      Ok (rt, pp_http_result r)
  | "pq" ->
      let rt, r = pq_rt config ?queries:requests () in
      Ok
        ( rt,
          Printf.sprintf "%d queries, %d ns/query" r.p_queries
            r.p_ns_per_query )
  | "smp_http" ->
      let rt, r = smp_http_rt config ?requests () in
      Ok
        ( rt,
          Printf.sprintf "%d requests on %d cores, %.0f req/s, %d steals"
            r.s_requests r.s_cores r.s_req_per_sec r.s_steals )
  | "zerocopy_http" ->
      let rt, r = zerocopy_http_rt config ?requests () in
      Ok
        ( rt,
          Printf.sprintf
            "%d requests, %.0f req/s, %d bytes copied, ring %d/%d/%d"
            r.z_requests r.z_req_per_sec r.z_bytes_copied r.z_ring_granted
            r.z_ring_consumed r.z_ring_reclaimed )
  | _ ->
      Error
        (Printf.sprintf "unknown scenario %s (choose from: %s)" name
           (String.concat ", " scenario_names))

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
