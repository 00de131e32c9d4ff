module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Channel = Encl_golike.Channel
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine

let pkg = "fasthttp"
let dep_count = 100

(* Calibrated per-request constants (ns). *)
let parse_ns = 3_000
let bookkeeping_ns = 14_300
let assembly_ns_per_kb = 1_400

let packages () =
  let deps, root = Deps.tree ~prefix:pkg ~count:dep_count in
  Runtime.package pkg ~imports:[ root ]
    ~functions:
      [
        ("serve", 8192);
        ("parse_request", 2048);
        ("write_response", 2048);
        ("acquire_ctx", 512);
      ]
    ~globals:[ ("ctx_pool", 2048, None) ]
    ()
  :: deps

type request = { meth : string; path : string }

(* Per-connection state with reused buffers. *)
type conn_state = { fd : int; reqbuf : Gbuf.t; respbuf : Gbuf.t }

let handle_one rt state ~req_chan ~resp_chan () =
  let m = Runtime.machine rt in
  match
    Retry.with_backoff rt ~op:"fasthttp.recv" (fun () ->
        Runtime.syscall_batched rt
          (K.Recv
             { fd = state.fd; buf = state.reqbuf.Gbuf.addr; len = state.reqbuf.Gbuf.len }))
  with
  | Error _ | Ok 0 -> false
  | Ok n ->
      Serve.charge rt Clock.Compute parse_ns;
      (* fasthttp reuses its big buffers, but URI/args/header-entry
         strings are still materialized per request. *)
      ignore (Runtime.alloc_in rt ~pkg 8192);
      let raw = Bytes.to_string (Cpu.read_bytes m.Machine.cpu ~addr:state.reqbuf.Gbuf.addr ~len:n) in
      let meth, path = Serve.request_line raw in
      Runtime.syscall_nowait rt (K.Setsockopt state.fd);
      (* Forward to the trusted handler goroutine over a channel, with a
         per-connection reply channel (the usual Go pattern). *)
      Channel.send req_chan ({ meth; path }, resp_chan);
      let body = Channel.recv resp_chan in
      let headers = Serve.head body.Gbuf.len in
      let total = String.length headers + body.Gbuf.len in
      let resp =
        if total <= state.respbuf.Gbuf.len then state.respbuf
        else Runtime.alloc_in rt ~pkg total
      in
      Gbuf.write_string m (Gbuf.sub resp ~pos:0 ~len:(String.length headers)) headers;
      Gbuf.blit m ~src:body
        ~dst:(Gbuf.sub resp ~pos:(String.length headers) ~len:body.Gbuf.len);
      Serve.charge rt Clock.Io (assembly_ns_per_kb * (total / 1024));
      let first = min 8192 total in
      ignore
        (Retry.send_all rt ~op:"fasthttp.send" ~fd:state.fd ~buf:resp.Gbuf.addr
           ~len:first);
      if total > first then
        ignore
          (Retry.send_all rt ~op:"fasthttp.send" ~fd:state.fd
             ~buf:(resp.Gbuf.addr + first) ~len:(total - first));
      Serve.charge rt Clock.Compute bookkeeping_ns;
      Serve.note_served rt;
      true

(* The trusted side of the netpoller: issues the io/sync/time system
   calls that the net-only enclosure filter would deny. *)
let netpoller_tick rt ~conn_fd =
  Runtime.syscall_nowait rt K.Epoll_wait;
  Runtime.syscall_nowait rt (K.Epoll_ctl conn_fd);
  Runtime.syscall_nowait rt K.Futex;
  Runtime.syscall_nowait rt K.Futex;
  Runtime.syscall_nowait rt K.Futex;
  Runtime.syscall_nowait rt K.Clock_gettime;
  Runtime.syscall_nowait rt K.Clock_gettime;
  Runtime.syscall_nowait rt K.Clock_gettime

(* The server fiber of either mode: listen on [port], then give each
   connection a fiber that runs [conn conn_fd] (its per-connection setup,
   returning the request handler) under acquire_ctx. Connection fibers
   inherit the enclosure environment at spawn; close(2) is in the [file]
   category, which the net-only filter denies, so a finished or faulted
   connection's fd is left to trusted code, and the scheduler restores
   the trusted environment when the fiber exits. *)
let server_loop rt ~port conn () =
  Runtime.in_function rt ~pkg ~fn:"serve" @@ fun () ->
  let fd = Serve.listen rt ~port in
  Serve.accept_loop rt ~fd ~label:"fasthttp accept" (fun conn_fd () ->
      Runtime.in_function rt ~pkg ~fn:"acquire_ctx" @@ fun () ->
      Serve.connection rt ~conn_fd ~close:false (conn conn_fd))

let serve_enclosed rt ~port ~enclosure ~handler =
  let sched = Runtime.sched rt in
  let req_chan = Channel.create sched ~cap:64 in
  (* Trusted handler goroutine: receives parsed requests, runs the
     handler with full privileges, also drives the netpoller syscalls
     the enclosure may not perform. *)
  Runtime.go rt (fun () ->
      let rec loop () =
        let req, reply = Channel.recv req_chan in
        let body = handler req in
        netpoller_tick rt ~conn_fd:0;
        Channel.send reply body;
        loop ()
      in
      loop ());
  Serve.spawn rt ?enclosure
    (server_loop rt ~port (fun conn_fd ->
         let resp_chan = Channel.create sched ~cap:1 in
         let state =
           {
             fd = conn_fd;
             reqbuf = Runtime.alloc_in rt ~pkg 4096;
             respbuf = Runtime.alloc_in rt ~pkg 16384;
           }
         in
         handle_one rt state ~req_chan ~resp_chan))

(* ------------------------------------------------------------------ *)
(* Zero-copy serving mode (the zerocopy_http scenario): the request is
   read in place from the rx view ring and the static body is spliced
   from the VFS with sendfile(2), so the payload never enters user
   memory — no per-request body staging, no response-assembly blit.
   The same calls are issued with {!Encl_sim.Zerocopy} off (the kernel
   bounce-copies internally and charges the ledger), so syscall
   sequences, verdicts and faults are byte-identical across the flag. *)

(* One request read in place from a granted descriptor: parse, send
   the head, splice the body. *)
let answer_zc rt ~conn_fd ~hdrbuf ~file_fd ~file_len payload =
  let m = Runtime.machine rt in
  Serve.charge rt Clock.Compute parse_ns;
  (* Parsed straight out of the ring descriptor — the R view makes
     the in-place read safe, and writing here would fault. *)
  ignore (Serve.request_line (Gbuf.read_string m payload));
  Runtime.syscall_nowait rt (K.Setsockopt conn_fd);
  let headers = Serve.head file_len in
  let hlen = String.length headers in
  Gbuf.write_string m (Gbuf.sub hdrbuf ~pos:0 ~len:hlen) headers;
  ignore
    (Retry.send_all rt ~op:"fasthttp.send" ~fd:conn_fd ~buf:hdrbuf.Gbuf.addr
       ~len:hlen);
  match
    Retry.with_backoff rt ~op:"fasthttp.sendfile" (fun () ->
        Runtime.syscall_batched rt
          (K.Sendfile { out_fd = conn_fd; in_fd = file_fd; off = 0; len = file_len }))
  with
  | Ok _ -> ()
  | Error e -> failwith ("fasthttp sendfile: " ^ K.errno_name e)

let handle_one_zc rt ~conn_fd ~hdrbuf ~ring ~file_fd ~file_len () =
  match
    Retry.with_backoff rt ~op:"fasthttp.recv_ring" (fun () ->
        Runtime.netring_recv rt ring ~fd:conn_fd)
  with
  | Error _ | Ok None -> false
  | Ok (Some (slot, payload)) -> (
      (* The descriptor is released on both exits: a fault while it is
         held ends the connection, and a slot left granted would stay
         in flight (the fd stays open, so the kernel never reclaims
         it) until a full ring answers every reader EAGAIN. *)
      match answer_zc rt ~conn_fd ~hdrbuf ~file_fd ~file_len payload with
      | () ->
          Runtime.netring_consume rt slot;
          Serve.charge rt Clock.Compute bookkeeping_ns;
          Serve.note_served rt;
          true
      | exception e ->
          Runtime.netring_consume rt slot;
          raise e)

let serve_zc rt ~port ~ring ~file_fd ~file_len ~enclosure =
  Serve.spawn rt ?enclosure
    (server_loop rt ~port (fun conn_fd ->
         let hdrbuf = Runtime.alloc_in rt ~pkg 256 in
         handle_one_zc rt ~conn_fd ~hdrbuf ~ring ~file_fd ~file_len))
