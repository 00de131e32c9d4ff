module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Sched = Encl_golike.Sched
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine

let pkg = "net_http"

(* Calibrated per-request workload constants (ns): parsing, the
   header/connection bookkeeping net/http performs (context, header maps,
   interface dispatch), and response assembly (copying the body into the
   response buffer). *)
let parse_ns = 6_000
let bookkeeping_ns = 34_200
let assembly_ns_per_kb = 1_400

let packages () =
  [
    Runtime.package pkg
      ~functions:
        [
          ("listen_and_serve", 4096);
          ("accept_loop", 1024);
          ("read_request", 2048);
          ("write_response", 2048);
        ]
      ~globals:[ ("server_state", 512, None) ]
      ();
  ]

let served = ref 0
let conns_failed = ref 0
let requests_served () = !served
let connections_failed () = !conns_failed

let reset_counters () =
  served := 0;
  conns_failed := 0

let charge rt cat ns = Clock.consume (Runtime.clock rt) cat ns

(* One full request/response cycle on an established connection; returns
   false when the connection reached EOF. [static path = Some (fd, len)]
   serves that VFS file's bytes as the body via sendfile(2) instead of
   staging them through the bufio writer. *)
let handle_one rt ~conn_fd ~static ~handler =
  let m = Runtime.machine rt in
  Runtime.syscall_nowait rt K.Epoll_wait;
  (* net/http allocates a fresh request buffer per request. *)
  let reqbuf = Runtime.alloc_in rt ~pkg 1024 in
  match
    Retry.with_backoff rt ~op:"httpd.recv" (fun () ->
        Runtime.syscall_batched rt
          (K.Recv { fd = conn_fd; buf = reqbuf.Gbuf.addr; len = 1024 }))
  with
  | Error _ -> false
  | Ok 0 -> false
  | Ok n ->
      charge rt Clock.Compute parse_ns;
      let request = Bytes.to_string (Cpu.read_bytes m.Machine.cpu ~addr:reqbuf.Gbuf.addr ~len:n) in
      let meth, path =
        match String.split_on_char ' ' request with
        | m :: p :: _ -> (m, p)
        | _ -> ("GET", "/")
      in
      Runtime.syscall_nowait rt K.Clock_gettime;
      Runtime.syscall_nowait rt (K.Setsockopt conn_fd);
      (match static path with
      | Some (in_fd, len) ->
          (* Static body: only the headers pass through the bufio
             writer; the body is spliced from the VFS file without
             entering user memory (with Zerocopy off the kernel
             bounce-copies internally and charges the ledger). *)
          Runtime.syscall_nowait rt K.Clock_gettime;
          let headers =
            Printf.sprintf
              "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n"
              len
          in
          let bufio = Runtime.alloc_in rt ~pkg 8192 in
          let hlen = String.length headers in
          Gbuf.write_string m (Gbuf.sub bufio ~pos:0 ~len:hlen) headers;
          charge rt Clock.Io (assembly_ns_per_kb * (hlen / 1024));
          ignore
            (Retry.send_all rt ~op:"httpd.send" ~fd:conn_fd
               ~buf:bufio.Gbuf.addr ~len:hlen);
          (match
             Retry.with_backoff rt ~op:"httpd.sendfile" (fun () ->
                 Runtime.syscall_batched rt
                   (K.Sendfile { out_fd = conn_fd; in_fd; off = 0; len }))
           with
          | Ok _ -> ()
          | Error e -> failwith ("httpd sendfile: " ^ K.errno_name e))
      | None ->
          let body = handler ~meth ~path in
          Runtime.syscall_nowait rt K.Clock_gettime;
          (* A fresh 8 KiB bufio.Writer per request (the LB_MPK transfer
             driver): headers plus the body prefix are staged there, the body
             tail is written straight from the handler's buffer. *)
          let headers =
            Printf.sprintf
              "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n"
              body.Gbuf.len
          in
          let bufio = Runtime.alloc_in rt ~pkg 8192 in
          let hlen = String.length headers in
          let prefix = min (8192 - hlen) body.Gbuf.len in
          Gbuf.write_string m (Gbuf.sub bufio ~pos:0 ~len:hlen) headers;
          Gbuf.blit m ~src:(Gbuf.sub body ~pos:0 ~len:prefix)
            ~dst:(Gbuf.sub bufio ~pos:hlen ~len:prefix);
          charge rt Clock.Io (assembly_ns_per_kb * ((hlen + prefix) / 1024));
          ignore
            (Retry.send_all rt ~op:"httpd.send" ~fd:conn_fd ~buf:bufio.Gbuf.addr
               ~len:(hlen + prefix));
          if body.Gbuf.len > prefix then
            ignore
              (Retry.send_all rt ~op:"httpd.send" ~fd:conn_fd
                 ~buf:(body.Gbuf.addr + prefix) ~len:(body.Gbuf.len - prefix)));
      Runtime.syscall_nowait rt (K.Epoll_ctl conn_fd);
      Runtime.syscall_nowait rt K.Futex;
      Runtime.syscall_nowait rt K.Futex;
      Runtime.syscall_nowait rt K.Futex;
      Runtime.syscall_nowait rt K.Clock_gettime;
      charge rt Clock.Compute bookkeeping_ns;
      incr served;
      true

let conn_loop rt ~conn_fd ~static ~handler () =
  let kernel = (Runtime.machine rt).Machine.kernel in
  let rec loop () =
    Sched.wait_until (Runtime.sched rt) (fun () -> K.fd_readable kernel conn_fd);
    match handle_one rt ~conn_fd ~static ~handler with
    | true -> loop ()
    | false -> ignore (Runtime.syscall rt (K.Close conn_fd))
    | exception e -> (
        (* A faulting handler (an enclosure violation, a seccomp kill)
           costs this connection, not the server. Enclosure.call already
           ran Epilog on unwind, so the trusted environment is back and
           close(2) is permitted. *)
        match Runtime.absorb_fault rt e with
        | Some _reason ->
            incr conns_failed;
            ignore (Runtime.syscall rt (K.Close conn_fd))
        | None -> raise e)
  in
  loop ()

let serve_static rt ~static ~port ~handler =
  Runtime.in_function rt ~pkg ~fn:"listen_and_serve" @@ fun () ->
  let fd = Runtime.syscall_exn rt K.Socket in
  ignore (Runtime.syscall_exn rt (K.Bind { fd; port }));
  ignore (Runtime.syscall_exn rt (K.Listen fd));
  Runtime.go rt (fun () ->
      Retry.accept_loop rt ~fd ~label:"accept" (fun conn_fd ->
          conn_loop rt ~conn_fd ~static ~handler))

let serve rt ~port ~handler = serve_static rt ~static:(fun _ -> None) ~port ~handler

(* ------------------------------------------------------------------ *)
(* Client side: external peers driving the server.                     *)

let client_connect rt ~port =
  match Encl_kernel.Net.client_connect (Runtime.machine rt).Machine.net ~port with
  | Ok ep -> ep
  | Error e -> failwith ("client_connect: " ^ e)

let client_get rt ep ~path =
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: sim\r\n\r\n" path in
  match Encl_kernel.Net.send (Runtime.machine rt).Machine.net ep (Bytes.of_string req) with
  | Ok _ -> ()
  | Error e -> failwith ("client_get: " ^ e)

(* Reads until the socket would block or is at EOF. The chunks recv
   returns are ours: a one-chunk response is returned as is, a longer one
   concatenated once. *)
let client_read_response rt ep =
  let net = (Runtime.machine rt).Machine.net in
  let rec drain acc =
    match Encl_kernel.Net.recv net ep 65536 with
    | Encl_kernel.Net.Data d -> drain (d :: acc)
    | Encl_kernel.Net.Would_block | Encl_kernel.Net.Eof -> acc
  in
  match drain [] with
  | [] -> Bytes.empty
  | [ d ] -> d
  | rev_chunks -> Bytes.concat Bytes.empty (List.rev rev_chunks)
