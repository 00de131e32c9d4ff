module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
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

(* The tallies live in the machine's counter registry ({!Serve}), fresh
   on every boot; perfbench/ still calls this after its boots. *)
let reset_counters () = ()

(* One full request/response cycle on an established connection; false
   when the connection reached EOF. *)
let handle_one rt ~conn_fd ~handler () =
  let m = Runtime.machine rt in
  Runtime.syscall_nowait rt K.Epoll_wait;
  (* net/http allocates a fresh request buffer per request. *)
  let reqbuf = Runtime.alloc_in rt ~pkg 1024 in
  match
    Retry.with_backoff rt ~op:"httpd.recv" (fun () ->
        Runtime.syscall_batched rt
          (K.Recv { fd = conn_fd; buf = reqbuf.Gbuf.addr; len = 1024 }))
  with
  | Error _ | Ok 0 -> false
  | Ok n ->
      Serve.charge rt Clock.Compute parse_ns;
      let request = Bytes.to_string (Cpu.read_bytes m.Machine.cpu ~addr:reqbuf.Gbuf.addr ~len:n) in
      let meth, path = Serve.request_line request in
      Runtime.syscall_nowait rt K.Clock_gettime;
      Runtime.syscall_nowait rt (K.Setsockopt conn_fd);
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
      Serve.charge rt Clock.Io (assembly_ns_per_kb * ((hlen + prefix) / 1024));
      ignore
        (Retry.send_all rt ~op:"httpd.send" ~fd:conn_fd ~buf:bufio.Gbuf.addr
           ~len:(hlen + prefix));
      if body.Gbuf.len > prefix then
        ignore
          (Retry.send_all rt ~op:"httpd.send" ~fd:conn_fd
             ~buf:(body.Gbuf.addr + prefix) ~len:(body.Gbuf.len - prefix));
      Runtime.syscall_nowait rt (K.Epoll_ctl conn_fd);
      Runtime.syscall_nowait rt K.Futex;
      Runtime.syscall_nowait rt K.Futex;
      Runtime.syscall_nowait rt K.Futex;
      Runtime.syscall_nowait rt K.Clock_gettime;
      Serve.charge rt Clock.Compute bookkeeping_ns;
      Serve.note_served rt;
      true

(* The handler runs enclosed and returns to this trusted loop, so a
   connection is closed at either end of its loop. *)
let serve rt ~port ~handler =
  Runtime.in_function rt ~pkg ~fn:"listen_and_serve" @@ fun () ->
  let fd = Serve.listen rt ~port in
  Runtime.go rt (fun () ->
      Serve.accept_loop rt ~fd ~label:"accept" (fun conn_fd () ->
          Serve.connection rt ~conn_fd ~close:true
            (handle_one rt ~conn_fd ~handler)))

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
