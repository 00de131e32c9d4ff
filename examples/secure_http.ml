(* Securing an HTTP server (paper §6.2).

   The net/http-like server runs trusted; the request handler is an
   enclosure with no packages in its view beyond the read-only static
   assets and no system calls: a buffer overflow in the handler cannot
   read the TLS private key or open a socket. The server contains the
   fault to the hostile request's connection: it closes that connection,
   counts it in "http.conn_failed", and keeps serving.

   Run with: dune exec examples/secure_http.exe
   (exits 1 if the hostile request gets a body back) *)

module Runtime = Encl_golike.Runtime
module Machine = Encl_litterbox.Machine
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Httpd = Encl_apps.Httpd
module Serve = Encl_apps.Serve
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net

let page_bytes = 13 * 1024

let packages () =
  [
    Runtime.package "main"
      ~imports:[ Httpd.pkg; "assets" ]
      ~functions:[ ("main", 128); ("handler_body", 64) ]
      ~globals:[ ("tls_private_key", 128, Some (Bytes.of_string "-----BEGIN RSA KEY-----")) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "handler_enc";
            enc_policy = "assets:R; sys=none";
            enc_closure = "handler_body";
            enc_deps = [];
          };
        ]
      ();
    Runtime.package "assets"
      ~constants:[ ("index_html", page_bytes, Some (Bytes.make page_bytes 'x')) ]
      ();
  ]
  @ Httpd.packages ()

let () =
  Printf.printf "== Secure HTTP server (LB_MPK) ==\n\n";
  let rt =
    match
      Runtime.boot (Runtime.with_backend Lb.Mpk) ~packages:(packages ()) ~entry:"main"
    with
    | Ok rt -> rt
    | Error e -> failwith e
  in
  let lb = Option.get (Runtime.lb rt) in
  let m = Runtime.machine rt in
  let page = Runtime.global rt ~pkg:"assets" "index_html" in
  let tls_key = Runtime.global rt ~pkg:"main" "tls_private_key" in

  (* A handler with a lurking "bug": when the path looks hostile it tries
     to read the TLS key and phone home — the enclosure stops both. *)
  let handler ~meth:_ ~path =
    Runtime.with_enclosure rt "handler_enc" (fun () ->
        if path = "/pwn" then begin
          ignore (Gbuf.get m tls_key 0);
          ignore (Runtime.syscall rt K.Socket)
        end;
        page)
  in
  Runtime.run_main rt (fun () -> Httpd.serve rt ~port:8080 ~handler);
  Runtime.kick rt;

  (* A normal request. *)
  let ep = Httpd.client_connect rt ~port:8080 in
  Runtime.kick rt;
  Httpd.client_get rt ep ~path:"/index.html";
  Runtime.kick rt;
  let resp = Httpd.client_read_response rt ep in
  Printf.printf "GET /index.html -> %d bytes (%s...)\n" (Bytes.length resp)
    (Bytes.to_string (Bytes.sub resp 0 15));

  (* The hostile request faults inside the enclosure; the serving loop
     absorbs the fault and closes this connection only. *)
  Httpd.client_get rt ep ~path:"/pwn";
  Runtime.kick rt;
  let body = Httpd.client_read_response rt ep in
  let closed = Net.recv m.Machine.net ep 1 = Net.Eof in
  Printf.printf "GET /pwn -> %d bytes, connection %s, http.conn_failed=%d\n"
    (Bytes.length body)
    (if closed then "closed by the server" else "still open")
    (Serve.total rt Serve.conn_failed_counter);
  List.iter (Printf.printf "   fault log: %s\n") (Lb.fault_log lb);

  (* Every other client is still served. *)
  let ep2 = Httpd.client_connect rt ~port:8080 in
  Runtime.kick rt;
  Httpd.client_get rt ep2 ~path:"/index.html";
  Runtime.kick rt;
  Printf.printf "GET /index.html on a new connection -> %d bytes\n"
    (Bytes.length (Httpd.client_read_response rt ep2));

  Printf.printf "\nrequests served: %d, %s\n"
    (Serve.total rt Serve.served_counter)
    (Runtime.stats rt);
  if Bytes.length body > 0 then begin
    print_endline "GET /pwn was UNEXPECTEDLY served";
    exit 1
  end
