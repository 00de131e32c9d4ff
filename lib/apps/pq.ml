module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Sched = Encl_golike.Sched
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine

let pkg = "pq"
let dep_count = 18

(* Driver-side compute per query (ns): escaping, protocol framing, row
   decoding. *)
let query_overhead_ns = 2_600

let packages () =
  let deps, root = Deps.tree ~prefix:pkg ~count:dep_count in
  Runtime.package pkg ~imports:[ root ]
    ~functions:[ ("connect", 1024); ("query", 2048); ("close", 256) ]
    ~globals:[ ("conn_pool", 256, None) ]
    ()
  :: deps

type conn = { mutable fd : int; buf : Gbuf.t; ip : int; port : int }

let reconnect_counter = Encl_obs.Metrics.counter "pq.reconnect"

let connect rt ~ip ~port =
  Runtime.in_function rt ~pkg ~fn:"connect" @@ fun () ->
  let fd = Runtime.syscall_exn rt K.Socket in
  ignore (Runtime.syscall_exn rt (K.Connect { fd; ip; port }));
  { fd; buf = Runtime.alloc_in rt ~pkg 8192; ip; port }

(* Re-dial after the server dropped the connection. The dead fd is not
   closed here: close(2) is file-category and denied under the db-proxy's
   net-only filter; trusted code sweeps it. connect(2) to the recorded
   address stays within the connect(ip) policy. *)
let reconnect rt conn =
  Encl_obs.Metrics.incr
    (Encl_obs.Obs.metrics (Runtime.machine rt).Machine.obs)
    reconnect_counter;
  match Runtime.syscall rt K.Socket with
  | Error e -> Error e
  | Ok fd -> (
      match Runtime.syscall rt (K.Connect { fd; ip = conn.ip; port = conn.port }) with
      | Error e -> Error e
      | Ok _ ->
          conn.fd <- fd;
          Ok ())

let query rt conn sql =
  Runtime.in_function rt ~pkg ~fn:"query" @@ fun () ->
  let m = Runtime.machine rt in
  let kernel = m.Machine.kernel in
  Clock.consume (Runtime.clock rt) Clock.Compute query_overhead_ns;
  let req = Minidb.encode_request sql in
  Gbuf.write_bytes m (Gbuf.sub conn.buf ~pos:0 ~len:(Bytes.length req)) req;
  let send () =
    Retry.send_all rt ~op:"pq.send" ~fd:conn.fd ~buf:conn.buf.Gbuf.addr
      ~len:(Bytes.length req)
  in
  (* Responses are NUL-terminated; a short read (an injected partial
     delivery) means more bytes are pending — keep reading. *)
  let recv_response () =
    let acc = Buffer.create 256 in
    let rec go () =
      Sched.wait_until (Runtime.sched rt) (fun () -> K.fd_readable kernel conn.fd);
      match
        Retry.with_backoff rt ~op:"pq.recv" (fun () ->
            Runtime.syscall rt
              (K.Recv { fd = conn.fd; buf = conn.buf.Gbuf.addr; len = conn.buf.Gbuf.len }))
      with
      | Error e -> Error ("recv failed: " ^ K.errno_name e)
      | Ok 0 -> Error "connection closed by server"
      | Ok n ->
          let data = Cpu.read_bytes m.Machine.cpu ~addr:conn.buf.Gbuf.addr ~len:n in
          Buffer.add_bytes acc data;
          if Bytes.get data (n - 1) = '\000' then Ok (Buffer.to_bytes acc) else go ()
    in
    go ()
  in
  (* One round trip; [allow_retry] permits a single reconnect-and-replay
     when the connection turns out to be dead (send fails, or recv hits
     EOF before any reply). *)
  let rec round ~allow_retry =
    let replay err =
      if not allow_retry then Error err
      else
        match reconnect rt conn with
        | Error e -> Error ("reconnect failed: " ^ K.errno_name e)
        | Ok () -> round ~allow_retry:false
    in
    match send () with
    | Error e -> replay ("send failed: " ^ K.errno_name e)
    | Ok _ -> (
        match recv_response () with
        | Error e -> replay e
        | Ok data -> Minidb.decode_response data)
  in
  round ~allow_retry:true

let close rt conn =
  Runtime.in_function rt ~pkg ~fn:"close" @@ fun () ->
  ignore (Runtime.syscall rt (K.Close conn.fd))
