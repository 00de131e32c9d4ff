module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine
module Metrics = Encl_obs.Metrics

let served_counter = Metrics.counter "http.served"
let conn_failed_counter = Metrics.counter "http.conn_failed"

let metrics rt = Encl_obs.Obs.metrics (Runtime.machine rt).Machine.obs
let total rt counter = Metrics.total (metrics rt) counter
let note_served rt = Metrics.incr (metrics rt) served_counter

let charge rt cat ns = Clock.consume (Runtime.clock rt) cat ns

let spawn rt ?enclosure body =
  match enclosure with
  | None -> Runtime.go rt body
  | Some name -> Runtime.go rt (fun () -> Runtime.with_enclosure rt name body)

let listen rt ~port =
  let fd = Runtime.syscall_exn rt K.Socket in
  ignore (Runtime.syscall_exn rt (K.Bind { fd; port }));
  ignore (Runtime.syscall_exn rt (K.Listen fd));
  fd

let accept_loop rt ~fd ~label conn =
  let kernel = (Runtime.machine rt).Machine.kernel in
  let rec loop () =
    Sched.wait_until (Runtime.sched rt) (fun () -> K.listener_pending kernel fd);
    match Runtime.syscall_batched rt (K.Accept fd) with
    | Ok conn_fd ->
        Runtime.go rt (conn conn_fd);
        loop ()
    | Error e when Retry.transient e -> loop ()
    | Error e -> failwith (label ^ ": " ^ K.errno_name e)
  in
  loop ()

let connection rt ~conn_fd ~close handle =
  let kernel = (Runtime.machine rt).Machine.kernel in
  let finish () = if close then ignore (Runtime.syscall rt (K.Close conn_fd)) in
  let rec loop () =
    Sched.wait_until (Runtime.sched rt) (fun () -> K.fd_readable kernel conn_fd);
    match handle () with
    | true -> loop ()
    | false -> finish ()
    | exception e -> (
        (* A faulting request (an enclosure violation, a seccomp kill, a
           quarantine) costs this connection, not the server. The
           enclosure stack already unwound, so a close(2) here runs in
           the fiber's own environment. *)
        match Runtime.absorb_fault rt e with
        | Some _reason ->
            Metrics.incr (metrics rt) conn_failed_counter;
            finish ()
        | None -> raise e)
  in
  loop ()

let request_line raw =
  match String.split_on_char ' ' raw with
  | meth :: path :: _ -> (meth, path)
  | _ -> ("GET", "/")

let head len = Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" len
