type errno =
  | Eperm
  | Enoent
  | Ebadf
  | Eagain
  | Einval
  | Enomem
  | Eexist
  | Enotdir
  | Eisdir
  | Eacces
  | Econnrefused
  | Epipe
  | Enosys
  | Eintr

let errno_name = function
  | Eperm -> "EPERM"
  | Enoent -> "ENOENT"
  | Ebadf -> "EBADF"
  | Eagain -> "EAGAIN"
  | Einval -> "EINVAL"
  | Enomem -> "ENOMEM"
  | Eexist -> "EEXIST"
  | Enotdir -> "ENOTDIR"
  | Eisdir -> "EISDIR"
  | Eacces -> "EACCES"
  | Econnrefused -> "ECONNREFUSED"
  | Epipe -> "EPIPE"
  | Enosys -> "ENOSYS"
  | Eintr -> "EINTR"

let errno_of_vfs = function
  | Vfs.Enoent -> Enoent
  | Vfs.Eexist -> Eexist
  | Vfs.Enotdir -> Enotdir
  | Vfs.Eisdir -> Eisdir
  | Vfs.Einval -> Einval
  | Vfs.Eacces -> Eacces

type open_flag = O_rdonly | O_wronly | O_rdwr | O_creat | O_trunc | O_append

type call =
  | Open of { path : string; flags : open_flag list }
  | Close of int
  | Read of { fd : int; buf : int; len : int }
  | Write of { fd : int; buf : int; len : int }
  | Stat of string
  | Unlink of string
  | Mkdir of string
  | Readdir of string
  | Socket
  | Connect of { fd : int; ip : int; port : int }
  | Bind of { fd : int; port : int }
  | Listen of int
  | Accept of int
  | Send of { fd : int; buf : int; len : int }
  | Recv of { fd : int; buf : int; len : int }
  | Recv_ring of { fd : int }
  | Sendfile of { out_fd : int; in_fd : int; off : int; len : int }
  | Getuid
  | Getpid
  | Gettimeofday
  | Clock_gettime
  | Nanosleep of int
  | Sched_yield
  | Futex
  | Getrandom of { buf : int; len : int }
  | Mmap of { len : int }
  | Munmap of { addr : int; len : int }
  | Pkey_mprotect of { addr : int; len : int; key : int }
  | Pkey_alloc
  | Pkey_free of int
  | Epoll_wait
  | Epoll_ctl of int
  | Setsockopt of int
  | Pipe
  | Dup of int
  | Lseek of { fd : int; off : int; whence : int }
  | Fstat of int
  | Chmod of { path : string; mode : int }
  | Getcwd of { buf : int; len : int }

let sysno_of_call = function
  | Open _ -> Sysno.Open
  | Close _ -> Sysno.Close
  | Read _ -> Sysno.Read
  | Write _ -> Sysno.Write
  | Stat _ -> Sysno.Stat
  | Unlink _ -> Sysno.Unlink
  | Mkdir _ -> Sysno.Mkdir
  | Readdir _ -> Sysno.Readdir
  | Socket -> Sysno.Socket
  | Connect _ -> Sysno.Connect
  | Bind _ -> Sysno.Bind
  | Listen _ -> Sysno.Listen
  | Accept _ -> Sysno.Accept
  | Send _ -> Sysno.Sendto
  | Recv _ -> Sysno.Recvfrom
  (* A ring fill is recvfrom(2) to the filter: same number, same arg0,
     so seccomp programs and their verdict caches treat the two paths
     identically. *)
  | Recv_ring _ -> Sysno.Recvfrom
  | Sendfile _ -> Sysno.Sendfile
  | Getuid -> Sysno.Getuid
  | Getpid -> Sysno.Getpid
  | Gettimeofday -> Sysno.Gettimeofday
  | Clock_gettime -> Sysno.Clock_gettime
  | Nanosleep _ -> Sysno.Nanosleep
  | Sched_yield -> Sysno.Sched_yield
  | Futex -> Sysno.Futex
  | Getrandom _ -> Sysno.Getrandom
  | Mmap _ -> Sysno.Mmap
  | Munmap _ -> Sysno.Munmap
  | Pkey_mprotect _ -> Sysno.Pkey_mprotect
  | Pkey_alloc -> Sysno.Pkey_alloc
  | Pkey_free _ -> Sysno.Pkey_free
  | Epoll_wait -> Sysno.Epoll_wait
  | Epoll_ctl _ -> Sysno.Epoll_ctl
  | Setsockopt _ -> Sysno.Setsockopt
  | Pipe -> Sysno.Pipe
  | Dup _ -> Sysno.Dup
  | Lseek _ -> Sysno.Lseek
  | Fstat _ -> Sysno.Fstat
  | Chmod _ -> Sysno.Chmod
  | Getcwd _ -> Sysno.Getcwd

(* BPF argument vector: arg0 carries what filters dispatch on. *)
let bpf_args = function
  | Connect { ip; _ } -> [| ip |]
  | Open { path = _; _ } -> [| 0 |]
  | Read { fd; _ } | Write { fd; _ } | Send { fd; _ } | Recv { fd; _ }
  | Recv_ring { fd } ->
      [| fd |]
  | Sendfile { out_fd; _ } -> [| out_fd |]
  | _ -> [| 0 |]

exception Syscall_killed of { nr : Sysno.t; env : string }
exception Exited of int

type fd_desc =
  | Fd_file of { path : string; mutable offset : int; readable : bool; writable : bool }
  | Fd_sock_unbound of { mutable port : int option }
  | Fd_sock_listen of Net.listener
  | Fd_sock_stream of Net.ep

(* The rx view ring: a descriptor ring of receive buffers living in
   guest memory the owning enclosure holds an R view of (the runtime
   transfers the arena to the well-known "netring" package at attach).
   Each slot starts with an 8-byte length header followed by the
   payload; the kernel fills slots from the socket (the simulated NIC
   DMA target) and the enclosure reads them in place. A descriptor is
   granted when filled, consumed when the reader releases it with
   {!ring_consume}, and force-reclaimed if its socket closes first —
   so granted = consumed + reclaimed once the machine quiesces. *)
type rxring = {
  rx_base : int;
  rx_slots : int;
  rx_slot_bytes : int;
  mutable rx_head : int;  (** next slot index to fill *)
  mutable rx_inflight : (int * int) list;  (** (slot, fd): granted, unconsumed *)
}

let ring_hdr_bytes = 8

(* The kernel's counters in the machine's registry. The per-category
   syscall counters are indexed by [Sysno.category_index]. *)
module Metrics = Encl_obs.Metrics

let allowed_counter = Metrics.counter "syscall.allowed"
let denied_counter = Metrics.counter "syscall.denied"

let category_counters =
  Array.of_list
    (List.map
       (fun c -> Metrics.counter ("syscall." ^ Sysno.category_name c))
       Sysno.all_categories)

let gate_violation_counter = Metrics.counter "gate_violation"
let copied_counter = Metrics.counter "bytes_copied.kernel"
let rx_granted_counter = Metrics.counter "ring.rx_granted"
let rx_consumed_counter = Metrics.counter "ring.rx_consumed"
let rx_reclaimed_counter = Metrics.counter "ring.rx_reclaimed"
let cache_hit_counter = Metrics.counter "seccomp.cache_hit"
let cache_miss_counter = Metrics.counter "seccomp.cache_miss"

let counts_len = 1 + List.fold_left (fun m nr -> max m (Sysno.number nr)) 0 Sysno.all

type t = {
  clock : Clock.t;
  costs : Costs.t;
  cpu : Cpu.t;
  trusted_env : Cpu.env;
  vfs : Vfs.t;
  net : Net.t;
  mm : Mm.t;
  seccomp : Seccomp.t;
  pkeys : Mpk.allocator;
  fds : (int, fd_desc) Hashtbl.t;
  mutable next_fd : int;
  rng : Encl_util.Rng.t;
  counts : int array;  (** per-syscall tallies, indexed by [Sysno.number] *)
  mutable origin_kills : int;
  mutable rxring : rxring option;
  obs : Encl_obs.Obs.t;
  metrics : Metrics.t;  (** [obs]'s registry *)
  mutable inject : Encl_fault.Fault.t option;
  gate : Cpu.gate;  (** the copy excursions' gate, ["kernel.trusted"] *)
}

let create ~clock ~costs ~cpu ~trusted_env ~vfs ~net ~mm ~obs =
  {
    clock;
    costs;
    cpu;
    trusted_env;
    vfs;
    net;
    mm;
    seccomp = Seccomp.create ();
    pkeys = Mpk.allocator ();
    fds = Hashtbl.create 64;
    next_fd = 3;
    rng = Encl_util.Rng.make ~seed:0x5eccf11eL;
    counts = Array.make counts_len 0;
    origin_kills = 0;
    rxring = None;
    obs;
    metrics = Encl_obs.Obs.metrics obs;
    inject = None;
    (* The kernel's own user-memory excursions (copy_to/from_user) are
       a vetted gate site. *)
    gate = Cpu.register_gate cpu "kernel.trusted";
  }

let set_injector t inj =
  Encl_fault.Fault.register inj ~point:"kernel.transient_eintr"
    ~doc:"blocking network syscall returns EINTR instead of executing";
  Encl_fault.Fault.register inj ~point:"kernel.transient_eagain"
    ~doc:"blocking network syscall returns EAGAIN instead of executing";
  Encl_fault.Fault.register inj ~point:"kernel.seccomp_delay"
    ~doc:"seccomp verdict delayed, as if the BPF cache went cold";
  t.inject <- Some inj

let injected t point =
  match t.inject with
  | None -> false
  | Some inj ->
      Encl_fault.Fault.active inj
      && Encl_fault.Fault.fires inj ~env:(Cpu.env t.cpu).Cpu.label point

let vfs t = t.vfs
let net t = t.net
let mm t = t.mm
let clock t = t.clock
let install_seccomp t prog = Seccomp.install t.seccomp prog
let seccomp_invalidate t = Seccomp.invalidate t.seccomp

let seccomp_cache_stats t =
  (Metrics.total t.metrics cache_hit_counter,
   Metrics.total t.metrics cache_miss_counter)

(* Well-defined before any probe: 0 probes is "no hits yet", not NaN. *)
let seccomp_cache_hit_rate t =
  let hits, misses = seccomp_cache_stats t in
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

(* Gate-wrapped: a syscall may execute while an enclosure environment
   is current (VTX runs the handler in guest context), and the copy
   excursion's env writes must not read as forged transitions. *)
let with_trusted t f = Cpu.with_env t.cpu t.gate t.trusted_env f ()

(* The bytes_copied ledger: every pass a payload makes through user
   memory counts as "bytes_copied.kernel". Zero simulated time — the
   copy cost is charged where the copy happens. *)
let note_copied t n = Metrics.add t.metrics copied_counter n

let copy_to_user t ~addr data =
  note_copied t (Bytes.length data);
  with_trusted t (fun () -> Cpu.write_bytes t.cpu ~addr data)

let copy_from_user t ~addr ~len =
  note_copied t len;
  with_trusted t (fun () -> Cpu.read_bytes t.cpu ~addr ~len)

(* A zc-capable path running with the zero-copy flag off: the payload
   bounces through user memory [passes] times (classic read+write is
   two passes, classic recv one). Results are unaffected — only the
   memcpy cost and the ledger move. *)
let bounce t ~passes n =
  Clock.consume t.clock Clock.Syscall
    (passes * n * t.costs.Costs.bounce_copy_per_kb / 1024);
  note_copied t (passes * n)

(* Pages a length spans, at least one; [len + page_size - 1] would wrap
   for a hostile length and turn the cost negative. *)
let pages_of len = ((max len 1 - 1) asr Phys.page_shift) + 1

(* A negative length or duration: the call fails with EINVAL before it
   touches an fd, a socket or memory. *)
let negative_length = function
  | Read { len; _ } | Write { len; _ } | Send { len; _ } | Recv { len; _ }
  | Sendfile { len; _ } | Getrandom { len; _ } | Mmap { len } | Munmap { len; _ }
  | Pkey_mprotect { len; _ } ->
      len < 0
  | Nanosleep ns -> ns < 0
  | _ -> false

(* Per-call kernel service cost (on top of the trap). A negative length
   is charged as 0: the call only fails its argument check. *)
let service_cost t call =
  match call with
  | Read { len; _ } | Write { len; _ } | Send { len; _ } | Recv { len; _ } ->
      120 + (max len 0 / 16)
  | Recv_ring _ -> 120
  | Sendfile { len; _ } ->
      (* Page references splice from the VFS cache to the socket; no
         per-byte user-memory pass (the flag-off bounce is charged at
         execute time, where the actual byte count is known). *)
      t.costs.Costs.sendfile_base + (max len 0 / 256)
  | Open _ -> 450
  | Close _ -> 90
  | Stat _ -> 280
  | Unlink _ -> 260
  | Mkdir _ -> 320
  | Readdir _ -> 340
  | Socket -> 310
  | Connect _ -> 1200
  | Bind _ -> 180
  | Listen _ -> 150
  | Accept _ -> 240
  | Getuid | Getpid -> 0
  | Gettimeofday | Clock_gettime -> 25
  | Nanosleep _ -> 0 (* the sleep itself is accounted separately *)
  | Sched_yield -> 60
  | Futex -> 320
  | Getrandom { len; _ } -> 90 + (max len 0 / 4)
  | Mmap { len } -> 380 + (18 * pages_of len)
  | Munmap { len; _ } -> 200 + (8 * pages_of len)
  | Pkey_mprotect { len; _ } -> 333 + (63 * pages_of len)
  | Pkey_alloc | Pkey_free _ -> 140
  | Epoll_wait -> 120
  | Epoll_ctl _ -> 90
  | Setsockopt _ -> 80
  | Pipe -> 420
  | Dup _ -> 60
  | Lseek _ -> 40
  | Fstat _ -> 180
  | Chmod _ -> 240
  | Getcwd _ -> 35

(* Would charging [ns] keep the clock at or before {!Clock.horizon}? A
   guest request that would carry it past (a hostile sleep, the service
   time of a hostile length) fails with EINVAL instead, so no guest can
   wrap simulated time. *)
let within_horizon t ns = ns = 0 || ns <= Clock.horizon - Clock.now t.clock

let alloc_fd t desc =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd desc;
  fd

let find_fd t fd = Hashtbl.find_opt t.fds fd

let file_readable flags =
  List.mem O_rdonly flags || List.mem O_rdwr flags || flags = []

let file_writable flags =
  List.mem O_wronly flags || List.mem O_rdwr flags || List.mem O_append flags

let execute t call =
  match call with
  | _ when negative_length call -> Error Einval
  | Getuid -> Ok 1000
  | Getpid -> Ok 4217
  | Gettimeofday | Clock_gettime -> Ok (Clock.now t.clock / 1000)
  | Nanosleep ns when not (within_horizon t ns) -> Error Einval
  | Nanosleep ns ->
      Clock.consume t.clock Clock.Other ns;
      Ok 0
  | Sched_yield -> Ok 0
  | Futex -> Ok 0
  | Getrandom { buf; len } ->
      (* The destination is checked before a byte is generated: a hostile
         length faults at its first unmapped page instead of asking the
         host for [len] bytes. *)
      with_trusted t (fun () -> Cpu.check t.cpu Cpu.Write ~addr:buf ~len);
      let data = Bytes.init len (fun _ -> Encl_util.Rng.byte t.rng) in
      copy_to_user t ~addr:buf data;
      Ok len
  | Open { path; flags } ->
      let exists = Vfs.exists t.vfs path in
      if (not exists) && not (List.mem O_creat flags) then Error Enoent
      else begin
        (if not exists then
           match Vfs.create_file t.vfs path Bytes.empty with
           | Ok () -> ()
           | Error _ -> ());
        if (not exists) && not (Vfs.exists t.vfs path) then Error Enoent
        else begin
          (if List.mem O_trunc flags then
             ignore (Vfs.create_file t.vfs path Bytes.empty));
          let offset =
            if List.mem O_append flags then
              match Vfs.stat t.vfs path with Ok s -> s.Vfs.size | Error _ -> 0
            else 0
          in
          Ok
            (alloc_fd t
               (Fd_file
                  {
                    path;
                    offset;
                    readable = file_readable flags;
                    writable = file_writable flags;
                  }))
        end
      end
  | Close fd -> (
      match find_fd t fd with
      | None -> Error Ebadf
      | Some desc ->
          (match desc with
          | Fd_sock_stream ep -> Net.close_ep t.net ep
          | Fd_file _ | Fd_sock_unbound _ | Fd_sock_listen _ -> ());
          (* Force-reclaim any rx descriptors this socket still holds:
             the enclosure will never consume them now. *)
          (match t.rxring with
          | Some ring ->
              let mine, rest =
                List.partition (fun (_, owner) -> owner = fd) ring.rx_inflight
              in
              ring.rx_inflight <- rest;
              Metrics.add t.metrics rx_reclaimed_counter (List.length mine)
          | None -> ());
          Hashtbl.remove t.fds fd;
          Ok 0)
  | Read { fd; buf; len } -> (
      match find_fd t fd with
      | Some (Fd_file f) when f.readable -> (
          match Vfs.read_at t.vfs f.path ~off:f.offset ~len with
          | Ok data ->
              copy_to_user t ~addr:buf data;
              f.offset <- f.offset + Bytes.length data;
              Ok (Bytes.length data)
          | Error e -> Error (errno_of_vfs e))
      | Some (Fd_file _) -> Error Eacces
      | Some (Fd_sock_stream ep) -> (
          match Net.recv t.net ep len with
          | Net.Data data ->
              copy_to_user t ~addr:buf data;
              Ok (Bytes.length data)
          | Net.Would_block -> Error Eagain
          | Net.Eof -> Ok 0)
      | Some (Fd_sock_unbound _ | Fd_sock_listen _) -> Error Einval
      | None -> Error Ebadf)
  | Write { fd; buf; len } -> (
      match find_fd t fd with
      | Some (Fd_file f) when f.writable -> (
          let data = copy_from_user t ~addr:buf ~len in
          match Vfs.write_at t.vfs f.path ~off:f.offset data with
          | Ok n ->
              f.offset <- f.offset + n;
              Ok n
          | Error e -> Error (errno_of_vfs e))
      | Some (Fd_file _) -> Error Eacces
      | Some (Fd_sock_stream ep) -> (
          let data = copy_from_user t ~addr:buf ~len in
          match Net.send t.net ep data with Ok n -> Ok n | Error _ -> Error Epipe)
      | Some (Fd_sock_unbound _ | Fd_sock_listen _) -> Error Einval
      | None -> Error Ebadf)
  | Stat path -> (
      match Vfs.stat t.vfs path with
      | Ok s -> Ok s.Vfs.size
      | Error e -> Error (errno_of_vfs e))
  | Unlink path -> (
      match Vfs.unlink t.vfs path with
      | Ok () -> Ok 0
      | Error e -> Error (errno_of_vfs e))
  | Mkdir path -> (
      match Vfs.mkdir t.vfs path with
      | Ok () -> Ok 0
      | Error e -> Error (errno_of_vfs e))
  | Readdir path -> (
      match Vfs.readdir t.vfs path with
      | Ok entries -> Ok (List.length entries)
      | Error e -> Error (errno_of_vfs e))
  | Socket -> Ok (alloc_fd t (Fd_sock_unbound { port = None }))
  | Bind { fd; port } -> (
      match find_fd t fd with
      | Some (Fd_sock_unbound s) ->
          s.port <- Some port;
          Ok 0
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Listen fd -> (
      match find_fd t fd with
      | Some (Fd_sock_unbound { port = Some port }) -> (
          match Net.listen t.net ~port with
          | Ok l ->
              Hashtbl.replace t.fds fd (Fd_sock_listen l);
              Ok 0
          | Error _ -> Error Eexist)
      | Some (Fd_sock_unbound { port = None }) -> Error Einval
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Connect { fd; ip; port } -> (
      match find_fd t fd with
      | Some (Fd_sock_unbound _) -> (
          match Net.connect t.net ~ip ~port with
          | Ok ep ->
              Hashtbl.replace t.fds fd (Fd_sock_stream ep);
              Ok 0
          | Error _ -> Error Econnrefused)
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Accept fd -> (
      match find_fd t fd with
      | Some (Fd_sock_listen l) -> (
          match Net.accept t.net l with
          | Some ep -> Ok (alloc_fd t (Fd_sock_stream ep))
          | None -> Error Eagain)
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Send { fd; buf; len } -> (
      match find_fd t fd with
      | Some (Fd_sock_stream ep) -> (
          let data = copy_from_user t ~addr:buf ~len in
          match Net.send t.net ep data with Ok n -> Ok n | Error _ -> Error Epipe)
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Recv { fd; buf; len } -> (
      match find_fd t fd with
      | Some (Fd_sock_stream ep) -> (
          match Net.recv t.net ep len with
          | Net.Data data ->
              copy_to_user t ~addr:buf data;
              Ok (Bytes.length data)
          | Net.Would_block -> Error Eagain
          | Net.Eof -> Ok 0)
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Recv_ring { fd } -> (
      match t.rxring with
      | None -> Error Einval
      | Some ring -> (
          match find_fd t fd with
          | Some (Fd_sock_stream ep) -> (
              (* Pick the fill slot before touching the socket, and
                 never a slot that is still granted: with out-of-order
                 consumption (a held descriptor while other slots
                 churn, or a mid-ring force-reclaim) the round-robin
                 head can wrap onto live data, so scan forward from
                 rx_head for the first free descriptor. Choosing first
                 keeps backpressure lossless — no bytes leave the
                 socket buffer when the ring is full. *)
              let free_slot =
                let rec scan i left =
                  if left = 0 then None
                  else if List.mem_assoc i ring.rx_inflight then
                    scan ((i + 1) mod ring.rx_slots) (left - 1)
                  else Some i
                in
                scan ring.rx_head ring.rx_slots
              in
              match free_slot with
              | None ->
                  (* Every descriptor is granted and unconsumed:
                     backpressure until the reader releases one. *)
                  Error Eagain
              | Some slot -> (
                match
                  Net.recv t.net ep (ring.rx_slot_bytes - ring_hdr_bytes)
                with
                | Net.Data data ->
                    ring.rx_head <- (slot + 1) mod ring.rx_slots;
                    let addr = ring.rx_base + (slot * ring.rx_slot_bytes) in
                    let n = Bytes.length data in
                    (* The simulated NIC's DMA target is the ring slot
                       itself: header (payload length) then payload,
                       written from the kernel's trusted environment.
                       This write happens under both flag settings —
                       with zero-copy off it stands in for the kernel
                       socket buffer, and the payload additionally
                       bounces once through user memory. *)
                    with_trusted t (fun () ->
                        Cpu.write64 t.cpu addr (Int64.of_int n);
                        Cpu.write_bytes t.cpu ~addr:(addr + ring_hdr_bytes)
                          data);
                    ring.rx_inflight <- (slot, fd) :: ring.rx_inflight;
                    Metrics.incr t.metrics rx_granted_counter;
                    if Knob.zerocopy.Knob.value then
                      Clock.consume t.clock Clock.Syscall
                        t.costs.Costs.zc_grant
                    else bounce t ~passes:1 n;
                    (* 1-based so 0 stays "EOF", as in recv(2). *)
                    Ok (slot + 1)
                | Net.Would_block -> Error Eagain
                | Net.Eof -> Ok 0))
          | Some _ -> Error Einval
          | None -> Error Ebadf))
  | Sendfile { out_fd; in_fd; off; len } -> (
      match find_fd t out_fd with
      | Some (Fd_sock_stream ep) -> (
          match find_fd t in_fd with
          | Some (Fd_file f) when f.readable -> (
              match Vfs.read_at t.vfs f.path ~off ~len with
              | Ok data -> (
                  let n = Bytes.length data in
                  (* The payload moves VFS -> socket without entering
                     user memory; with the flag off it takes the
                     classic read+write detour instead (two passes). *)
                  if not Knob.zerocopy.Knob.value then bounce t ~passes:2 n;
                  match Net.send t.net ep data with
                  | Ok sent -> Ok sent
                  | Error _ -> Error Epipe)
              | Error e -> Error (errno_of_vfs e))
          | Some (Fd_file _) -> Error Eacces
          | Some _ -> Error Einval
          | None -> Error Ebadf)
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Mmap { len } -> (
      (* Refused only when the range passes the end of the address space;
         the next free address stays. *)
      match Mm.map t.mm ~len ~perms:{ Pte.r = true; w = true; x = false } with
      | addr -> Ok addr
      | exception Invalid_argument _ -> Error Enomem)
  | Munmap { addr; len } -> (
      match Mm.unmap t.mm ~addr ~len with
      | () -> Ok 0
      | exception Invalid_argument _ -> Error Einval)
  | Pkey_mprotect { addr; len; key } -> (
      if key < 0 || key >= Mpk.nr_keys then Error Einval
      else
        match Mm.set_pkey t.mm ~addr ~len key with
        | () -> Ok 0
        | exception Invalid_argument _ -> Error Einval)
  | Pkey_alloc -> (
      match Mpk.pkey_alloc t.pkeys with Ok k -> Ok k | Error _ -> Error Enomem)
  | Pkey_free k -> (
      match Mpk.pkey_free t.pkeys k with Ok () -> Ok 0 | Error _ -> Error Einval)
  | Epoll_wait -> Ok 1
  | Epoll_ctl fd -> if Hashtbl.mem t.fds fd then Ok 0 else Error Ebadf
  | Setsockopt fd -> if Hashtbl.mem t.fds fd then Ok 0 else Error Ebadf
  | Pipe ->
      (* A unidirectional byte stream: read end first, write end next. *)
      let wr_ep = Net.pipe_pair t.net in
      let rd = alloc_fd t (Fd_sock_stream (fst wr_ep)) in
      let wr = alloc_fd t (Fd_sock_stream (snd wr_ep)) in
      assert (wr = rd + 1);
      Ok rd
  | Dup fd -> (
      match find_fd t fd with
      | None -> Error Ebadf
      | Some desc -> Ok (alloc_fd t desc))
  | Lseek { fd; off; whence } -> (
      match find_fd t fd with
      | Some (Fd_file f) -> (
          let size =
            match Vfs.stat t.vfs f.path with Ok s -> s.Vfs.size | Error _ -> 0
          in
          let target =
            match whence with
            | 0 -> off
            | 1 -> f.offset + off
            | 2 -> size + off
            | _ -> -1
          in
          if target < 0 then Error Einval
          else begin
            f.offset <- target;
            Ok target
          end)
      | Some _ -> Error Einval
      | None -> Error Ebadf)
  | Fstat fd -> (
      match find_fd t fd with
      | Some (Fd_file f) -> (
          match Vfs.stat t.vfs f.path with
          | Ok s -> Ok s.Vfs.size
          | Error e -> Error (errno_of_vfs e))
      | Some _ -> Ok 0
      | None -> Error Ebadf)
  | Chmod { path; mode } -> (
      match Vfs.chmod t.vfs path mode with
      | Ok () -> Ok 0
      | Error e -> Error (errno_of_vfs e))
  | Getcwd { buf; len } ->
      if len < 2 then Error Einval
      else begin
        copy_to_user t ~addr:buf (Bytes.of_string "/\000");
        Ok 2
      end

let record t nr =
  let i = Sysno.number nr in
  t.counts.(i) <- t.counts.(i) + 1

(* Count the syscall's verdict (an allowed call also counts under its
   category) and, when the sink is enabled, record the latency
   histogram over [t0, now]. The caller's span covers the call. *)
let obs_syscall t nr ~t0 ~allowed =
  let module Obs = Encl_obs.Obs in
  if allowed then begin
    Metrics.incr t.metrics allowed_counter;
    Metrics.incr t.metrics
      category_counters.(Sysno.category_index (Sysno.category nr))
  end
  else Metrics.incr t.metrics denied_counter;
  if Obs.enabled t.obs then
    Obs.observe t.obs "syscall_ns" (Clock.now t.clock - t0)

(* The trap + seccomp + service portion, bracketed by the caller's span.
   [trap_cost] is the entry cost into the kernel: the full trap+return
   for a direct syscall, or the per-entry dispatch share when the call
   arrives on a drained submission ring (the batch paid one trap). *)
(* Address-space-shaping syscalls: under Mm_guard these are a
   trusted-runtime privilege on every backend — an enclosure that could
   pkey_mprotect or remap another package's arena would sidestep the
   per-access checks entirely. Conceptually these are seccomp rules
   prepended to every enclosure filter; they live here so the VTX/LWC
   configurations (which install no seccomp program) are covered too,
   and so the MPK BPF program's step counts are unchanged. *)
let mm_shaping = function
  | Mmap _ | Munmap _ | Pkey_mprotect _ | Pkey_alloc | Pkey_free _ -> true
  | _ -> false

let syscall_body t call nr ~trap_cost =
  let module Obs = Encl_obs.Obs in
  let t0 = Clock.now t.clock in
  Clock.consume t.clock Clock.Syscall trap_cost;
  (* Syscall-origin verification ("syscall as a privilege"): a trap
     raised by untrusted code is only honoured when it came through a
     registered call gate. The checks are flag tests — no simulated
     time is charged, so benign traffic costs exactly the same. *)
  (let env = Cpu.env t.cpu in
   if Cpu.untrusted_label env.Cpu.label && not (Cpu.in_gate t.cpu) then begin
     if Defense.enabled Defense.Syscall_origin then begin
       t.origin_kills <- t.origin_kills + 1;
       Metrics.incr t.metrics gate_violation_counter;
       obs_syscall t nr ~t0 ~allowed:false;
       raise
         (Syscall_killed { nr; env = env.Cpu.label ^ " (non-gate origin)" })
     end
   end;
   if Cpu.untrusted_label env.Cpu.label && mm_shaping call then
     if Defense.enabled Defense.Mm_guard then begin
       Metrics.incr t.metrics gate_violation_counter;
       obs_syscall t nr ~t0 ~allowed:false;
       raise
         (Syscall_killed { nr; env = env.Cpu.label ^ " (mm privilege)" })
     end);
  (* seccomp check (LB_MPK configuration). *)
  if Seccomp.installed t.seccomp then begin
    let env = Cpu.env t.cpu in
    let data =
      Bpf.make_data ~nr:(Sysno.number nr) ~args:(bpf_args call) ~pkru:env.Cpu.pkru ()
    in
    (* The filter evaluation gets its own child span: the MPK backend's
       per-syscall overhead is exactly this region. Nothing inside
       raises, so no exception bracket is needed. *)
    let ssp =
      if Obs.enabled t.obs then
        Obs.span_enter t.obs ~name:"seccomp" ~category:Encl_obs.Span.Seccomp ()
      else -1
    in
    (* The verdict cache is per-core: consult the cache of the core
       the trap arrived on (the clock's current lane). *)
    let action, outcome =
      Seccomp.check_memo ~core:(Clock.lane t.clock) t.seccomp data
    in
    (match outcome with
    | Seccomp.Hit ->
        Clock.consume t.clock Clock.Syscall t.costs.Costs.seccomp_cached;
        Metrics.incr t.metrics cache_hit_counter
    | Seccomp.Evaluated steps ->
        Clock.consume t.clock Clock.Syscall
          (if steps <= 4 then t.costs.Costs.seccomp_fast else t.costs.Costs.seccomp_eval);
        (* With the fast path off there is no cache to miss. *)
        if Knob.fastpath.Knob.value then
          Metrics.incr t.metrics cache_miss_counter);
    if injected t "kernel.seccomp_delay" then
      (* Verdict unchanged, just late: a cold BPF JIT cache. *)
      Clock.consume t.clock Clock.Syscall (10 * t.costs.Costs.seccomp_eval);
    Obs.span_exit t.obs ssp;
    match action with
    | Bpf.Allow -> ()
    | Bpf.Kill | Bpf.Trap ->
        obs_syscall t nr ~t0 ~allowed:false;
        raise (Syscall_killed { nr; env = env.Cpu.label })
    | Bpf.Errno _ -> ()
  end;
  let service = service_cost t call in
  let result =
    if not (within_horizon t service) then Error Einval
    else begin
      Clock.consume t.clock Clock.Syscall service;
      (* Chaos: blocking network calls may fail transiently before
         touching the fd — the classic retry surface. *)
      let transient =
        match call with
        | Recv _ | Recv_ring _ | Send _ | Accept _ ->
            if injected t "kernel.transient_eintr" then Some Eintr
            else if injected t "kernel.transient_eagain" then Some Eagain
            else None
        | _ -> None
      in
      match transient with Some e -> Error e | None -> execute t call
    end
  in
  obs_syscall t nr ~t0 ~allowed:true;
  result

let syscall_with t call ~trap_cost =
  let nr = sysno_of_call call in
  record t nr;
  let module Obs = Encl_obs.Obs in
  let sp =
    if Obs.enabled t.obs then
      Obs.span_enter t.obs ~name:("syscall:" ^ Sysno.name nr)
        ~category:Encl_obs.Span.Syscall ()
    else -1
  in
  match syscall_body t call nr ~trap_cost with
  | r ->
      Obs.span_exit t.obs sp;
      r
  | exception e ->
      Obs.span_exit t.obs sp;
      raise e

let syscall t call = syscall_with t call ~trap_cost:t.costs.Costs.syscall_base

let syscall_in_batch t call =
  syscall_with t call ~trap_cost:t.costs.Costs.ring_entry

let exit_program t code =
  record t Sysno.Exit;
  let module Obs = Encl_obs.Obs in
  let sp =
    if Obs.enabled t.obs then
      Obs.span_enter t.obs ~name:"syscall:exit"
        ~category:Encl_obs.Span.Syscall ()
    else -1
  in
  Clock.consume t.clock Clock.Syscall t.costs.Costs.syscall_base;
  Obs.span_exit t.obs sp;
  raise (Exited code)

(* ------------------------------------------------------------------ *)
(* The rx view ring: attach / consume / introspection. Consuming a
   descriptor is an io_uring-style shared-memory operation (a head
   advance the kernel polls), not a trap — like the netpoller helpers
   below it crosses no privilege boundary and passes no filter. *)

let attach_rxring t ~base ~slots ~slot_bytes =
  if slots <= 0 || slot_bytes <= ring_hdr_bytes then
    invalid_arg "Kernel.attach_rxring: bad ring geometry";
  t.rxring <-
    Some
      {
        rx_base = base;
        rx_slots = slots;
        rx_slot_bytes = slot_bytes;
        rx_head = 0;
        rx_inflight = [];
      }

let ring_consume t slot =
  match t.rxring with
  | None -> invalid_arg "Kernel.ring_consume: no ring attached"
  | Some ring ->
      if not (List.mem_assoc slot ring.rx_inflight) then
        invalid_arg "Kernel.ring_consume: descriptor not granted";
      ring.rx_inflight <- List.remove_assoc slot ring.rx_inflight;
      (* A couple of shared-memory stores under either flag setting. *)
      Clock.consume t.clock Clock.Io t.costs.Costs.zc_consume;
      Metrics.incr t.metrics rx_consumed_counter

let rxring_attached t = Option.is_some t.rxring

let rxring_counters t =
  ( Metrics.total t.metrics rx_granted_counter,
    Metrics.total t.metrics rx_consumed_counter,
    Metrics.total t.metrics rx_reclaimed_counter )

let rxring_inflight t =
  match t.rxring with None -> 0 | Some ring -> List.length ring.rx_inflight

let bytes_copied_count t = Metrics.total t.metrics copied_counter

let fd_readable t fd =
  match find_fd t fd with
  | Some (Fd_sock_stream ep) -> Net.readable t.net ep
  | Some (Fd_file _) -> true
  | Some _ | None -> false

let listener_pending t fd =
  match find_fd t fd with
  | Some (Fd_sock_listen l) -> Net.pending t.net l > 0
  | Some _ | None -> false

let syscall_count t = Array.fold_left ( + ) 0 t.counts
let count_for t nr = t.counts.(Sysno.number nr)
let origin_kill_count t = t.origin_kills

let trace t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then
      match Sysno.of_number i with
      | Some nr -> acc := (nr, t.counts.(i)) :: !acc
      | None -> ()
  done;
  !acc
