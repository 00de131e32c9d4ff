(* Tests for the zero-copy data plane (ENCL_ZEROCOPY).

   The core property is differential, the same shape as test_sysring:
   the Zerocopy flag may change what a run *costs* (bounce copies,
   grant/consume accounting), never what it *does*. Random op sequences
   — ring receives, descriptor holds, sendfile splices, denied splices,
   writes into R-granted ring spans — are executed twice, flag on and
   off, and every enforcement outcome (results and errnos, fault log,
   fault counts, quarantine state, ring descriptor counters) must be
   identical.

   Two directed properties ride along: a write into an R-granted ring
   span faults on every backend (the view ring shares read-only), and
   the descriptor ledger balances — every granted slot is consumed by
   the owner or force-reclaimed when the socket closes. *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net
module Vfs = Encl_kernel.Vfs
module Obs = Encl_obs.Obs
module Metrics = Encl_obs.Metrics

let packages () =
  [
    Runtime.package "main"
      ~imports:[ "lib"; Runtime.netring_pkg ]
      ~functions:[ ("main", 64); ("zc_body", 32); ("plain_body", 32) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "zc";
            enc_policy = Runtime.netring_pkg ^ ":R; sys=net,io";
            enc_closure = "zc_body";
            enc_deps = [ "lib" ];
          };
          {
            (* No ring view and no syscalls: the denied-splice op and a
               distinct memory view under LB_MPK. *)
            Encl_elf.Objfile.enc_name = "noio";
            enc_policy = "; sys=none";
            enc_closure = "plain_body";
            enc_deps = [ "lib" ];
          };
        ]
      ();
    Runtime.package Runtime.netring_pkg
      ~globals:[ ("ring_anchor", 64, None) ]
      ();
    Runtime.package "lib" ~functions:[ ("work", 64) ] ();
  ]

let file_len = 512
let slot_payload = 128
let slots = 4

type env = {
  rt : Runtime.t;
  ring : Runtime.netring;
  conn_fd : int;  (** accepted server-side end *)
  client : Net.ep;
  file_fd : int;
}

let setup backend =
  (* Pinned to one core regardless of ENCL_CORES: the ops drive one
     connection synchronously. *)
  let rcfg = { (Runtime.with_backend backend) with Runtime.cores = 1 } in
  let rt =
    match Runtime.boot rcfg ~packages:(packages ()) ~entry:"main" with
    | Ok rt -> rt
    | Error e -> failwith ("test_zerocopy boot: " ^ e)
  in
  let m = Runtime.machine rt in
  (match Vfs.mkdir_p m.Machine.vfs "/srv" with
  | Ok () -> ()
  | Error e -> failwith ("mkdir: " ^ Vfs.errno_name e));
  (match Vfs.create_file m.Machine.vfs "/srv/body" (Bytes.make file_len 'b') with
  | Ok () -> ()
  | Error e -> failwith ("create: " ^ Vfs.errno_name e));
  let file_fd =
    Runtime.syscall_exn rt (K.Open { path = "/srv/body"; flags = [ K.O_rdonly ] })
  in
  let ring =
    Runtime.attach_netring rt ~slots
      ~slot_bytes:(slot_payload + K.ring_hdr_bytes) ()
  in
  let srv = Runtime.syscall_exn rt K.Socket in
  ignore (Runtime.syscall_exn rt (K.Bind { fd = srv; port = 7070 }));
  ignore (Runtime.syscall_exn rt (K.Listen srv));
  let client =
    match Net.client_connect m.Machine.net ~port:7070 with
    | Ok ep -> ep
    | Error e -> failwith ("client_connect: " ^ e)
  in
  let conn_fd = Runtime.syscall_exn rt (K.Accept srv) in
  { rt; ring; conn_fd; client; file_fd }

(* ------------------------------------------------------------------ *)
(* The differential property *)

type op =
  | Send_recv of int
      (** client sends n bytes; ring recv inside the zc enclosure, read
          the payload back, consume the descriptor *)
  | Send_hold of int
      (** ring recv without consuming: the descriptor stays inflight
          until the socket closes (the reclaim path) *)
  | Recv_empty  (** ring recv with nothing buffered: EAGAIN *)
  | Splice of int  (** sendfile file -> socket inside the zc enclosure *)
  | Splice_denied  (** sendfile inside sys=none: the filter kills it *)
  | Write_ring
      (** write into the most recent R-granted span: must fault *)
  | Read_ring  (** read the most recent span again: still allowed *)

let op_name = function
  | Send_recv n -> Printf.sprintf "send_recv:%d" n
  | Send_hold n -> Printf.sprintf "send_hold:%d" n
  | Recv_empty -> "recv_empty"
  | Splice n -> Printf.sprintf "splice:%d" n
  | Splice_denied -> "splice_denied"
  | Write_ring -> "write_ring"
  | Read_ring -> "read_ring"

(* Run one op, returning a stable outcome string. Fault-family
   exceptions are observable behaviour whose descriptions must match
   between the two runs; simulated addresses are flag-invariant too, so
   the Cpu fault's vaddr is deliberately part of the string. *)
let run_op env last op =
  let rt = env.rt in
  let m = Runtime.machine rt in
  let result = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error e -> "errno:" ^ K.errno_name e
  in
  let recv () =
    match Runtime.netring_recv rt env.ring ~fd:env.conn_fd with
    | Ok (Some (slot, payload)) ->
        last := Some (slot, payload);
        Printf.sprintf "granted:%d:%s" slot
          (Gbuf.read_string m payload)
    | Ok None -> "eof"
    | Error e -> "errno:" ^ K.errno_name e
  in
  match
    match op with
    | Send_recv n -> (
        (match Net.send m.Machine.net env.client (Bytes.make n 'q') with
        | Ok _ -> ()
        | Error e -> failwith ("client send: " ^ e));
        Runtime.with_enclosure rt "zc" (fun () ->
            match recv () with
            | s -> (
                match !last with
                | Some (slot, _) ->
                    Runtime.netring_consume rt slot;
                    last := None;
                    s ^ ":consumed"
                | None -> s)))
    | Send_hold n ->
        (match Net.send m.Machine.net env.client (Bytes.make n 'h') with
        | Ok _ -> ()
        | Error e -> failwith ("client send: " ^ e));
        Runtime.with_enclosure rt "zc" (fun () -> recv ())
    | Recv_empty -> Runtime.with_enclosure rt "zc" (fun () -> recv ())
    | Splice n ->
        Runtime.with_enclosure rt "zc" (fun () ->
            result
              (Runtime.syscall rt
                 (K.Sendfile
                    {
                      out_fd = env.conn_fd;
                      in_fd = env.file_fd;
                      off = 0;
                      len = min n file_len;
                    })))
    | Splice_denied ->
        Runtime.with_enclosure rt "noio" (fun () ->
            result
              (Runtime.syscall rt
                 (K.Sendfile
                    {
                      out_fd = env.conn_fd;
                      in_fd = env.file_fd;
                      off = 0;
                      len = 64;
                    })))
    | Write_ring -> (
        match !last with
        | None -> "skipped"
        | Some (_, payload) ->
            Runtime.with_enclosure rt "zc" (fun () ->
                Gbuf.set m payload 0 42;
                "wrote"))
    | Read_ring -> (
        match !last with
        | None -> "skipped"
        | Some (_, payload) ->
            Runtime.with_enclosure rt "zc" (fun () ->
                Printf.sprintf "read:%s" (Gbuf.read_string m payload)))
  with
  | outcome -> outcome
  | exception Lb.Fault { reason; _ } -> "fault:" ^ reason
  | exception Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure
  | exception Cpu.Fault f ->
      Printf.sprintf "memfault:%s:%x:%s"
        (Cpu.access_kind_name f.Cpu.kind)
        f.Cpu.vaddr f.Cpu.reason

type outcome = {
  o_results : string list;
  o_faults : int;
  o_fault_log : string list;
  o_quarantined : bool * bool;  (** zc, noio *)
  o_ring : int * int * int;  (** granted, consumed, reclaimed — at quiesce *)
}

(* Execute the op sequence on a fresh machine, closing the connection at
   the end so held descriptors reclaim. While we're at it, cross-check
   the ring's descriptor balance, and the guest-side bytes_copied field
   against its registry total. *)
let run_ops backend ops =
  let env = setup backend in
  let lb = Option.get (Runtime.lb env.rt) in
  Lb.set_fault_budget lb 3;
  let last = ref None in
  let results = List.map (run_op env last) ops in
  ignore (Runtime.syscall_exn env.rt (K.Close env.conn_fd));
  let m = Runtime.machine env.rt in
  let kernel = m.Machine.kernel in
  let granted, consumed, reclaimed = K.rxring_counters kernel in
  if granted <> consumed + reclaimed then
    QCheck.Test.fail_reportf
      "ring descriptors leaked at quiesce: granted %d <> consumed %d + \
       reclaimed %d"
      granted consumed reclaimed;
  if K.rxring_inflight kernel <> 0 then
    QCheck.Test.fail_reportf "%d descriptors inflight after close"
      (K.rxring_inflight kernel);
  (let registry =
     Option.value ~default:0
       (List.assoc_opt "bytes_copied.app" (Metrics.totals (Obs.metrics m.Machine.obs)))
   in
   if registry <> m.Machine.bytes_copied then
     QCheck.Test.fail_reportf "bytes_copied.app: registry %d <> field %d"
       registry m.Machine.bytes_copied);
  ( {
      o_results = results;
      o_faults = Lb.fault_count lb;
      o_fault_log = Lb.fault_log lb;
      o_quarantined = (Lb.quarantined lb "zc", Lb.quarantined lb "noio");
      o_ring = (granted, consumed, reclaimed);
    },
    K.bytes_copied_count kernel + m.Machine.bytes_copied )

let pp_outcome o =
  let g, c, r = o.o_ring in
  Printf.sprintf
    "results=[%s] faults=%d log=[%s] quar=(%b,%b) ring=%d/%d/%d"
    (String.concat "; " o.o_results)
    o.o_faults
    (String.concat "; " o.o_fault_log)
    (fst o.o_quarantined) (snd o.o_quarantined) g c r

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Send_recv n) (int_range 1 slot_payload));
        (2, map (fun n -> Send_hold n) (int_range 1 slot_payload));
        (2, return Recv_empty);
        (3, map (fun n -> Splice n) (int_range 1 file_len));
        (1, return Splice_denied);
        (2, return Write_ring);
        (2, return Read_ring);
      ])

let backend_gen = QCheck.Gen.oneofl Fixtures.all_backends

let scenario_arb =
  QCheck.make
    ~print:(fun (backend, ops) ->
      Printf.sprintf "%s: %s"
        (Lb.backend_name backend)
        (String.concat ", " (List.map op_name ops)))
    QCheck.Gen.(pair backend_gen (list_size (int_range 1 30) op_gen))

let differential_prop (backend, ops) =
  let on, bytes_on = Zerocopy.with_flag true (fun () -> run_ops backend ops) in
  let off, bytes_off =
    Zerocopy.with_flag false (fun () -> run_ops backend ops)
  in
  if on <> off then
    QCheck.Test.fail_reportf "outcomes diverged:\n  zc on:  %s\n  zc off: %s"
      (pp_outcome on) (pp_outcome off);
  (* The flag must never make the ledger grow: with it on, ring grants
     and splices charge no copied bytes, so on <= off always. *)
  if bytes_on > bytes_off then
    QCheck.Test.fail_reportf "zerocopy copied more bytes than the bounce \
                              path (%d > %d)"
      bytes_on bytes_off;
  true

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"the zerocopy flag preserves enforcement outcomes" ~count:320
         scenario_arb differential_prop);
  ]

(* ------------------------------------------------------------------ *)
(* The shared view is read-only *)

let write_faults_tests =
  [
    Alcotest.test_case "a write into an R-granted ring span faults" `Quick
      (fun () ->
        List.iter
          (fun backend ->
            let env = setup backend in
            let m = Runtime.machine env.rt in
            (match Net.send m.Machine.net env.client (Bytes.make 32 'w') with
            | Ok _ -> ()
            | Error e -> failwith ("client send: " ^ e));
            let name = Lb.backend_name backend in
            Runtime.with_enclosure env.rt "zc" (fun () ->
                match Runtime.netring_recv env.rt env.ring ~fd:env.conn_fd with
                | Ok (Some (slot, payload)) ->
                    (* Reading the granted span is the whole point... *)
                    Alcotest.(check string)
                      (name ^ ": payload readable")
                      (String.make 32 'w')
                      (Gbuf.read_string m payload);
                    (* ...but the view is R: any write must fault. *)
                    (match Gbuf.set m payload 0 42 with
                    | () -> Alcotest.fail (name ^ ": write did not fault")
                    | exception Cpu.Fault f ->
                        Alcotest.(check string)
                          (name ^ ": a write fault") "write"
                          (Cpu.access_kind_name f.Cpu.kind)
                    | exception Lb.Fault _ -> ());
                    Runtime.netring_consume env.rt slot
                | Ok None -> Alcotest.fail (name ^ ": unexpected EOF")
                | Error e ->
                    Alcotest.fail (name ^ ": recv errno " ^ K.errno_name e)))
          Fixtures.all_backends)
  ]

(* ------------------------------------------------------------------ *)
(* Descriptor lifecycle *)

let reclaim_tests =
  [
    Alcotest.test_case "consume releases, close force-reclaims" `Quick
      (fun () ->
        let env = setup Lb.Mpk in
        let m = Runtime.machine env.rt in
        let kernel = m.Machine.kernel in
        let send n c =
          match Net.send m.Machine.net env.client (Bytes.make n c) with
          | Ok _ -> ()
          | Error e -> failwith ("client send: " ^ e)
        in
        let recv () =
          match Runtime.netring_recv env.rt env.ring ~fd:env.conn_fd with
          | Ok (Some (slot, _)) -> slot
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.fail ("recv errno: " ^ K.errno_name e)
        in
        (* Grant then consume: the slot returns to the kernel. *)
        send 16 'a';
        let slot = recv () in
        Runtime.netring_consume env.rt slot;
        Alcotest.(check (triple int int int))
          "consumed descriptor accounted" (1, 1, 0)
          (K.rxring_counters kernel);
        (* Fill every slot without consuming: backpressure, not loss. *)
        for _ = 1 to slots do
          send 16 'h';
          ignore (recv ())
        done;
        send 16 'x';
        (match Runtime.netring_recv env.rt env.ring ~fd:env.conn_fd with
        | Error K.Eagain -> ()
        | Ok _ -> Alcotest.fail "grant beyond ring capacity"
        | Error e -> Alcotest.fail ("expected EAGAIN, got " ^ K.errno_name e));
        Alcotest.(check int) "every slot inflight" slots
          (K.rxring_inflight kernel);
        (* Close force-reclaims the held descriptors; the ledger
           balances at quiesce. *)
        ignore (Runtime.syscall_exn env.rt (K.Close env.conn_fd));
        let granted, consumed, reclaimed = K.rxring_counters kernel in
        Alcotest.(check (triple int int int))
          "reclaimed on close"
          (1 + slots, 1, slots)
          (granted, consumed, reclaimed);
        Alcotest.(check int) "nothing inflight" 0 (K.rxring_inflight kernel);
        Alcotest.(check bool) "granted = consumed + reclaimed" true
          (granted = consumed + reclaimed));
    Alcotest.test_case "a held descriptor survives ring wrap" `Quick
      (fun () ->
        (* Regression: the fill cursor used to advance round-robin and
           could wrap onto a still-granted slot, silently overwriting
           the held payload with another message's bytes while every
           counter kept balancing. Hold the first descriptor, churn the
           rest of the ring through two full wraps, and require the
           held span untouched and never re-granted. *)
        let env = setup Lb.Mpk in
        let m = Runtime.machine env.rt in
        let kernel = m.Machine.kernel in
        let send n c =
          match Net.send m.Machine.net env.client (Bytes.make n c) with
          | Ok _ -> ()
          | Error e -> failwith ("client send: " ^ e)
        in
        let recv () =
          match Runtime.netring_recv env.rt env.ring ~fd:env.conn_fd with
          | Ok (Some (slot, payload)) -> (slot, payload)
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.fail ("recv errno: " ^ K.errno_name e)
        in
        send 16 'A';
        let held_slot, held_payload = recv () in
        for i = 1 to 2 * slots do
          let c = Char.chr (Char.code 'a' + i) in
          send 16 c;
          let slot, payload = recv () in
          if slot = held_slot then
            Alcotest.failf "grant %d landed on the held slot %d" i held_slot;
          Alcotest.(check string)
            (Printf.sprintf "churn grant %d carries its own bytes" i)
            (String.make 16 c)
            (Gbuf.read_string m payload);
          Runtime.netring_consume env.rt slot
        done;
        Alcotest.(check string) "held payload intact after two wraps"
          (String.make 16 'A')
          (Gbuf.read_string m held_payload);
        Alcotest.(check int) "exactly the held descriptor inflight" 1
          (K.rxring_inflight kernel);
        Runtime.netring_consume env.rt held_slot;
        ignore (Runtime.syscall_exn env.rt (K.Close env.conn_fd));
        Alcotest.(check (triple int int int))
          "ledger balanced at quiesce"
          (1 + (2 * slots), 1 + (2 * slots), 0)
          (K.rxring_counters kernel))
  ]

(* ------------------------------------------------------------------ *)
(* localcopy copy-on-write: the pylike leg of the differential. The
   elided share must be observationally identical to the eager deep
   copy: reads alias until the first write, a write to either side of
   the share materializes the deferred private copy, and a write to the
   R-granted source inside the enclosure faults under both flag
   settings. *)

module Pyrt = Encl_pylike.Pyrt

let py_ok = function Ok v -> v | Error e -> failwith ("pylike: " ^ e)

let py_boot backend =
  let rt = py_ok (Pyrt.boot ~backend ~mode:Pyrt.Conservative ()) in
  py_ok (Pyrt.import_module rt ~name:"src" ());
  py_ok (Pyrt.import_module rt ~name:"dst" ());
  rt

let py_run backend =
  let rt = py_boot backend in
  let lb = Option.get (Pyrt.lb rt) in
  Lb.set_fault_budget lb 3;
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let payload obj = Bytes.to_string (Pyrt.read_payload rt obj) in
  let src = Pyrt.alloc_obj rt ~modul:"src" ~len:8 in
  Pyrt.write_payload rt src (Bytes.of_string "abcdefgh");
  let c2 = ref None in
  (match
     Pyrt.with_enclosure rt ~name:"pycow" ~owner:"__main__" ~deps:[ "dst" ]
       ~policy:"src:R; sys=none" (fun () ->
         let c1 = Pyrt.localcopy rt src ~dst_module:"dst" in
         say "copy1=%s" (payload c1);
         (* Write-after-localcopy: lands in the private copy, never in
            the source. *)
         Pyrt.write_payload rt c1 (Bytes.of_string "WRITTEN!");
         say "copy1'=%s src=%s" (payload c1) (payload src);
         c2 := Some (Pyrt.localcopy rt src ~dst_module:"dst"))
   with
  | Ok () -> say "enclosure=ok"
  | Error e -> say "enclosure=error:%s" e);
  (* Trusted write to the shared source: the outstanding copy must keep
     the pre-write bytes, like the eager deep copy it stands in for. *)
  Pyrt.write_payload rt src (Bytes.of_string "12345678");
  (match !c2 with
  | Some c -> say "copy2=%s src'=%s" (payload c) (payload src)
  | None -> say "copy2=missing");
  (* A write to the R-granted source inside the enclosure must fault,
     identically under both flag settings. *)
  (match
     Pyrt.with_enclosure rt ~name:"pycow" ~owner:"__main__" ~deps:[ "dst" ]
       ~policy:"src:R; sys=none" (fun () ->
         Pyrt.write_payload rt src (Bytes.of_string "IllEGAL!"))
   with
  | Ok () -> say "src_write=ok"
  | Error e -> say "src_write=error:%s" e
  | exception Lb.Fault { reason; _ } -> say "src_write=fault:%s" reason
  | exception Cpu.Fault f ->
      say "src_write=memfault:%s" (Cpu.access_kind_name f.Cpu.kind));
  say "faults=%d src_rc=%d" (Lb.fault_count lb) (Pyrt.refcount rt src);
  List.rev !out

let py_differential_tests =
  [
    Alcotest.test_case "localcopy CoW preserves semantics across the flag"
      `Quick (fun () ->
        List.iter
          (fun backend ->
            let on = Zerocopy.with_flag true (fun () -> py_run backend) in
            let off = Zerocopy.with_flag false (fun () -> py_run backend) in
            Alcotest.(check (list string))
              (Lb.backend_name backend ^ ": outcomes match across the flag")
              off on)
          Fixtures.all_backends);
    Alcotest.test_case "write-after-localcopy materializes the share" `Quick
      (fun () ->
        Zerocopy.with_flag true (fun () ->
            let rt = py_boot Lb.Mpk in
            let src = Pyrt.alloc_obj rt ~modul:"src" ~len:8 in
            Pyrt.write_payload rt src (Bytes.of_string "abcdefgh");
            py_ok
              (Pyrt.with_enclosure rt ~name:"pycow" ~owner:"__main__"
                 ~deps:[ "dst" ] ~policy:"src:R; sys=none" (fun () ->
                   let c = Pyrt.localcopy rt src ~dst_module:"dst" in
                   Alcotest.(check int) "share elided" 1
                     (Pyrt.copy_elided_count rt);
                   Alcotest.(check bool) "share aliases the source" true
                     (c.Pyrt.o_addr = src.Pyrt.o_addr);
                   Alcotest.(check int) "share holds a source ref" 2
                     (Pyrt.refcount rt src);
                   Pyrt.write_payload rt c (Bytes.of_string "WRITTEN!");
                   Alcotest.(check int) "materialized on first write" 1
                     (Pyrt.cow_materialized_count rt);
                   Alcotest.(check bool) "handle re-points at a private copy"
                     true
                     (c.Pyrt.o_addr <> src.Pyrt.o_addr);
                   Alcotest.(check string) "copy lives in the destination"
                     "dst" c.Pyrt.o_module;
                   Alcotest.(check string) "write landed in the copy"
                     "WRITTEN!"
                     (Bytes.to_string (Pyrt.read_payload rt c));
                   Alcotest.(check string) "source untouched" "abcdefgh"
                     (Bytes.to_string (Pyrt.read_payload rt src));
                   Alcotest.(check int) "source ref released" 1
                     (Pyrt.refcount rt src)))))
  ]

let () =
  Alcotest.run "zerocopy"
    [
      ("differential", differential_tests);
      ("write-faults", write_faults_tests);
      ("descriptor-reclaim", reclaim_tests);
      ("localcopy-cow", py_differential_tests);
    ]
