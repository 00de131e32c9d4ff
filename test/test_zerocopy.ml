(* Tests for the zero-copy data plane (ENCL_ZEROCOPY).

   The flag may change what a run *costs* (bounce copies, grant/consume
   accounting), never what it *does*: the enforcement oracle (oracle.ml)
   checks that over random op sequences, ring receives, splices and
   writes into R-granted spans included, and the property below with
   only zero copy on. The directed tests, on the oracle's endpoint, pin
   that such a write faults on every backend and that the descriptor
   ledger balances: every granted slot is consumed by the owner or
   force-reclaimed when the socket closes. *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net

(* ------------------------------------------------------------------ *)
(* The differential property *)

(* The oracle's product with only zero copy on. *)
let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (Oracle.axis
         ~name:"the zerocopy flag preserves enforcement outcomes" ~count:320
         (QCheck.Gen.return (Oracle.knob_on Knob.zerocopy)));
  ]

(* ------------------------------------------------------------------ *)
(* The shared view is read-only *)

let write_faults_tests =
  [
    Alcotest.test_case "a write into an R-granted ring span faults" `Quick
      (fun () ->
        List.iter
          (fun backend ->
            let { Oracle.rt; ring; conn_fd; client; _ } = Oracle.setup backend in
            let m = Runtime.machine rt in
            (match Net.send m.Machine.net client (Bytes.make 32 'w') with
            | Ok _ -> ()
            | Error e -> failwith ("client send: " ^ e));
            let name = Lb.backend_name backend in
            Runtime.with_enclosure rt "zc" (fun () ->
                match Runtime.netring_recv rt ring ~fd:conn_fd with
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
                    Runtime.netring_consume rt slot
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
        let { Oracle.rt; ring; conn_fd; client; _ } = Oracle.setup Lb.Mpk in
        let m = Runtime.machine rt in
        let kernel = m.Machine.kernel in
        let send n c =
          match Net.send m.Machine.net client (Bytes.make n c) with
          | Ok _ -> ()
          | Error e -> failwith ("client send: " ^ e)
        in
        let recv () =
          match Runtime.netring_recv rt ring ~fd:conn_fd with
          | Ok (Some (slot, _)) -> slot
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.fail ("recv errno: " ^ K.errno_name e)
        in
        (* Grant then consume: the slot returns to the kernel. *)
        send 16 'a';
        let slot = recv () in
        Runtime.netring_consume rt slot;
        Alcotest.(check (triple int int int))
          "consumed descriptor accounted" (1, 1, 0)
          (K.rxring_counters kernel);
        (* Fill every slot without consuming: backpressure, not loss. *)
        for _ = 1 to Oracle.slots do
          send 16 'h';
          ignore (recv ())
        done;
        send 16 'x';
        (match Runtime.netring_recv rt ring ~fd:conn_fd with
        | Error K.Eagain -> ()
        | Ok _ -> Alcotest.fail "grant beyond ring capacity"
        | Error e -> Alcotest.fail ("expected EAGAIN, got " ^ K.errno_name e));
        Alcotest.(check int) "every slot inflight" Oracle.slots
          (K.rxring_inflight kernel);
        (* Close force-reclaims the held descriptors; the ledger
           balances at quiesce. *)
        ignore (Runtime.syscall_exn rt (K.Close conn_fd));
        let granted, consumed, reclaimed = K.rxring_counters kernel in
        Alcotest.(check (triple int int int))
          "reclaimed on close"
          (1 + Oracle.slots, 1, Oracle.slots)
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
        let { Oracle.rt; ring; conn_fd; client; _ } = Oracle.setup Lb.Mpk in
        let m = Runtime.machine rt in
        let kernel = m.Machine.kernel in
        let send n c =
          match Net.send m.Machine.net client (Bytes.make n c) with
          | Ok _ -> ()
          | Error e -> failwith ("client send: " ^ e)
        in
        let recv () =
          match Runtime.netring_recv rt ring ~fd:conn_fd with
          | Ok (Some (slot, payload)) -> (slot, payload)
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.fail ("recv errno: " ^ K.errno_name e)
        in
        send 16 'A';
        let held_slot, held_payload = recv () in
        for i = 1 to 2 * Oracle.slots do
          let c = Char.chr (Char.code 'a' + i) in
          send 16 c;
          let slot, payload = recv () in
          if slot = held_slot then
            Alcotest.failf "grant %d landed on the held slot %d" i held_slot;
          Alcotest.(check string)
            (Printf.sprintf "churn grant %d carries its own bytes" i)
            (String.make 16 c)
            (Gbuf.read_string m payload);
          Runtime.netring_consume rt slot
        done;
        Alcotest.(check string) "held payload intact after two wraps"
          (String.make 16 'A')
          (Gbuf.read_string m held_payload);
        Alcotest.(check int) "exactly the held descriptor inflight" 1
          (K.rxring_inflight kernel);
        Runtime.netring_consume rt held_slot;
        ignore (Runtime.syscall_exn rt (K.Close conn_fd));
        Alcotest.(check (triple int int int))
          "ledger balanced at quiesce"
          (1 + (2 * Oracle.slots), 1 + (2 * Oracle.slots), 0)
          (K.rxring_counters kernel))
  ]

(* ------------------------------------------------------------------ *)
(* localcopy copy-on-write: the pylike leg, which the oracle does not
   run. The elided share must be observationally identical to the eager
   deep copy: reads alias until the first write, a write to either side of
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
                     "dst" (Pyrt.module_name c.Pyrt.o_module);
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
