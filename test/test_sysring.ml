(* Tests for the batched syscall ring (ENCL_SYSRING).

   Batching may change what a run *costs* (VM EXITs, traps, filter
   walks), never what it *does*: the enforcement oracle (oracle.ml)
   checks that over random op sequences, and the property below with
   only the ring on. The directed tests pin the drain points and the
   denied-entry path, on the oracle's program and one core (each core
   drains its own ring). *)

module Runtime = Encl_golike.Runtime
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel

(* ------------------------------------------------------------------ *)
(* The differential property *)

(* The oracle's product with only the ring on. *)
let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (Oracle.axis ~name:"the ring preserves enforcement outcomes" ~count:320
         (QCheck.Gen.return (Oracle.knob_on Knob.sysring)));
  ]

(* ------------------------------------------------------------------ *)
(* Drain points *)

let drain_tests =
  [
    Alcotest.test_case "a full queue flushes before accepting the entry"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = Oracle.boot Lb.Mpk in
        let lb = Option.get (Runtime.lb rt) in
        (* Ring capacity is 64: the 65th submission must drain the 64
           queued entries first so submission order is preserved. *)
        let comps = List.init 70 (fun _ -> Lb.submit lb K.Getpid) in
        Alcotest.(check int) "one forced batch" 1 (Lb.ring_batches_count lb);
        Alcotest.(check int) "full ring drained" 64 (Lb.ring_drained_count lb);
        Alcotest.(check int) "overflow still queued" 6 (Lb.ring_pending lb);
        Alcotest.(check bool) "first entry completed" true
          (Lb.completion_ready (List.hd comps));
        (* Awaiting a still-pending completion drains the rest. *)
        List.iter
          (fun c ->
            match Lb.await lb c with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("getpid errno: " ^ K.errno_name e))
          comps;
        Alcotest.(check int) "nothing pending after await" 0
          (Lb.ring_pending lb);
        Alcotest.(check int) "balance" (Lb.ring_submitted_count lb)
          (Lb.ring_drained_count lb));
    Alcotest.test_case "the epilog drains before the environment leaves"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = Oracle.boot Lb.Vtx in
        let lb = Option.get (Runtime.lb rt) in
        let comp = ref None in
        Runtime.with_enclosure rt "io" (fun () ->
            comp := Some (Lb.submit lb K.Getuid);
            Alcotest.(check int) "queued inside" 1 (Lb.ring_pending lb);
            Alcotest.(check bool) "not completed inside" false
              (Lb.completion_ready (Option.get !comp)));
        Alcotest.(check int) "drained by the epilog" 0 (Lb.ring_pending lb);
        Alcotest.(check bool) "completed by the epilog" true
          (Lb.completion_ready (Option.get !comp));
        match Lb.await lb (Option.get !comp) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("getuid errno: " ^ K.errno_name e));
    Alcotest.test_case "parked fibers share one batch and one VM EXIT"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = Oracle.boot Lb.Vtx in
        let lb = Option.get (Runtime.lb rt) in
        let vm0 = Lb.vmexit_count lb in
        let slots = Array.make 5 "unscheduled" in
        Runtime.run_main rt (fun () ->
            for i = 0 to 4 do
              Runtime.go rt (fun () ->
                  slots.(i) <-
                    (match Runtime.syscall_batched rt K.Getpid with
                    | Ok v -> "ok:" ^ string_of_int v
                    | Error e -> "errno:" ^ K.errno_name e))
            done);
        (* All five fibers parked on their completions; the scheduler's
           empty-runq drain served them in a single batch — on LB_VTX,
           a single hypercall. *)
        Alcotest.(check int) "one batch" 1 (Lb.ring_batches_count lb);
        Alcotest.(check int) "five entries" 5 (Lb.ring_drained_count lb);
        Alcotest.(check int) "one VM EXIT for the batch" (vm0 + 1)
          (Lb.vmexit_count lb);
        Array.iter
          (fun s ->
            Alcotest.(check bool) ("fiber result " ^ s) true
              (String.length s > 3 && String.sub s 0 3 = "ok:"))
          slots);
  ]

(* ------------------------------------------------------------------ *)
(* Denied entries *)

let denied_tests =
  [
    Alcotest.test_case "a denied entry completes as the direct-path fault"
      `Quick (fun () ->
        let run flag backend =
          Sysring.with_flag flag @@ fun () ->
          let rt = Oracle.boot backend in
          let lb = Option.get (Runtime.lb rt) in
          let syscall =
            if flag then Runtime.syscall_batched else Runtime.syscall
          in
          let r =
            try
              Runtime.with_enclosure rt "enc" (fun () ->
                  match syscall rt K.Getuid with
                  | Ok v -> "ok:" ^ string_of_int v
                  | Error e -> "errno:" ^ K.errno_name e)
            with
            | Lb.Fault { reason; _ } -> "fault:" ^ reason
            | Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure
          in
          (r, Lb.fault_count lb, Lb.fault_log lb, Lb.quarantined lb "enc")
        in
        List.iter
          (fun backend ->
            let ring = run true backend and direct = run false backend in
            let r, faults, log, quar = ring in
            let r', faults', log', quar' = direct in
            Alcotest.(check string)
              (Lb.backend_name backend ^ ": result")
              r' r;
            Alcotest.(check int) "fault count" faults' faults;
            Alcotest.(check (list string)) "fault log" log' log;
            Alcotest.(check bool) "quarantine" quar' quar)
          Fixtures.all_backends);
    Alcotest.test_case "awaiting a denied completion re-raises its fault"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = Oracle.boot Lb.Vtx in
        let lb = Option.get (Runtime.lb rt) in
        let raised =
          try
            Runtime.with_enclosure rt "enc" (fun () ->
                let c = Lb.submit lb K.Getuid in
                Lb.drain lb;
                Alcotest.(check bool) "completed after drain" true
                  (Lb.completion_ready c);
                Alcotest.(check int) "fault recorded at drain" 1
                  (Lb.fault_count lb);
                match Lb.await lb c with
                | Ok _ | Error _ -> "no fault"
                | exception Lb.Fault { reason; _ } -> reason)
          with Lb.Fault { reason; _ } -> reason
        in
        Alcotest.(check string) "the drain's verdict"
          "system call getuid denied by enclosure filter" raised;
        (* Denied guest-side: the verdict never left the VM. *)
        Alcotest.(check int) "counted as guest-denied" 1
          (Lb.guest_denied_count lb));
    Alcotest.test_case "the ring is untouched with the flag down" `Quick
      (fun () ->
        Sysring.with_flag false @@ fun () ->
        let rt = Oracle.boot Lb.Mpk in
        let lb = Option.get (Runtime.lb rt) in
        Runtime.with_enclosure rt "io" (fun () ->
            (match Runtime.syscall_batched rt K.Getuid with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("getuid errno: " ^ K.errno_name e));
            Runtime.syscall_nowait rt K.Getpid);
        Alcotest.(check int) "no submissions" 0 (Lb.ring_submitted_count lb);
        Alcotest.(check int) "no batches" 0 (Lb.ring_batches_count lb));
  ]

let () =
  Alcotest.run "sysring"
    [
      ("differential", differential_tests);
      ("drain-points", drain_tests);
      ("denied-entries", denied_tests);
    ]
