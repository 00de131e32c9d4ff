(* Tests for the batched syscall ring (ENCL_SYSRING).

   The core property is differential, the same shape as test_fastpath:
   batching may change what a run *costs* (VM EXITs, traps, filter
   walks), never what it *does*. Random op sequences — batched and
   fire-and-forget syscalls from enclosures and fibers, denials,
   quarantine crossings — are executed twice, ENCL_SYSRING on and off,
   and every enforcement outcome (syscall results and errnos, fault log,
   fault and kill counts, quarantine state) must be identical. *)

module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel

let packages () =
  [
    Runtime.package "main" ~imports:[ "lib" ]
      ~functions:[ ("main", 64); ("body", 32); ("io_body", 32) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "enc";
            enc_policy = "; sys=none";
            enc_closure = "body";
            enc_deps = [ "lib" ];
          };
          {
            (* A distinct memory view from "enc" so the two enclosures
               get distinct PKRU values under LB_MPK. *)
            Encl_elf.Objfile.enc_name = "io";
            enc_policy = "img:U; sys=all";
            enc_closure = "io_body";
            enc_deps = [ "lib" ];
          };
        ]
      ();
    Runtime.package "lib" ~imports:[ "img" ] ~functions:[ ("work", 64) ] ();
    Runtime.package "img" ~functions:[ ("decode", 64) ] ();
  ]

let boot backend =
  (* Pinned to one core regardless of ENCL_CORES: the drain-point tests
     count batches and VM EXITs on a single shared ring; with more
     cores each core drains its own ring. test_smp owns the multi-core
     differential. *)
  let rcfg = { (Runtime.with_backend backend) with Runtime.cores = 1 } in
  match Runtime.boot rcfg ~packages:(packages ()) ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith ("test_sysring boot: " ^ e)

(* ------------------------------------------------------------------ *)
(* The differential property *)

type op =
  | Call_empty  (** enter/leave the sys=none enclosure *)
  | Batched_io  (** getuid through the ring from inside sys=all *)
  | Batched_denied  (** getuid through the ring from inside sys=none *)
  | Batched_trusted  (** getpid through the ring, no enclosure *)
  | Direct_io  (** classic unbatched getuid alongside the ring *)
  | Nowait_io
      (** fire-and-forget allowed calls; the epilog drain completes
          them. Only {e allowed} calls ride nowait in this test: a
          denied nowait call faults at the call site with the ring off
          but at the drain point with it on — a documented semantic
          difference, not an enforcement one. *)
  | Fiber_round of int  (** n fibers, each awaiting one batched call *)
  | Supervised_denied  (** a supervised fiber killed by a denied entry *)

let op_name = function
  | Call_empty -> "call_empty"
  | Batched_io -> "batched_io"
  | Batched_denied -> "batched_denied"
  | Batched_trusted -> "batched_trusted"
  | Direct_io -> "direct_io"
  | Nowait_io -> "nowait_io"
  | Fiber_round n -> Printf.sprintf "fiber_round:%d" n
  | Supervised_denied -> "supervised_denied"

(* Run one op, returning a stable outcome string. Fault-family
   exceptions are part of the observable behaviour, not errors: their
   descriptions must match between the batched and direct runs. *)
let run_op rt op =
  let result = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error e -> "errno:" ^ K.errno_name e
  in
  match
    match op with
    | Call_empty ->
        Runtime.with_enclosure rt "enc" (fun () -> ());
        "ok"
    | Batched_io ->
        Runtime.with_enclosure rt "io" (fun () ->
            result (Runtime.syscall_batched rt K.Getuid))
    | Batched_denied ->
        Runtime.with_enclosure rt "enc" (fun () ->
            result (Runtime.syscall_batched rt K.Getuid))
    | Batched_trusted -> result (Runtime.syscall_batched rt K.Getpid)
    | Direct_io ->
        Runtime.with_enclosure rt "io" (fun () ->
            result (Runtime.syscall rt K.Getuid))
    | Nowait_io ->
        Runtime.with_enclosure rt "io" (fun () ->
            Runtime.syscall_nowait rt K.Getpid;
            Runtime.syscall_nowait rt K.Getuid);
        "ok"
    | Fiber_round n ->
        (* Results are collected per fiber index so the outcome string
           does not depend on scheduling order, which batching is free
           to change. *)
        let slots = Array.make n "unscheduled" in
        for i = 0 to n - 1 do
          Runtime.go rt (fun () ->
              slots.(i) <-
                Runtime.with_enclosure rt "io" (fun () ->
                    result (Runtime.syscall_batched rt K.Getuid)))
        done;
        Runtime.kick rt;
        "fibers:" ^ String.concat "," (Array.to_list slots)
    | Supervised_denied -> (
        let id =
          Runtime.go_supervised rt (fun () ->
              Runtime.with_enclosure rt "enc" (fun () ->
                  ignore (Runtime.syscall_batched rt K.Getuid)))
        in
        Runtime.kick rt;
        match Runtime.fiber_result rt id with
        | Some Sched.Finished -> "fiber:finished"
        | Some (Sched.Killed reason) -> "fiber:killed:" ^ reason
        | None -> "fiber:running")
  with
  | outcome -> outcome
  | exception Lb.Fault { reason; _ } -> "fault:" ^ reason
  | exception Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure

type outcome = {
  o_results : string list;
  o_faults : int;
  o_fault_log : string list;
  o_kills : int;
  o_quarantined : bool * bool;  (** enc, io *)
}

(* Execute the op sequence on a fresh runtime. While we're at it,
   cross-check the ring's own invariants: the submit/drain/pending
   balance and — with the flag off — that nothing touched the ring at
   all. *)
let run_ops backend ops =
  let rt = boot backend in
  let lb = Option.get (Runtime.lb rt) in
  Lb.set_fault_budget lb 3;
  let results = List.map (run_op rt) ops in
  let submitted = Lb.ring_submitted_count lb in
  if submitted <> Lb.ring_drained_count lb + Lb.ring_pending lb then
    QCheck.Test.fail_reportf "ring unbalanced: %d submitted <> %d + %d"
      submitted (Lb.ring_drained_count lb) (Lb.ring_pending lb);
  if Lb.ring_pending lb <> 0 then
    QCheck.Test.fail_reportf
      "%d entries still pending after the sequence (awaits and epilogs \
       should have drained everything)"
      (Lb.ring_pending lb);
  ( {
      o_results = results;
      o_faults = Lb.fault_count lb;
      o_fault_log = Lb.fault_log lb;
      o_kills = Sched.kill_count (Runtime.sched rt);
      o_quarantined = (Lb.quarantined lb "enc", Lb.quarantined lb "io");
    },
    submitted )

let pp_outcome o =
  Printf.sprintf "results=[%s] faults=%d log=[%s] kills=%d quar=(%b,%b)"
    (String.concat "; " o.o_results)
    o.o_faults
    (String.concat "; " o.o_fault_log)
    o.o_kills (fst o.o_quarantined) (snd o.o_quarantined)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Call_empty);
        (4, return Batched_io);
        (2, return Batched_denied);
        (2, return Batched_trusted);
        (2, return Direct_io);
        (2, return Nowait_io);
        (2, map (fun n -> Fiber_round n) (int_range 1 6));
        (1, return Supervised_denied);
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
  let batched, submitted =
    Sysring.with_flag true (fun () -> run_ops backend ops)
  in
  let direct, submitted_off =
    Sysring.with_flag false (fun () -> run_ops backend ops)
  in
  if submitted_off <> 0 then
    QCheck.Test.fail_reportf "ring off still submitted %d entries"
      submitted_off;
  ignore submitted;
  if batched <> direct then
    QCheck.Test.fail_reportf "outcomes diverged:\n  ring on:  %s\n  ring off: %s"
      (pp_outcome batched) (pp_outcome direct);
  true

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"the ring preserves enforcement outcomes"
         ~count:320 scenario_arb differential_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Drain points *)

let drain_tests =
  [
    Alcotest.test_case "a full queue flushes before accepting the entry"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = boot Lb.Mpk in
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
        let rt = boot Lb.Vtx in
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
        let rt = boot Lb.Vtx in
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
          let rt = boot backend in
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
        let rt = boot Lb.Vtx in
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
        let rt = boot Lb.Mpk in
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
