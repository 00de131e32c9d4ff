(* Tests for the fast paths: switch elision, the seccomp verdict cache,
   transfer coalescing and enclosure-affinity scheduling.

   The core property is differential: the fast paths may change what a
   run *costs*, never what it *does*. Random op sequences are executed
   twice — ENCL_FASTPATH on and off — and every enforcement outcome
   (fault log, fault and kill counts, syscall results, quarantine
   state) must be identical. *)

module Runtime = Encl_golike.Runtime
module Galloc = Encl_golike.Galloc
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Seccomp = Encl_kernel.Seccomp
module Sysno = Encl_kernel.Sysno
module Bpf = Encl_kernel.Bpf

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
  (* Pinned to one core regardless of ENCL_CORES: these tests assert
     exact single-core schedules and counter values (affinity hits,
     elision counts); test_smp owns the multi-core differential. *)
  let rcfg = { (Runtime.with_backend backend) with Runtime.cores = 1 } in
  match Runtime.boot rcfg ~packages:(packages ()) ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith ("test_fastpath boot: " ^ e)

(* ------------------------------------------------------------------ *)
(* The differential property *)

type op =
  | Call_empty  (** enter/leave the sys=none enclosure *)
  | Io_syscall  (** getuid from inside the sys=all enclosure *)
  | Denied_syscall  (** getuid from inside sys=none: a fault *)
  | Trusted_syscall  (** getpid from the trusted environment *)
  | Alloc_small of string  (** one span's worth, for [pkg] *)
  | Alloc_large  (** multi-span: exercises transfer coalescing *)
  | Gc  (** trusted excursion *)

let op_name = function
  | Call_empty -> "call_empty"
  | Io_syscall -> "io_syscall"
  | Denied_syscall -> "denied"
  | Trusted_syscall -> "trusted"
  | Alloc_small p -> "alloc_small:" ^ p
  | Alloc_large -> "alloc_large"
  | Gc -> "gc"

(* Run one op, returning a stable outcome string. Fault-family
   exceptions are part of the observable behaviour, not errors: their
   descriptions (no addresses involved for these ops) must match
   between fast and slow runs. *)
let run_op rt op =
  let result = function Ok v -> Printf.sprintf "ok:%d" v | Error e -> "errno:" ^ K.errno_name e in
  match
    match op with
    | Call_empty ->
        Runtime.with_enclosure rt "enc" (fun () -> ());
        "ok"
    | Io_syscall ->
        Runtime.with_enclosure rt "io" (fun () ->
            result (Runtime.syscall rt K.Getuid))
    | Denied_syscall ->
        Runtime.with_enclosure rt "enc" (fun () ->
            result (Runtime.syscall rt K.Getuid))
    | Trusted_syscall -> result (Runtime.syscall rt K.Getpid)
    | Alloc_small pkg ->
        ignore (Galloc.alloc (Runtime.galloc rt) ~pkg 64);
        "ok"
    | Alloc_large ->
        ignore
          (Galloc.alloc (Runtime.galloc rt) ~pkg:"lib"
             ((3 * Galloc.span_bytes) + 100));
        "ok"
    | Gc ->
        Runtime.gc rt;
        "ok"
  with
  | outcome -> outcome
  | exception Lb.Fault { reason; _ } -> "fault:" ^ reason
  | exception Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure

type outcome = {
  o_results : string list;
  o_faults : int;
  o_fault_log : string list;
  o_quarantined : bool * bool;  (** enc, io *)
}

(* Execute the op sequence on a fresh runtime. *)
let run_ops backend ops =
  let rt = boot backend in
  let lb = Option.get (Runtime.lb rt) in
  Lb.set_fault_budget lb 3;
  let results = List.map (run_op rt) ops in
  ( {
      o_results = results;
      o_faults = Lb.fault_count lb;
      o_fault_log = Lb.fault_log lb;
      o_quarantined = (Lb.quarantined lb "enc", Lb.quarantined lb "io");
    },
    Lb.switch_elided_count lb )

let pp_outcome o =
  Printf.sprintf "results=[%s] faults=%d log=[%s] quar=(%b,%b)"
    (String.concat "; " o.o_results)
    o.o_faults
    (String.concat "; " o.o_fault_log)
    (fst o.o_quarantined) (snd o.o_quarantined)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Call_empty);
        (3, return Io_syscall);
        (2, return Denied_syscall);
        (3, return Trusted_syscall);
        (2, return (Alloc_small "lib"));
        (1, return (Alloc_small "img"));
        (2, return Alloc_large);
        (1, return Gc);
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
  let fast, elided = Fastpath.with_flag true (fun () -> run_ops backend ops) in
  let slow, elided_off =
    Fastpath.with_flag false (fun () -> run_ops backend ops)
  in
  if elided_off <> 0 then
    QCheck.Test.fail_reportf "fast path off still elided %d switches"
      elided_off;
  ignore elided;
  if fast <> slow then
    QCheck.Test.fail_reportf "outcomes diverged:\n  fast: %s\n  slow: %s"
      (pp_outcome fast) (pp_outcome slow);
  true

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fast path preserves enforcement outcomes"
         ~count:320 scenario_arb differential_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Switch elision *)

let elision_tests =
  [
    Alcotest.test_case "trusted excursion from trusted is elided" `Quick
      (fun () ->
        Fastpath.with_flag true @@ fun () ->
        let rt = boot Lb.Mpk in
        let lb = Option.get (Runtime.lb rt) in
        let s0 = Lb.switch_count lb and e0 = Lb.switch_elided_count lb in
        Runtime.gc rt;
        (* Both excursion legs run with the trusted environment already
           installed: counted as switches, both elided. *)
        Alcotest.(check int) "switches" (s0 + 2) (Lb.switch_count lb);
        Alcotest.(check int) "elided" (e0 + 2) (Lb.switch_elided_count lb));
    Alcotest.test_case "cross-environment switches are never elided" `Quick
      (fun () ->
        Fastpath.with_flag true @@ fun () ->
        let rt = boot Lb.Mpk in
        let lb = Option.get (Runtime.lb rt) in
        Runtime.with_enclosure rt "enc" (fun () -> ());
        Alcotest.(check int) "no elision" 0 (Lb.switch_elided_count lb));
    Alcotest.test_case "elision is off with the flag down" `Quick (fun () ->
        Fastpath.with_flag false @@ fun () ->
        let rt = boot Lb.Vtx in
        let lb = Option.get (Runtime.lb rt) in
        Runtime.gc rt;
        Alcotest.(check int) "none" 0 (Lb.switch_elided_count lb));
    Alcotest.test_case "elision charges less simulated time" `Quick (fun () ->
        let elapsed flag =
          Fastpath.with_flag flag @@ fun () ->
          let rt = boot Lb.Vtx in
          let t0 = Clock.now (Runtime.clock rt) in
          for _ = 1 to 10 do
            Runtime.gc rt
          done;
          Clock.now (Runtime.clock rt) - t0
        in
        let fast = elapsed true and slow = elapsed false in
        Alcotest.(check bool)
          (Printf.sprintf "fast %d < slow %d" fast slow)
          true (fast < slow));
  ]

(* ------------------------------------------------------------------ *)
(* Seccomp verdict cache *)

let connect_prog =
  Seccomp.compile ~trusted_pkrus:[ 0l ]
    [
      {
        Seccomp.pkru = 0x54l;
        rules = [ Seccomp.rule ~arg0:[ 7; 9 ] Sysno.Connect ];
      };
    ]

let data ?(pkru = 0x54l) ?(arg0 = 0) nr =
  Bpf.make_data ~nr:(Sysno.number nr)
    ~args:[| arg0; 0; 0; 0; 0; 0 |]
    ~pkru ()

let cache_tests =
  [
    Alcotest.test_case "repeat verdicts hit the cache" `Quick (fun () ->
        Fastpath.with_flag true @@ fun () ->
        let s = Seccomp.create () in
        (match Seccomp.install s connect_prog with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let a1, o1 = Seccomp.check_memo s (data ~arg0:7 Sysno.Connect) in
        let a2, o2 = Seccomp.check_memo s (data ~arg0:7 Sysno.Connect) in
        Alcotest.(check bool) "same verdict" true (a1 = a2);
        Alcotest.(check bool) "first evaluates" true
          (match o1 with Seccomp.Evaluated _ -> true | _ -> false);
        Alcotest.(check bool) "second hits" true (o2 = Seccomp.Hit));
    Alcotest.test_case "the key includes arg0" `Quick (fun () ->
        (* Same PKRU, same nr, different first argument: the per-IP
           connect rules give different verdicts, so a key without arg0
           would serve the wrong one. *)
        Fastpath.with_flag true @@ fun () ->
        let s = Seccomp.create () in
        (match Seccomp.install s connect_prog with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let allow, _ = Seccomp.check_memo s (data ~arg0:7 Sysno.Connect) in
        let kill, o = Seccomp.check_memo s (data ~arg0:8 Sysno.Connect) in
        Alcotest.(check bool) "allowed ip" true (allow = Bpf.Allow);
        Alcotest.(check bool) "bad ip evaluated, not served from cache" true
          (match o with Seccomp.Evaluated _ -> true | _ -> false);
        Alcotest.(check bool) "bad ip killed" true (kill = Bpf.Kill);
        (* And both verdicts are now cached independently. *)
        let a, oa = Seccomp.check_memo s (data ~arg0:7 Sysno.Connect) in
        let k, ok = Seccomp.check_memo s (data ~arg0:8 Sysno.Connect) in
        Alcotest.(check bool) "hits" true (oa = Seccomp.Hit && ok = Seccomp.Hit);
        Alcotest.(check bool) "verdicts stable" true
          (a = Bpf.Allow && k = Bpf.Kill));
    Alcotest.test_case "install flushes the cache" `Quick (fun () ->
        Fastpath.with_flag true @@ fun () ->
        let s = Seccomp.create () in
        (match Seccomp.install s connect_prog with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        ignore (Seccomp.check_memo s (data ~arg0:7 Sysno.Connect));
        ignore (Seccomp.check_memo s (data ~arg0:7 Sysno.Connect));
        (match Seccomp.install s connect_prog with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let _, o = Seccomp.check_memo s (data ~arg0:7 Sysno.Connect) in
        Alcotest.(check bool) "re-evaluated after install" true
          (match o with Seccomp.Evaluated _ -> true | _ -> false);
        Alcotest.(check bool) "invalidations counted" true
          (Seccomp.invalidation_count s >= 2));
    Alcotest.test_case "explicit invalidate forces re-evaluation" `Quick
      (fun () ->
        Fastpath.with_flag true @@ fun () ->
        let s = Seccomp.create () in
        (match Seccomp.install s connect_prog with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        ignore (Seccomp.check_memo s (data ~arg0:9 Sysno.Connect));
        Seccomp.invalidate s;
        let _, o = Seccomp.check_memo s (data ~arg0:9 Sysno.Connect) in
        Alcotest.(check bool) "re-evaluated" true
          (match o with Seccomp.Evaluated _ -> true | _ -> false));
    Alcotest.test_case "disabled fast path never touches the cache" `Quick
      (fun () ->
        Fastpath.with_flag false @@ fun () ->
        let s = Seccomp.create () in
        (match Seccomp.install s connect_prog with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let evaluated () =
          match Seccomp.check_memo s (data ~arg0:7 Sysno.Connect) with
          | _, Seccomp.Evaluated _ -> true
          | _, Seccomp.Hit -> false
        in
        Alcotest.(check (pair bool bool)) "never served from the cache"
          (true, true)
          (evaluated (), evaluated ());
        Alcotest.(check bool) "left the cache cold" true
          (Fastpath.with_flag true evaluated));
    Alcotest.test_case "cached verdicts equal evaluated verdicts" `Quick
      (fun () ->
        (* Sweep every (nr in a small set, arg0, pkru) combination twice
           with the cache on and compare against a cold evaluation. *)
        Fastpath.with_flag true @@ fun () ->
        let s = Seccomp.create () in
        (match Seccomp.install s connect_prog with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        List.iter
          (fun nr ->
            List.iter
              (fun arg0 ->
                List.iter
                  (fun pkru ->
                    let d = data ~pkru ~arg0 nr in
                    let cold = Seccomp.check s d in
                    let _, _ = Seccomp.check_memo s d in
                    let warm, o = Seccomp.check_memo s d in
                    Alcotest.(check bool) "verdict" true (warm = cold);
                    Alcotest.(check bool) "served from cache" true
                      (o = Seccomp.Hit))
                  [ 0l; 0x54l; 0xffl ])
              [ 0; 7; 8; 9 ])
          [ Sysno.Connect; Sysno.Getuid; Sysno.Sendto ]);
  ]

(* ------------------------------------------------------------------ *)
(* Transfer coalescing *)

let coalescing_tests =
  [
    Alcotest.test_case "transfer_range matches the transfer loop" `Quick
      (fun () ->
        let spans = 5 in
        let run flag =
          Fastpath.with_flag flag @@ fun () ->
          let rt = boot Lb.Mpk in
          let lb = Option.get (Runtime.lb rt) in
          let addr =
            Runtime.syscall_exn rt (K.Mmap { len = spans * Galloc.span_bytes })
          in
          Lb.transfer_range lb ~addr ~len:(spans * Galloc.span_bytes)
            ~chunk:Galloc.span_bytes ~to_pkg:"img" ~site:"runtime.mallocgc";
          let owners =
            List.init spans (fun i ->
                Lb.owner_of lb ~addr:(addr + (i * Galloc.span_bytes)))
          in
          (owners, Lb.transfer_count lb, Lb.transfer_coalesced_count lb)
        in
        let owners_fast, count_fast, coalesced = run true in
        let owners_slow, count_slow, coalesced_off = run false in
        Alcotest.(check (list (option string))) "same owners" owners_slow
          owners_fast;
        List.iter
          (fun o -> Alcotest.(check (option string)) "img owns" (Some "img") o)
          owners_fast;
        Alcotest.(check int) "same transfer count" count_slow count_fast;
        Alcotest.(check int) "chunks counted as coalesced" spans coalesced;
        Alcotest.(check int) "slow path coalesces nothing" 0 coalesced_off);
    Alcotest.test_case "coalescing is cheaper on every backend" `Quick
      (fun () ->
        List.iter
          (fun backend ->
            let cost flag =
              Fastpath.with_flag flag @@ fun () ->
              let rt = boot backend in
              let lb = Option.get (Runtime.lb rt) in
              let len = 8 * Galloc.span_bytes in
              let addr = Runtime.syscall_exn rt (K.Mmap { len }) in
              let t0 = Clock.now (Runtime.clock rt) in
              Lb.transfer_range lb ~addr ~len ~chunk:Galloc.span_bytes
                ~to_pkg:"img" ~site:"runtime.mallocgc";
              Clock.now (Runtime.clock rt) - t0
            in
            let fast = cost true and slow = cost false in
            (* SFI transfers touch only per-page bounds metadata — there
               is no fixed per-transfer hardware cost for coalescing to
               amortize, so batching is cost-neutral there rather than a
               strict win. *)
            if backend = Lb.Sfi then
              Alcotest.(check bool)
                (Printf.sprintf "%s: %d <= %d" (Lb.backend_name backend) fast
                   slow)
                true (fast <= slow)
            else
              Alcotest.(check bool)
                (Printf.sprintf "%s: %d < %d" (Lb.backend_name backend) fast
                   slow)
                true (fast < slow))
          Fixtures.all_backends);
    Alcotest.test_case "a re-transferred chunk keeps exact-address identity"
      `Quick (fun () ->
        (* After a batched range transfer, re-transferring one interior
           chunk individually must re-home exactly that chunk — the
           registry granularity is per chunk, as in the slow path. *)
        Fastpath.with_flag true @@ fun () ->
        let rt = boot Lb.Mpk in
        let lb = Option.get (Runtime.lb rt) in
        let len = 4 * Galloc.span_bytes in
        let addr = Runtime.syscall_exn rt (K.Mmap { len }) in
        Lb.transfer_range lb ~addr ~len ~chunk:Galloc.span_bytes ~to_pkg:"img"
          ~site:"runtime.mallocgc";
        let mid = addr + (2 * Galloc.span_bytes) in
        Lb.transfer lb ~addr:mid ~len:Galloc.span_bytes ~to_pkg:"lib"
          ~site:"runtime.mallocgc";
        Alcotest.(check (option string)) "interior chunk moved" (Some "lib")
          (Lb.owner_of lb ~addr:mid);
        Alcotest.(check (option string)) "neighbour untouched" (Some "img")
          (Lb.owner_of lb ~addr:(addr + Galloc.span_bytes)));
  ]

(* ------------------------------------------------------------------ *)
(* Enclosure-affinity scheduling *)

let affinity_tests =
  [
    Alcotest.test_case "affinity groups same-environment fibers" `Quick
      (fun () ->
        let run flag =
          Fastpath.with_flag flag @@ fun () ->
          let rt = boot Lb.Mpk in
          let order = ref [] in
          Runtime.run_main rt (fun () ->
              Runtime.go rt (fun () ->
                  Runtime.with_enclosure rt "enc" (fun () ->
                      Runtime.yield rt;
                      order := "enc" :: !order));
              Runtime.go rt (fun () ->
                  Runtime.yield rt;
                  order := "trusted1" :: !order);
              Runtime.go rt (fun () ->
                  Runtime.yield rt;
                  order := "trusted2" :: !order));
          let sched = Runtime.sched rt in
          ( List.rev !order,
            Sched.switch_count sched,
            Sched.affinity_hit_count sched )
        in
        let order_fast, switches_fast, hits = run true in
        let order_slow, switches_slow, hits_off = run false in
        (* All three fibers complete under both policies... *)
        Alcotest.(check int) "all ran (fast)" 3 (List.length order_fast);
        Alcotest.(check int) "all ran (slow)" 3 (List.length order_slow);
        (* ...but affinity saves Execute switches. *)
        Alcotest.(check int) "no hits with the flag down" 0 hits_off;
        Alcotest.(check bool)
          (Printf.sprintf "affinity hits (%d) reduce switches (%d < %d)" hits
             switches_fast switches_slow)
          true (hits > 0 && switches_fast < switches_slow));
    Alcotest.test_case "starvation budget keeps the head runnable" `Quick
      (fun () ->
        (* One enclosure fiber stuck behind a crowd of trusted fibers
           that keep re-queueing: affinity prefers the trusted ones, but
           the budget must still let the enclosure fiber finish. *)
        Fastpath.with_flag true @@ fun () ->
        let rt = boot Lb.Mpk in
        let enc_done = ref false in
        Runtime.run_main rt (fun () ->
            Runtime.go rt (fun () ->
                Runtime.with_enclosure rt "enc" (fun () ->
                    Runtime.yield rt;
                    enc_done := true));
            for _ = 1 to 4 do
              Runtime.go rt (fun () ->
                  for _ = 1 to 50 do
                    Runtime.yield rt
                  done)
            done);
        Alcotest.(check bool) "enclosure fiber completed" true !enc_done);
    Alcotest.test_case "single-environment workloads keep FIFO order" `Quick
      (fun () ->
        let run flag =
          Fastpath.with_flag flag @@ fun () ->
          let rt = boot Lb.Mpk in
          let order = ref [] in
          Runtime.run_main rt (fun () ->
              for i = 1 to 5 do
                Runtime.go rt (fun () ->
                    Runtime.yield rt;
                    order := i :: !order)
              done);
          List.rev !order
        in
        Alcotest.(check (list int)) "same order" (run false) (run true));
  ]

let () =
  Alcotest.run "fastpath"
    [
      ("differential", differential_tests);
      ("elision", elision_tests);
      ("seccomp-cache", cache_tests);
      ("coalescing", coalescing_tests);
      ("affinity", affinity_tests);
    ]
