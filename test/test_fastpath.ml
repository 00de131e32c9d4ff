(* Tests for the fast paths: switch elision, the seccomp verdict cache,
   transfer coalescing and enclosure-affinity scheduling.

   The fast paths may change what a run *costs*, never what it *does*:
   the enforcement oracle (oracle.ml) checks that over random op
   sequences, and the property below with only the fast path on. The
   directed tests pin what each fast path saves, on the oracle's
   program. *)

module Runtime = Encl_golike.Runtime
module Galloc = Encl_golike.Galloc
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Seccomp = Encl_kernel.Seccomp
module Sysno = Encl_kernel.Sysno
module Bpf = Encl_kernel.Bpf

(* ------------------------------------------------------------------ *)
(* The differential property *)

(* The oracle's product with only the fast path on. *)
let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (Oracle.axis ~name:"fast path preserves enforcement outcomes" ~count:320
         (QCheck.Gen.return (Oracle.knob_on Knob.fastpath)));
  ]

(* ------------------------------------------------------------------ *)
(* Switch elision *)

let elision_tests =
  [
    Alcotest.test_case "trusted excursion from trusted is elided" `Quick
      (fun () ->
        Fastpath.with_flag true @@ fun () ->
        let rt = Oracle.boot Lb.Mpk in
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
        let rt = Oracle.boot Lb.Mpk in
        let lb = Option.get (Runtime.lb rt) in
        Runtime.with_enclosure rt "enc" (fun () -> ());
        Alcotest.(check int) "no elision" 0 (Lb.switch_elided_count lb));
    Alcotest.test_case "elision is off with the flag down" `Quick (fun () ->
        Fastpath.with_flag false @@ fun () ->
        let rt = Oracle.boot Lb.Vtx in
        let lb = Option.get (Runtime.lb rt) in
        Runtime.gc rt;
        Alcotest.(check int) "none" 0 (Lb.switch_elided_count lb));
    Alcotest.test_case "elision charges less simulated time" `Quick (fun () ->
        let elapsed flag =
          Fastpath.with_flag flag @@ fun () ->
          let rt = Oracle.boot Lb.Vtx in
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
          let rt = Oracle.boot Lb.Mpk in
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
              let rt = Oracle.boot backend in
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
        let rt = Oracle.boot Lb.Mpk in
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
          let rt = Oracle.boot Lb.Mpk in
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
        let rt = Oracle.boot Lb.Mpk in
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
          let rt = Oracle.boot Lb.Mpk in
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
