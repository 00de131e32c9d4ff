(* Tests for the Go-like frontend: allocator, scheduler, channels, and
   the runtime itself. *)

module Runtime = Encl_golike.Runtime
module Galloc = Encl_golike.Galloc
module Sched = Encl_golike.Sched
module Channel = Encl_golike.Channel
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Attrib = Encl_obs.Attrib
module Metrics = Encl_obs.Metrics
module Witness = Encl_obs.Witness

let simple_packages () =
  [
    Runtime.package "main" ~imports:[ "lib" ]
      ~functions:[ ("main", 64); ("body", 32) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "enc";
            enc_policy = "; sys=none";
            enc_closure = "body";
            enc_deps = [ "lib" ];
          };
        ]
      ();
    Runtime.package "lib"
      ~functions:[ ("work", 64) ]
      ~constants:[ ("greeting", 16, Some (Bytes.of_string "hi")) ]
      ();
  ]

let boot ?(config = Runtime.baseline) () =
  (* Pinned to one core regardless of ENCL_CORES: the sched tests
     assert exact single-queue interleavings and switch counts;
     test_smp owns the multi-core differential. *)
  let config = { config with Runtime.cores = 1 } in
  match Runtime.boot config ~packages:(simple_packages ()) ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Allocator *)

let galloc_tests =
  [
    Alcotest.test_case "small allocations share spans" `Quick (fun () ->
        let rt = boot () in
        let g = Runtime.galloc rt in
        let a = Galloc.alloc g ~pkg:"lib" 64 in
        let b = Galloc.alloc g ~pkg:"lib" 64 in
        Alcotest.(check int) "bump" (a + 64) b;
        Alcotest.(check int) "one span" 1 (Galloc.spans_of g ~pkg:"lib"));
    Alcotest.test_case "allocations are 8-aligned" `Quick (fun () ->
        let rt = boot () in
        let g = Runtime.galloc rt in
        let a = Galloc.alloc g ~pkg:"lib" 3 in
        let b = Galloc.alloc g ~pkg:"lib" 3 in
        Alcotest.(check int) "aligned gap" 8 (b - a));
    Alcotest.test_case "distinct packages get distinct spans" `Quick (fun () ->
        let rt = boot () in
        let g = Runtime.galloc rt in
        let a = Galloc.alloc g ~pkg:"lib" 64 in
        let b = Galloc.alloc g ~pkg:"main" 64 in
        Alcotest.(check bool) "different spans" true
          (a / Galloc.span_bytes <> b / Galloc.span_bytes));
    Alcotest.test_case "large allocation is contiguous spans" `Quick (fun () ->
        let rt = boot () in
        let g = Runtime.galloc rt in
        let size = (3 * Galloc.span_bytes) + 100 in
        let addr = Galloc.alloc g ~pkg:"lib" size in
        Alcotest.(check int) "4 spans" 4 (Galloc.spans_of g ~pkg:"lib");
        (* The whole range is usable. *)
        let m = Runtime.machine rt in
        Cpu.write8 m.Machine.cpu (addr + size - 1) 9;
        Alcotest.(check int) "tail usable" 9 (Cpu.read8 m.Machine.cpu (addr + size - 1)));
    Alcotest.test_case "release_arena enables cross-package reuse" `Quick (fun () ->
        let rt = boot ~config:(Runtime.with_backend Lb.Mpk) () in
        let g = Runtime.galloc rt in
        let lb = Option.get (Runtime.lb rt) in
        let a = Galloc.alloc g ~pkg:"lib" 64 in
        let span_a = Encl_util.Bitops.align_down a Galloc.span_bytes in
        Alcotest.(check (option string)) "owned by lib" (Some "lib")
          (Lb.owner_of lb ~addr:span_a);
        Galloc.release_arena g ~pkg:"lib";
        let b = Galloc.alloc g ~pkg:"main" 64 in
        let span_b = Encl_util.Bitops.align_down b Galloc.span_bytes in
        Alcotest.(check int) "span reused" span_a span_b;
        Alcotest.(check (option string)) "now owned by main" (Some "main")
          (Lb.owner_of lb ~addr:span_b));
    Alcotest.test_case "baseline performs no transfers" `Quick (fun () ->
        let rt = boot () in
        let g = Runtime.galloc rt in
        ignore (Galloc.alloc g ~pkg:"lib" 4096);
        Alcotest.(check int) "none" 0 (Galloc.transfer_count g));
    Alcotest.test_case "with LitterBox every span is transferred" `Quick (fun () ->
        let rt = boot ~config:(Runtime.with_backend Lb.Vtx) () in
        let g = Runtime.galloc rt in
        ignore (Galloc.alloc g ~pkg:"lib" (2 * Galloc.span_bytes));
        Alcotest.(check int) "two transfers" 2 (Galloc.transfer_count g));
    Alcotest.test_case "non-positive size rejected" `Quick (fun () ->
        let rt = boot () in
        match Galloc.alloc (Runtime.galloc rt) ~pkg:"lib" 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "zero-size alloc accepted");
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler and channels *)

let sched_tests =
  [
    Alcotest.test_case "goroutines run to completion" `Quick (fun () ->
        let rt = boot () in
        let log = ref [] in
        Runtime.run_main rt (fun () ->
            Runtime.go rt (fun () -> log := "b" :: !log);
            log := "a" :: !log);
        Alcotest.(check (list string)) "both ran" [ "b"; "a" ] !log);
    Alcotest.test_case "yield interleaves" `Quick (fun () ->
        let rt = boot () in
        let log = ref [] in
        Runtime.run_main rt (fun () ->
            Runtime.go rt (fun () ->
                log := 1 :: !log;
                Runtime.yield rt;
                log := 3 :: !log);
            Runtime.go rt (fun () ->
                log := 2 :: !log;
                Runtime.yield rt;
                log := 4 :: !log));
        Alcotest.(check (list int)) "interleaved" [ 4; 3; 2; 1 ] !log);
    Alcotest.test_case "wait_until blocks until kicked" `Quick (fun () ->
        let rt = boot () in
        let flag = ref false in
        let woke = ref false in
        Runtime.run_main rt (fun () ->
            Runtime.go rt (fun () ->
                Sched.wait_until (Runtime.sched rt) (fun () -> !flag);
                woke := true));
        Alcotest.(check bool) "still blocked" false !woke;
        Alcotest.(check int) "one blocked fiber" 1 (Sched.blocked_count (Runtime.sched rt));
        flag := true;
        Runtime.kick rt;
        Alcotest.(check bool) "woke" true !woke);
    Alcotest.test_case "channel send/recv" `Quick (fun () ->
        let rt = boot () in
        let got = ref [] in
        Runtime.run_main rt (fun () ->
            let c = Channel.create (Runtime.sched rt) ~cap:2 in
            Runtime.go rt (fun () ->
                for i = 1 to 5 do
                  Channel.send c i
                done);
            Runtime.go rt (fun () ->
                for _ = 1 to 5 do
                  got := Channel.recv c :: !got
                done));
        Alcotest.(check (list int)) "all values in order" [ 5; 4; 3; 2; 1 ] !got);
    Alcotest.test_case "goroutines inherit the enclosure environment" `Quick
      (fun () ->
        let rt = boot ~config:(Runtime.with_backend Lb.Mpk) () in
        let lb = Option.get (Runtime.lb rt) in
        let inherited = ref None in
        Runtime.run_main rt (fun () ->
            Runtime.with_enclosure rt "enc" (fun () ->
                Runtime.go rt (fun () -> inherited := Lb.in_enclosure lb)));
        Alcotest.(check (option string)) "spawned inside enc" (Some "enc") !inherited);
    Alcotest.test_case "scheduler restores environments across fibers" `Quick
      (fun () ->
        (* Slow path: with affinity scheduling on, the scheduler groups
           same-environment fibers and the Execute switches this test
           counts are (correctly) elided — test_fastpath covers that. *)
        Fastpath.with_flag false @@ fun () ->
        let rt = boot ~config:(Runtime.with_backend Lb.Mpk) () in
        let lb = Option.get (Runtime.lb rt) in
        let seen = ref [] in
        Runtime.run_main rt (fun () ->
            Runtime.go rt (fun () ->
                Runtime.with_enclosure rt "enc" (fun () ->
                    Runtime.yield rt;
                    seen := ("enc", Lb.in_enclosure lb) :: !seen));
            Runtime.go rt (fun () ->
                Runtime.yield rt;
                seen := ("trusted", Lb.in_enclosure lb) :: !seen));
        List.iter
          (fun (who, env) ->
            match who with
            | "enc" -> Alcotest.(check (option string)) "enc fiber" (Some "enc") env
            | _ -> Alcotest.(check (option string)) "trusted fiber" None env)
          !seen;
        Alcotest.(check bool) "execute switches happened" true
          (Sched.switch_count (Runtime.sched rt) > 0));
  ]

let sync_tests =
  [
    Alcotest.test_case "select takes from the ready channel" `Quick (fun () ->
        let rt = boot () in
        let result = ref "" in
        Runtime.run_main rt (fun () ->
            let s = Runtime.sched rt in
            let a = Channel.create s ~cap:1 and b = Channel.create s ~cap:1 in
            Channel.send b "from-b";
            result :=
              Channel.select s
                [ Channel.case a (fun v -> v); Channel.case b (fun v -> v) ]);
        Alcotest.(check string) "b won" "from-b" !result);
    Alcotest.test_case "select with default never blocks" `Quick (fun () ->
        let rt = boot () in
        let result = ref "" in
        Runtime.run_main rt (fun () ->
            let s = Runtime.sched rt in
            let a = Channel.create s ~cap:1 in
            result :=
              Channel.select s
                ~default:(fun () -> "nothing")
                [ Channel.case a (fun v -> v) ]);
        Alcotest.(check string) "default" "nothing" !result);
    Alcotest.test_case "select blocks until an arm is ready" `Quick (fun () ->
        let rt = boot () in
        let result = ref "" in
        Runtime.run_main rt (fun () ->
            let s = Runtime.sched rt in
            let a = Channel.create s ~cap:1 in
            Runtime.go rt (fun () ->
                result := Channel.select s [ Channel.case a (fun v -> v) ]);
            Runtime.go rt (fun () -> Channel.send a "late"));
        Alcotest.(check string) "late value" "late" !result);
    Alcotest.test_case "mutex excludes interleaved critical sections" `Quick
      (fun () ->
        let rt = boot () in
        let trace = ref [] in
        Runtime.run_main rt (fun () ->
            let s = Runtime.sched rt in
            let mu = Encl_golike.Sync.Mutex.create s in
            let worker name () =
              Encl_golike.Sync.Mutex.with_lock mu (fun () ->
                  trace := (name ^ ":in") :: !trace;
                  Runtime.yield rt;
                  trace := (name ^ ":out") :: !trace)
            in
            Runtime.go rt (worker "a");
            Runtime.go rt (worker "b"));
        (* Critical sections never interleave: every :in is immediately
           followed (in reverse trace order) by the same fiber's :out. *)
        let rec check = function
          | [] -> ()
          | [ x ] -> Alcotest.failf "dangling %s" x
          | enter :: leave :: rest ->
              let name_of s = List.hd (String.split_on_char ':' s) in
              Alcotest.(check string) "no interleave" (name_of enter) (name_of leave);
              check rest
        in
        check (List.rev !trace));
    Alcotest.test_case "unlocking a free mutex is an error" `Quick (fun () ->
        let rt = boot () in
        let mu = Encl_golike.Sync.Mutex.create (Runtime.sched rt) in
        match Encl_golike.Sync.Mutex.unlock mu with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "unlock accepted");
    Alcotest.test_case "waitgroup waits for all workers" `Quick (fun () ->
        let rt = boot () in
        let finished = ref 0 in
        let after_wait = ref (-1) in
        Runtime.run_main rt (fun () ->
            let s = Runtime.sched rt in
            let wg = Encl_golike.Sync.Waitgroup.create s in
            Encl_golike.Sync.Waitgroup.add wg 3;
            for _ = 1 to 3 do
              Runtime.go rt (fun () ->
                  Runtime.yield rt;
                  incr finished;
                  Encl_golike.Sync.Waitgroup.finish wg)
            done;
            Encl_golike.Sync.Waitgroup.wait wg;
            after_wait := !finished);
        Alcotest.(check int) "saw all three" 3 !after_wait);
    Alcotest.test_case "once runs exactly once" `Quick (fun () ->
        let once = Encl_golike.Sync.Once.create () in
        let n = ref 0 in
        Encl_golike.Sync.Once.run once (fun () -> incr n);
        Encl_golike.Sync.Once.run once (fun () -> incr n);
        Alcotest.(check int) "once" 1 !n);
  ]

(* Property tests over guest-memory buffers. *)
let gbuf_props =
  let with_buf f =
    let rt = boot () in
    let m = Runtime.machine rt in
    let buf = Runtime.alloc_in rt ~pkg:"lib" 4096 in
    f m buf
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"write_bytes/read_bytes roundtrip" ~count:100
         QCheck.(pair (int_range 0 1000) (string_of_size (QCheck.Gen.int_range 0 512)))
         (fun (pos, s) ->
           with_buf (fun m buf ->
               let sub = Gbuf.sub buf ~pos ~len:(String.length s) in
               Gbuf.write_bytes m sub (Bytes.of_string s);
               Gbuf.read_string m sub = s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"blit copies exactly min length" ~count:100
         QCheck.(pair (int_range 1 256) (int_range 1 256))
         (fun (a, b) ->
           with_buf (fun m buf ->
               let src = Gbuf.sub buf ~pos:0 ~len:a in
               let dst = Gbuf.sub buf ~pos:1024 ~len:b in
               Gbuf.fill m src 0xAB;
               Gbuf.fill m dst 0x00;
               Gbuf.blit m ~src ~dst;
               let n = min a b in
               let ok = ref true in
               for i = 0 to b - 1 do
                 let expected = if i < n then 0xAB else 0x00 in
                 if Gbuf.get m dst i <> expected then ok := false
               done;
               !ok)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"get64/set64 roundtrip" ~count:200
         QCheck.(pair (int_range 0 500) (map Int64.of_int int))
         (fun (off, v) ->
           with_buf (fun m buf ->
               Gbuf.set64 m buf (off * 8) v;
               Gbuf.get64 m buf (off * 8) = v)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"out-of-bounds sub is rejected" ~count:100
         QCheck.(pair (int_range 3500 5000) (int_range 600 2000))
         (fun (pos, len) ->
           QCheck.assume (pos + len > 4096);
           with_buf (fun _ buf ->
               match Gbuf.sub buf ~pos ~len with
               | exception Invalid_argument _ -> true
               | _ -> false)));
  ]

(* ------------------------------------------------------------------ *)
(* Runtime *)

let runtime_tests =
  [
    Alcotest.test_case "boot rejects bad policies at compile time" `Quick (fun () ->
        let pkgs =
          [
            Runtime.package "main"
              ~functions:[ ("main", 32); ("b", 16) ]
              ~enclosures:
                [
                  {
                    Encl_elf.Objfile.enc_name = "e";
                    enc_policy = "; sys=warp-drive";
                    enc_closure = "b";
                    enc_deps = [];
                  };
                ]
              ();
          ]
        in
        Alcotest.(check bool) "error" true
          (Result.is_error (Runtime.boot Runtime.baseline ~packages:pkgs ~entry:"main")));
    Alcotest.test_case "in_function fetch-checks the package" `Quick (fun () ->
        let rt = boot ~config:(Runtime.with_backend Lb.Vtx) () in
        (* Inside "enc" (deps [lib]), lib functions run, main's do not. *)
        Runtime.with_enclosure rt "enc" (fun () ->
            Runtime.in_function rt ~pkg:"lib" ~fn:"work" (fun () -> ());
            match Runtime.in_function rt ~pkg:"main" ~fn:"main" (fun () -> ()) with
            | exception Cpu.Fault _ -> ()
            | () -> Alcotest.fail "foreign function callable"));
    Alcotest.test_case "alloc is tagged with the current package" `Quick (fun () ->
        let rt = boot ~config:(Runtime.with_backend Lb.Mpk) () in
        let lb = Option.get (Runtime.lb rt) in
        Runtime.in_function rt ~pkg:"lib" ~fn:"work" (fun () ->
            let buf = Runtime.alloc rt 64 in
            Alcotest.(check (option string)) "lib arena" (Some "lib")
              (Lb.owner_of lb ~addr:buf.Gbuf.addr)));
    Alcotest.test_case "globals are addressable and initialised" `Quick (fun () ->
        let rt = boot () in
        let g = Runtime.global rt ~pkg:"lib" "greeting" in
        Alcotest.(check string) "hi"
          "hi"
          (String.sub (Gbuf.read_string (Runtime.machine rt) g) 0 2));
    Alcotest.test_case "gc runs in the trusted environment" `Quick (fun () ->
        let rt = boot ~config:(Runtime.with_backend Lb.Mpk) () in
        ignore (Runtime.alloc_in rt ~pkg:"lib" 4096);
        let lb = Option.get (Runtime.lb rt) in
        let before = Lb.switch_count lb in
        Runtime.with_enclosure rt "enc" (fun () -> Runtime.gc rt);
        (* with_trusted performs two extra switches around the collection *)
        Alcotest.(check bool) "switched" true (Lb.switch_count lb >= before + 2);
        Alcotest.(check bool) "gc time accounted" true
          (Clock.spent (Runtime.clock rt) Clock.Gc > 0));
    Alcotest.test_case "package init functions run deps-first" `Quick (fun () ->
        let order = ref [] in
        let pkgs =
          [
            Runtime.package "main" ~imports:[ "lib" ]
              ~functions:[ ("main", 32) ]
              ~init:(fun _ -> order := "main" :: !order)
              ();
            Runtime.package "lib"
              ~functions:[ ("work", 32) ]
              ~init:(fun _ -> order := "lib" :: !order)
              ();
          ]
        in
        (match Runtime.boot Runtime.baseline ~packages:pkgs ~entry:"main" with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check (list string)) "deps first" [ "main"; "lib" ] !order);
    Alcotest.test_case "syscall_exn fails loudly" `Quick (fun () ->
        let rt = boot () in
        match Runtime.syscall_exn rt (K.Close 99) with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
  ]

(* The run audit. A short clean run of the oracle's program passes it;
   each case then perturbs one quantity one clause compares and the
   audit must name that clause. *)

(* Direct and batched calls, allowed and denied, and a descriptor
   received and consumed on the rx ring; the connection stays open. *)
let clean_run ?(witness = true) () =
  Knob.with_value Knob.sysring true @@ fun () ->
  Obs.with_default ~witness true @@ fun () ->
  let ep = Oracle.setup Lb.Mpk in
  List.iter
    (fun (op : Oracle.op) -> ignore (Oracle.guard (fun () -> op.Oracle.body ep)))
    [
      Oracle.call ~batched:false "io" K.Getuid;
      Oracle.call ~batched:true "io" K.Getuid;
      Oracle.call ~batched:false "enc" K.Getuid;
      Oracle.receive "send_recv" ~consume:true 16;
    ];
  ep

let audit_names needle (ep : Oracle.endpoint) =
  match Runtime.audit ep.Oracle.rt with
  | [] -> Alcotest.failf "the audit passed; expected it to name %s" needle
  | problems ->
      Alcotest.(check bool)
        (Printf.sprintf "[%s] names %s" (String.concat "; " problems) needle)
        true
        (List.exists (fun p -> Fixtures.contains p needle) problems)

let registry ep = Obs.metrics (Runtime.machine ep.Oracle.rt).Machine.obs

let declared name =
  List.find (fun c -> Metrics.counter_name c = name) (Metrics.declared ())

let audit_case name perturb needles =
  Alcotest.test_case name `Quick (fun () ->
      let ep = clean_run () in
      perturb ep;
      List.iter (fun needle -> audit_names needle ep) needles)

let audit_tests =
  [
    Alcotest.test_case "a clean run audits to nothing" `Quick (fun () ->
        let ep = clean_run () in
        Alcotest.(check bool) "a denial" true
          (Lb.fault_count (Option.get (Runtime.lb ep.Oracle.rt)) > 0);
        Alcotest.(check (list string)) "audit" [] (Runtime.audit ep.Oracle.rt));
    audit_case "audit: an undrained ring entry"
      (fun ep ->
        Knob.with_value Knob.sysring true (fun () ->
            Runtime.syscall_nowait ep.Oracle.rt K.Getpid))
      [ "1 syscall-ring entries never drained" ];
    audit_case "audit: an rx descriptor held"
      (fun ep -> ignore ((Oracle.receive "send_hold" ~consume:false 8).Oracle.body ep))
      [ "rx ring unbalanced" ];
    audit_case "audit: a copy off the registry"
      (fun ep ->
        let m = Runtime.machine ep.Oracle.rt in
        m.Machine.bytes_copied <- m.Machine.bytes_copied + 1)
      [ "bytes_copied.app mismatch" ];
    Alcotest.test_case "audit: a verdict with no kernel call" `Quick (fun () ->
        (* Witness off: the witness clause would name the denial too. *)
        let ep = clean_run ~witness:false () in
        Metrics.incr (registry ep) K.denied_counter;
        audit_names "syscall verdicts do not reconcile" ep);
    audit_case "audit: a steal off the per-core tallies"
      (fun ep -> Metrics.incr (registry ep) (declared "sched.steal"))
      [ "per-core steal tallies"; "a 1-core machine stole" ];
    audit_case "audit: a dropped span"
      (fun ep ->
        let spans = Obs.spans (Runtime.machine ep.Oracle.rt).Machine.obs in
        for _ = 0 to Span.capacity spans do
          Span.mark spans ~lane:"trusted" ~name:"filler" ~category:Span.User
        done)
      [ "span ring overflowed" ];
    audit_case "audit: a ledger that does not conserve"
      (fun ep ->
        let a = Obs.attribution (Runtime.machine ep.Oracle.rt).Machine.obs in
        Attrib.charge a ~scope:"trusted" ~category:"user" ~stack:"trusted;user" 7)
      [ "attribution not conserved" ];
    audit_case "audit: a witnessed call never made"
      (fun ep ->
        Witness.syscall
          (Obs.witness (Runtime.machine ep.Oracle.rt).Machine.obs)
          ~scope:"io" ~category:"proc" ~site:"io;user" ~allowed:false)
      [ "witness syscall.denied" ];
  ]

(* Gbuf.blit against the sequence it replaced: read the source into a
   fresh buffer, note the copy, write the buffer out. Both run on their
   own fresh machine: four read-write pages, then one read-only page,
   then nothing mapped. Everything observable must match, also after a
   copy that succeeded is followed by writes into both of its ranges: a
   copy that shares a page's storage must not let either write show in
   the other range. *)
let reference_blit m ~(src : Gbuf.t) ~(dst : Gbuf.t) =
  let len = min src.Gbuf.len dst.Gbuf.len in
  let data = Cpu.read_bytes m.Machine.cpu ~addr:src.Gbuf.addr ~len in
  Machine.note_copied m len;
  Cpu.write_bytes m.Machine.cpu ~addr:dst.Gbuf.addr data

let copy_region = 5 * Phys.page_size

let run_blit blit (src, dst, len) =
  let m = Machine.create () in
  let mm = m.Machine.mm in
  let base =
    Encl_kernel.Mm.map mm ~len:copy_region ~perms:{ Pte.r = true; w = true; x = false }
  in
  Cpu.write_bytes m.Machine.cpu ~addr:base
    (Bytes.init copy_region (fun i -> Char.chr (((i * 7) + (i / Phys.page_size)) land 0xff)));
  Encl_kernel.Mm.protect mm ~addr:(base + (4 * Phys.page_size)) ~len:Phys.page_size
    { Pte.r = true; w = false; x = false };
  let tlb = Cpu.tlb m.Machine.cpu in
  let hits = Tlb.hits tlb and misses = Tlb.misses tlb in
  let accesses = ref [] in
  Cpu.set_access_hook m.Machine.cpu
    (Some (fun kind ~vaddr -> accesses := (kind, vaddr - base) :: !accesses));
  let fault =
    match
      blit m ~src:{ Gbuf.addr = base + src; len } ~dst:{ Gbuf.addr = base + dst; len }
    with
    | () -> None
    | exception Cpu.Fault f -> Some { f with Cpu.vaddr = f.Cpu.vaddr - base }
  in
  let hits = Tlb.hits tlb - hits and misses = Tlb.misses tlb - misses in
  Cpu.set_access_hook m.Machine.cpu None;
  if fault = None then
    List.iter
      (fun start ->
        (* Flip the first byte of every page the range touches and its
           last byte, within the four writable pages. *)
        let flip a =
          if a >= 0 && a < 4 * Phys.page_size then
            let a = base + a in
            Cpu.write8 m.Machine.cpu a (Cpu.read8 m.Machine.cpu a lxor 0xff)
        in
        if len > 0 then begin
          flip start;
          for p = (start / Phys.page_size) + 1 to (start + len - 1) / Phys.page_size do
            flip (p * Phys.page_size)
          done;
          flip (start + len - 1)
        end)
      [ dst; src ];
  let memory = Cpu.read_bytes m.Machine.cpu ~addr:base ~len:copy_region in
  (memory, m.Machine.bytes_copied, hits, misses, List.rev !accesses, fault)

let blit_matches_reference case = run_blit Gbuf.blit case = run_blit reference_blit case

let gbuf_copy_tests =
  let page = Phys.page_size in
  let case name ~faults c =
    Alcotest.test_case name `Quick (fun () ->
        let (_, _, _, _, _, fault) as got = run_blit Gbuf.blit c in
        Alcotest.(check bool) "faults" faults (fault <> None);
        Alcotest.(check bool) "same as the reference" true (got = run_blit reference_blit c))
  in
  [
    case "overlap, destination above the source" ~faults:false (100, 2000, 5000);
    case "overlap, destination below the source" ~faults:false (2000, 100, 5000);
    case "source and destination equal" ~faults:false (300, 300, 3 * page);
    case "page-crossing, disjoint" ~faults:false (page - 10, (2 * page) - 5, page + 20);
    case "zero length" ~faults:false (10, 20, 0);
    case "zero length on unmapped memory" ~faults:false (6 * page, 7 * page, 0);
    case "destination not writable" ~faults:true (0, (4 * page) - 100, 200);
    case "source not mapped" ~faults:true ((5 * page) - 8, 0, 16);
    case "destination not mapped" ~faults:true (0, (5 * page) - 8, 16);
    case "whole pages, disjoint" ~faults:false (0, 2 * page, 2 * page);
    case "whole pages, destination above the source" ~faults:false (0, page, 3 * page);
    case "whole pages, destination below the source" ~faults:false (page, 0, 3 * page);
    case "whole pages and a tail" ~faults:false (2 * page, 0, page + 100);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"blit matches the reference on random ranges" ~count:300
         QCheck.(
           make
             ~print:Print.(triple int int int)
             Gen.(
               (* Page-aligned offsets and page-multiple lengths often,
                  so that whole pages on both sides (shared, not
                  copied) come up in many cases. *)
               let pages lo hi = map (fun k -> k * page) (int_range lo hi) in
               let off = frequency [ (2, int_range 0 (copy_region + 64)); (1, pages 0 5) ] in
               let near s = map (fun d -> max 0 (s + d)) (int_range (-5000) 5000) in
               let near_pages s = map (fun d -> max 0 (s + d)) (pages (-3) 3) in
               off >>= fun src ->
               frequency [ (1, off); (2, near src); (1, near_pages src) ] >>= fun dst ->
               frequency
                 [ (1, int_range 0 16); (3, int_range 0 (3 * page)); (2, pages 1 4) ]
               >|= fun len -> (src, dst, len)))
         blit_matches_reference);
  ]

let () =
  Alcotest.run "golike"
    [
      ("galloc", galloc_tests);
      ("sched", sched_tests);
      ("sync", sync_tests);
      ("gbuf", gbuf_props @ gbuf_copy_tests);
      ("runtime", runtime_tests @ audit_tests);
    ]
