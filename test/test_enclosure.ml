(* Tests for the enclosure construct and nesting semantics. *)

module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module Enclosure = Encl_enclosure.Enclosure
module Objfile = Encl_elf.Objfile
module Linker = Encl_elf.Linker
module K = Encl_kernel.Kernel
module Vfs = Encl_kernel.Vfs

(* A program with nestable enclosures:
   outer: deps [libFx] (+ img transitively), sys=io,file
   inner_ok: deps [img], sys=none          (strictly more restrictive)
   inner_bad: deps [libFx] + secrets:R     (extends the view: escalation)
   inner_bad_sys: deps [img], sys=net      (new syscall rights: escalation) *)
let nesting_objfiles () =
  [
    Objfile.make ~pkg:"img" ~functions:[ Objfile.sym "decode" 64 ] ();
    Objfile.make ~pkg:"libFx" ~imports:[ "img" ] ~functions:[ Objfile.sym "fx" 64 ] ();
    Objfile.make ~pkg:"secrets" ~globals:[ Objfile.sym "key" 32 ] ();
    Objfile.make ~pkg:"main"
      ~imports:[ "libFx"; "secrets" ]
      ~functions:
        [
          Objfile.sym "main" 64;
          Objfile.sym "outer_body" 32;
          Objfile.sym "inner_ok_body" 32;
          Objfile.sym "inner_bad_body" 32;
          Objfile.sym "inner_bad_sys_body" 32;
        ]
      ~enclosures:
        [
          { Objfile.enc_name = "outer"; enc_policy = "; sys=io,file";
            enc_closure = "outer_body"; enc_deps = [ "libFx" ] };
          { Objfile.enc_name = "inner_ok"; enc_policy = "; sys=none";
            enc_closure = "inner_ok_body"; enc_deps = [ "libFx" ] };
          { Objfile.enc_name = "inner_bad"; enc_policy = "secrets:R; sys=none";
            enc_closure = "inner_bad_body"; enc_deps = [ "libFx" ] };
          { Objfile.enc_name = "inner_bad_sys"; enc_policy = "; sys=net";
            enc_closure = "inner_bad_sys_body"; enc_deps = [ "libFx" ] };
        ]
      ()
  ]

let boot backend =
  let machine = Machine.create () in
  let image =
    match Linker.link ~objfiles:(nesting_objfiles ()) ~entry:"main" with
    | Ok image -> image
    | Error e -> failwith (Linker.error_message e)
  in
  match Lb.init ~machine ~backend ~image () with
  | Ok lb -> (machine, lb)
  | Error e -> failwith e

let nesting_tests backend tag =
  let tc name f = Alcotest.test_case (tag ^ ": " ^ name) `Quick f in
  [
    tc "nesting into a more restrictive enclosure succeeds" (fun () ->
        let _, lb = boot backend in
        let inner = Enclosure.declare lb ~name:"inner_ok" (fun () -> 21 * 2) in
        let outer = Enclosure.declare lb ~name:"outer" (fun () -> Enclosure.call inner) in
        Alcotest.(check int) "result" 42 (Enclosure.call outer);
        Alcotest.(check bool) "back to trusted" true (Lb.in_enclosure lb = None));
    tc "nesting that extends the memory view faults" (fun () ->
        let _, lb = boot backend in
        let inner = Enclosure.declare lb ~name:"inner_bad" (fun () -> ()) in
        let outer = Enclosure.declare lb ~name:"outer" (fun () -> Enclosure.call inner) in
        (match Enclosure.call outer with
        | exception Lb.Fault _ -> ()
        | () -> Alcotest.fail "escalation allowed");
        Alcotest.(check bool) "environment restored" true (Lb.in_enclosure lb = None));
    tc "nesting that widens the syscall filter faults" (fun () ->
        let _, lb = boot backend in
        let inner = Enclosure.declare lb ~name:"inner_bad_sys" (fun () -> ()) in
        let outer = Enclosure.declare lb ~name:"outer" (fun () -> Enclosure.call inner) in
        match Enclosure.call outer with
        | exception Lb.Fault _ -> ()
        | () -> Alcotest.fail "filter escalation allowed");
    tc "closure is reusable across calls" (fun () ->
        let _, lb = boot backend in
        let count = ref 0 in
        let enc = Enclosure.declare lb ~name:"inner_ok" (fun () -> incr count) in
        Enclosure.call enc;
        Enclosure.call enc;
        Enclosure.call enc;
        Alcotest.(check int) "three runs" 3 !count);
    tc "exception in body restores environment" (fun () ->
        let _, lb = boot backend in
        let enc = Enclosure.declare lb ~name:"inner_ok" (fun () -> failwith "boom") in
        (match Enclosure.call enc with
        | exception Failure _ -> ()
        | () -> Alcotest.fail "expected exception");
        Alcotest.(check bool) "trusted again" true (Lb.in_enclosure lb = None));
    tc "syscall filter applies to the innermost enclosure" (fun () ->
        let _, lb = boot backend in
        (* outer permits io; inner_ok permits nothing. *)
        let inner =
          Enclosure.declare lb ~name:"inner_ok" (fun () -> Lb.syscall lb K.Getuid)
        in
        let outer = Enclosure.declare lb ~name:"outer" (fun () -> Enclosure.call inner) in
        match Enclosure.call outer with
        | exception Lb.Fault _ -> ()
        | exception K.Syscall_killed _ -> ()
        | _ -> Alcotest.fail "inner filter not applied");
  ]

let construct_tests =
  [
    Alcotest.test_case "check_policy accepts and rejects" `Quick (fun () ->
        Alcotest.(check bool) "good" true (Enclosure.check_policy "a:R; sys=net" = Ok ());
        Alcotest.(check bool) "bad" true (Result.is_error (Enclosure.check_policy "a:R; sys=lasers")));
    Alcotest.test_case "unknown enclosure name faults at call" `Quick (fun () ->
        let _, lb = boot Lb.Mpk in
        let enc = Enclosure.declare lb ~name:"ghost" (fun () -> ()) in
        match Enclosure.call enc with
        | exception Lb.Fault _ -> ()
        | () -> Alcotest.fail "unknown enclosure ran");
    Alcotest.test_case "declare_dynamic registers and runs" `Quick (fun () ->
        let _, lb = boot Lb.Vtx in
        match
          Enclosure.declare_dynamic lb ~name:"dyn" ~owner:"main" ~deps:[ "img" ]
            ~policy:"; sys=none" (fun () -> "ran")
        with
        | Error e -> Alcotest.fail e
        | Ok enc -> Alcotest.(check string) "result" "ran" (Enclosure.call enc));
    Alcotest.test_case "a closure declared before its registration runs after it"
      `Quick (fun () ->
        let _, lb = boot Lb.Mpk in
        let early = Enclosure.declare lb ~name:"late" (fun () -> "ran") in
        (match Enclosure.call early with
        | exception Lb.Fault _ -> ()
        | _ -> Alcotest.fail "ran before its enclosure existed");
        Result.get_ok
          (Lb.register_enclosure lb ~name:"late" ~owner:"main" ~deps:[ "img" ]
             ~policy:"; sys=none" ~closure_addr:0);
        Alcotest.(check string) "registered" "ran" (Enclosure.call early);
        (* A handle resolved on one LitterBox resolves afresh on
           another, even one that never registered anything since its
           init: Figure 1's rcl is unknown to this program. *)
        let h = Enclosure.handle ~name:"rcl" in
        let _, _, figure1 = Fixtures.boot Lb.Mpk in
        Lb.call figure1 h ignore ();
        let _, other = boot Lb.Mpk in
        match Lb.call other h ignore () with
        | exception Lb.Fault _ -> ()
        | () -> Alcotest.fail "entered an enclosure another LitterBox has");
    Alcotest.test_case "declare_dynamic rejects bad policy" `Quick (fun () ->
        let _, lb = boot Lb.Vtx in
        Alcotest.(check bool) "rejected" true
          (Result.is_error
             (Enclosure.declare_dynamic lb ~name:"dyn2" ~owner:"main" ~deps:[]
                ~policy:"nonsense garbage" (fun () -> ()))));
  ]

(* ------------------------------------------------------------------ *)
(* The switch path: what it allocates and how it unwinds *)

module Pyrt = Encl_pylike.Pyrt
module Metrics = Encl_obs.Metrics
module Obs = Encl_obs.Obs

(* Minor words per call of [f], after one warm-up call (which resolves
   handles and memos). Reading [Gc.minor_words] boxes a float, so a
   path that allocates nothing reads well under one word a call. *)
let words_per_call f =
  f ();
  let rounds = 2_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  (Gc.minor_words () -. before) /. float rounds

let untraced f = Obs.with_default ~witness:true false f

(* The trap path of LB_MPK and LB_SFI runs the kernel's seccomp
   program, whose [Bpf.make_data] record, argument arrays and verdict
   cache key are allocated per call: measured as the same call from
   trusted code straight into the kernel, and allowed on top. *)
let seccomp_words m =
  words_per_call (fun () -> ignore (K.syscall m.Machine.kernel K.Getuid))

let allocation_tests =
  List.map
    (fun backend ->
      let name = Lb.backend_name backend in
      Alcotest.test_case (name ^ ": switches allocate nothing") `Quick
        (fun () ->
          untraced @@ fun () ->
          let m, _, lb = Fixtures.boot backend in
          let under what limit words =
            if words >= limit then
              Alcotest.failf "%s: %s allocates %.2f minor words a call" name
                what words
          in
          let empty = Enclosure.declare lb ~name:"rcl" (fun () -> ()) in
          under "an empty enclosure call" 1. (words_per_call (fun () -> Enclosure.call empty));
          let seccomp =
            match backend with
            | Lb.Mpk | Lb.Sfi -> seccomp_words m
            | Lb.Vtx | Lb.Lwc -> 0.
          in
          let io = Enclosure.handle ~name:"io_enc" in
          Lb.call lb io
            (fun () ->
              under "an allowed getuid" (1. +. seccomp)
                (words_per_call (fun () -> ignore (Lb.syscall lb K.Getuid)));
              under "a trusted excursion" 1.
                (words_per_call (fun () -> Lb.with_trusted lb ignore)))
            ();
          let py = Result.get_ok (Pyrt.boot ~backend ~mode:Pyrt.Conservative ()) in
          List.iter
            (fun name -> Result.get_ok (Pyrt.import_module py ~name ()))
            [ "secret"; "plot" ];
          let o = Pyrt.alloc_obj py ~modul:"secret" ~len:8 in
          let words =
            Pyrt.with_enclosure py ~name:"pe" ~owner:"__main__" ~deps:[ "plot" ]
              ~policy:"secret:R; sys=none" (fun () ->
                words_per_call (fun () ->
                    Pyrt.incref py o;
                    Pyrt.decref py o))
          in
          under "a conservative incref and decref" 1. (Result.get_ok words)))
    Fixtures.all_backends

(* What an exception must leave as it found it: the enclosure stack,
   the installed environment, the gate depth, the registry's current
   scope and the VT-x mode. *)
type snapshot = {
  s_enclosure : string option;
  s_env : Cpu.env;
  s_in_gate : bool;
  s_scope : Metrics.scope;
  s_vm : Encl_sim.Vtx.mode option;
}

let snapshot m lb =
  {
    s_enclosure = Lb.in_enclosure lb;
    s_env = Cpu.env m.Machine.cpu;
    s_in_gate = Cpu.in_gate m.Machine.cpu;
    s_scope = Metrics.current (Obs.metrics m.Machine.obs);
    s_vm = Lb.vm_mode lb;
  }

let check_unwound what before after =
  let same = before.s_enclosure = after.s_enclosure
    && before.s_env == after.s_env
    && before.s_in_gate = after.s_in_gate
    && before.s_scope = after.s_scope
    && before.s_vm = after.s_vm
  in
  if not same then Alcotest.failf "%s: the switch state was not restored" what

(* Run [f], which must raise an exception [expected] accepts, and check
   the state around it. *)
let raises_cleanly m lb what ~expected f =
  let before = snapshot m lb in
  (match f () with
  | () -> Alcotest.failf "%s: nothing was raised" what
  | exception e ->
      if not (expected e) then
        Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
  check_unwound what before (snapshot m lb)

let unwinding_tests =
  let unmapped = 0x7f00_0000_0000 in
  let cpu_fault = function Cpu.Fault _ -> true | _ -> false in
  List.map
    (fun backend ->
      let name = Lb.backend_name backend in
      Alcotest.test_case (name ^ ": an exception unwinds every switch") `Quick
        (fun () ->
          let m, _, lb = Fixtures.boot backend in
          let what = Printf.sprintf "%s: %s" name in
          raises_cleanly m lb (what "an enclosure body")
            ~expected:(fun e -> e = Exit)
            (fun () -> Enclosure.call (Enclosure.declare lb ~name:"rcl" (fun () -> raise Exit)));
          ignore (Vfs.create_file m.Machine.vfs "/f" (Bytes.of_string "data"));
          let fd =
            Result.get_ok (Lb.syscall lb (K.Open { path = "/f"; flags = [ K.O_rdonly ] }))
          in
          Enclosure.call
            (Enclosure.declare lb ~name:"io_enc" (fun () ->
                 raises_cleanly m lb (what "a trusted excursion")
                   ~expected:cpu_fault
                   (fun () ->
                     Lb.with_trusted lb (fun () -> ignore (Cpu.read8 m.Machine.cpu unmapped)));
                 (* The kernel copies to an unmapped buffer from its own
                    trusted environment; on LB_VTX inside a hypercall. *)
                 raises_cleanly m lb (what "a kernel copy excursion")
                   ~expected:cpu_fault
                   (fun () ->
                     ignore (Lb.syscall lb (K.Read { fd; buf = unmapped; len = 4 })))));
          let py = Result.get_ok (Pyrt.boot ~backend ~mode:Pyrt.Conservative ()) in
          let plb = Option.get (Pyrt.lb py) in
          List.iter
            (fun name -> Result.get_ok (Pyrt.import_module py ~name ()))
            [ "secret"; "plot" ];
          let o = Pyrt.alloc_obj py ~modul:"secret" ~len:8 in
          Pyrt.decref py o;
          Result.get_ok
            (Pyrt.with_enclosure py ~name:"pe" ~owner:"__main__" ~deps:[ "plot" ]
               ~policy:"secret:R; sys=none" (fun () ->
                 raises_cleanly (Pyrt.machine py) plb (what "a decref underflow")
                   ~expected:(function Invalid_argument _ -> true | _ -> false)
                   (fun () -> Pyrt.decref py o)));
          Alcotest.(check int) (what "refcount kept") 0 (Pyrt.refcount py o)))
    Fixtures.all_backends

let gate_tests =
  [
    Alcotest.test_case "only a registered gate enters" `Quick (fun () ->
        let m = Machine.create () and other = Machine.create () in
        let cpu = m.Machine.cpu in
        let enters g =
          match Cpu.with_gate cpu g Cpu.in_gate cpu with
          | inside -> inside
          | exception Cpu.Fault _ -> false
        in
        Alcotest.(check bool) "registered" true
          (enters (Cpu.register_gate cpu "vetted"));
        Alcotest.(check bool) "looked up by name" true (enters (Cpu.gate cpu "vetted"));
        Alcotest.(check bool) "never registered" false (enters (Cpu.gate cpu "evil.gate"));
        Alcotest.(check bool) "another CPU's" false
          (enters (Cpu.register_gate other.Machine.cpu "vetted_elsewhere"));
        Alcotest.(check bool) "left on a fault" false (Cpu.in_gate cpu);
        Alcotest.(check bool) "gate-integrity off" true
          (Defense.with_disabled Defense.Gate_integrity (fun () ->
               enters (Cpu.gate cpu "evil.gate"))));
    Alcotest.test_case "an epilog that raises surfaces as Finally_raised" `Quick
      (fun () ->
        (* The epilog drains the syscall ring; a queued read into an
           unmapped buffer faults in that drain, after the body. *)
        let m, _, lb = Fixtures.boot Lb.Mpk in
        ignore (Vfs.create_file m.Machine.vfs "/f" (Bytes.of_string "data"));
        let fd =
          Result.get_ok (Lb.syscall lb (K.Open { path = "/f"; flags = [ K.O_rdonly ] }))
        in
        let queue () =
          ignore (Lb.submit lb (K.Read { fd; buf = 0x7f00_0000_0000; len = 4 }))
        in
        let outcome body =
          match Enclosure.call (Enclosure.declare lb ~name:"io_enc" body) with
          | () -> "returned"
          | exception Fun.Finally_raised (Cpu.Fault _) -> "finally_raised"
          | exception e -> Printexc.to_string e
        in
        Alcotest.(check string) "after a return" "finally_raised" (outcome queue);
        Alcotest.(check string) "while unwinding" "finally_raised"
          (outcome (fun () ->
               queue ();
               raise Exit)));
  ]

let () =
  Alcotest.run "enclosure"
    [
      ("nesting-mpk", nesting_tests Lb.Mpk "mpk");
      ("nesting-vtx", nesting_tests Lb.Vtx "vtx");
      ("construct", construct_tests);
      ("allocation", allocation_tests);
      ("unwinding", unwinding_tests);
      ("gates", gate_tests);
    ]
