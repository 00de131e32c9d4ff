(* Tests for the scored attack corpus (lib/attack).

   Three claims are pinned down:
   - containment: with every defense on (the default), every corpus
     attack is contained on every backend, and the benign control
     operation keeps working for the gate/mechanism attacks;
   - load-bearing defenses: disabling a single defense lets each of its
     paired attacks escape on the demo backend — no defense is dead
     code, and no attack is contained "by accident" by another layer;
   - accounting: a forged switch counts a gate violation and a raw
     syscall is killed at the trap. *)

module Attack = Encl_attack.Attack
module Legacy = Encl_attack.Legacy
module Backend = Encl_litterbox.Backend
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine

let run a ~backend ~seed = a.Attack.run ~backend ~seed

(* ------------------------------------------------------------------ *)
(* Containment with all defenses on *)

let containment_tests =
  List.concat_map
    (fun backend ->
      List.map
        (fun (a : Attack.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s contained on %s" a.Attack.name
               (Backend.arg_name backend))
            `Quick
            (fun () ->
              let r = run a ~backend ~seed:42 in
              Alcotest.(check bool)
                ("contained: " ^ r.Attack.outcome.Attack.detail)
                true r.Attack.outcome.Attack.contained;
              Alcotest.(check int)
                "nothing exfiltrated" 0 r.Attack.outcome.Attack.exfiltrated;
              (* The legacy suite intentionally breaks the advertised
                 functionality under the default deny-all policy; the
                 gate/mechanism attacks must keep their benign control
                 working — containment is not availability loss. *)
              if a.Attack.defense <> None then
                Alcotest.(check bool)
                  "benign control still works" true
                  r.Attack.outcome.Attack.legit_ok))
        Attack.all)
    Backend.all

(* ------------------------------------------------------------------ *)
(* Each defense is load-bearing *)

let load_bearing_tests =
  List.concat_map
    (fun d ->
      let paired = Attack.paired_with d in
      Alcotest.test_case
        (Printf.sprintf "%s has at least one paired attack" (Defense.name d))
        `Quick
        (fun () ->
          Alcotest.(check bool) "paired" true (paired <> []))
      :: List.map
           (fun (a : Attack.t) ->
             Alcotest.test_case
               (Printf.sprintf "disabling %s lets %s escape" (Defense.name d)
                  a.Attack.name)
               `Quick
               (fun () ->
                 let b = a.Attack.demo_backend in
                 let on = (run a ~backend:b ~seed:42).Attack.outcome in
                 let off =
                   Defense.with_disabled d (fun () ->
                       (run a ~backend:b ~seed:42).Attack.outcome)
                 in
                 Alcotest.(check bool)
                   "contained with the defense on" true on.Attack.contained;
                 Alcotest.(check bool)
                   ("escapes with the defense off: " ^ off.Attack.detail)
                   false off.Attack.contained;
                 Alcotest.(check bool)
                   "defense state restored" true (Defense.enabled d)))
           paired)
    Defense.all

(* ------------------------------------------------------------------ *)
(* Accounting *)

let accounting_tests =
  [
    Alcotest.test_case "forged gate switch is counted as a gate violation"
      `Quick
      (fun () ->
        let a = Option.get (Attack.find "forged-wrpkru") in
        let r = run a ~backend:Backend.Mpk ~seed:1 in
        Alcotest.(check bool)
          "at least one gate violation" true
          (Lb.gate_violation_count r.Attack.lb >= 1));
    Alcotest.test_case "raw syscall is killed at the trap, not the filter"
      `Quick
      (fun () ->
        let a = Option.get (Attack.find "raw-syscall") in
        let r = run a ~backend:Backend.Vtx ~seed:42 in
        Alcotest.(check bool)
          "origin kill recorded" true
          (Encl_kernel.Kernel.origin_kill_count
             r.Attack.machine.Machine.kernel
          >= 1));
    Alcotest.test_case "containment score weights by severity" `Quick
      (fun () ->
        let a = Option.get (Attack.find "forged-wrpkru") in
        let b = Option.get (Attack.find "backdoor") in
        let ok =
          { Attack.contained = true; exfiltrated = 0; legit_ok = true;
            detail = "" }
        in
        let bad = { ok with Attack.contained = false } in
        (* sev 3 contained out of sev 3+1 => 75, not 50. *)
        Alcotest.(check (float 0.001))
          "weighted" 75.0
          (Attack.containment_score [ (a, ok); (b, bad) ]);
        Alcotest.(check (float 0.001))
          "empty list scores 100" 100.0
          (Attack.containment_score []));
  ]

(* ------------------------------------------------------------------ *)
(* Property: whatever the seed and backend, an attack may fault, be
   killed or be quarantined — but it never exfiltrates. *)

let attack_arb =
  let n_attacks = List.length Attack.all in
  QCheck.make
    ~print:(fun (i, b, seed) ->
      Printf.sprintf "%s/%s/seed=%d"
        (List.nth Attack.all i).Attack.name
        (Backend.arg_name (List.nth Backend.all b))
        seed)
    QCheck.Gen.(
      triple (int_range 0 (n_attacks - 1)) (int_range 0 3) (int_range 0 1000))

let prop_never_exfiltrates (i, b, seed) =
  let a = List.nth Attack.all i in
  let backend = List.nth Backend.all b in
  let r = run a ~backend ~seed in
  if not r.Attack.outcome.Attack.contained then
    QCheck.Test.fail_reportf "%s escaped on %s with seed %d: %s" a.Attack.name
      (Backend.arg_name backend) seed r.Attack.outcome.Attack.detail;
  r.Attack.outcome.Attack.exfiltrated = 0

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"attacks fault or die, never exfiltrate"
         ~count:60 attack_arb prop_never_exfiltrates);
  ]

let () =
  Alcotest.run "attack"
    [
      ("containment", containment_tests);
      ("load-bearing", load_bearing_tests);
      ("accounting", accounting_tests);
      ("props", props);
    ]
