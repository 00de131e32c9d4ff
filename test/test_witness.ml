(* Tests for the witness recorder and the policy miner.

   The recorder is free: a witnessed run decides exactly what the same
   run unwitnessed decides. The enforcement oracle (oracle.ml) checks
   that, with the witness drawn on or off, and so does the first
   property here, with only the witness on. The second is
   {e soundness}: the mined policy is sufficient — re-running the very
   behavior it was mined from, with the mined literal enforced in place
   of the hand-written one, produces zero faults and identical results.
   It is checked over random op sequences on all four backends, plus
   deterministic cases for exact mined literals and the drift gate's
   no-widening comparison. *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Miner = Encl_litterbox.Miner
module Policy = Encl_litterbox.Policy
module Types = Encl_litterbox.Types
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs
module Witness = Encl_obs.Witness

let packages () =
  [
    Runtime.package "main"
      ~imports:[ "lib"; "data" ]
      ~functions:[ ("main", 64); ("body", 32) ]
      ~enclosures:
        [
          {
            (* A deliberately generous hand policy: the miner's job is
               to shrink it to what the op sequence actually used. *)
            Encl_elf.Objfile.enc_name = "worker";
            enc_policy = "data:RW; sys=all";
            enc_closure = "body";
            enc_deps = [ "lib" ];
          };
        ]
      ();
    Runtime.package "lib" ~functions:[ ("work", 64) ] ();
    Runtime.package "data"
      ~globals:[ ("blob", 256, Some (Bytes.make 256 'd')) ]
      ();
  ]

let boot backend =
  match
    Runtime.boot (Runtime.with_backend backend) ~packages:(packages ())
      ~entry:"main"
  with
  | Ok rt -> rt
  | Error e -> failwith ("test_witness boot: " ^ e)

(* ------------------------------------------------------------------ *)
(* Op sequences: each op is legitimate under the generous hand policy,
   so a clean run exercises exactly the capabilities it chose to. *)

type op =
  | Read_data  (** read the data global: mines data:R *)
  | Write_data  (** write it: mines data:RW *)
  | Sys_proc  (** getpid: mines sys=proc *)
  | Sys_net  (** socket: mines sys=net *)
  | Batched_proc  (** getuid through the ring: submit-time attribution *)
  | Nowait_time  (** fire-and-forget clock_gettime: drained at epilog *)

let op_name = function
  | Read_data -> "read_data"
  | Write_data -> "write_data"
  | Sys_proc -> "sys_proc"
  | Sys_net -> "sys_net"
  | Batched_proc -> "batched_proc"
  | Nowait_time -> "nowait_time"

let run_op rt blob op =
  let result = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error e -> "errno:" ^ K.errno_name e
  in
  let m = Runtime.machine rt in
  match
    Runtime.with_enclosure rt "worker" (fun () ->
        match op with
        | Read_data -> "read:" ^ string_of_int (Gbuf.get m blob 0)
        | Write_data ->
            Gbuf.set m blob 0 0x5a;
            "write"
        | Sys_proc -> result (Runtime.syscall rt K.Getpid)
        | Sys_net -> result (Runtime.syscall rt K.Socket)
        | Batched_proc -> result (Runtime.syscall_batched rt K.Getuid)
        | Nowait_time ->
            Runtime.syscall_nowait rt K.Clock_gettime;
            "nowait")
  with
  | outcome -> outcome
  | exception Lb.Fault { reason; _ } -> "fault:" ^ reason
  | exception Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure

type outcome = {
  o_results : string list;
  o_faults : int;
  o_fault_log : string list;
  o_quarantined : bool;
}

let pp_outcome o =
  Printf.sprintf "results=[%s] faults=%d log=[%s] quar=%b"
    (String.concat "; " o.o_results)
    o.o_faults
    (String.concat "; " o.o_fault_log)
    o.o_quarantined

(* Run [ops] on a fresh runtime. Returns the outcome and the litterbox
   (for mining when the witness was on). *)
let run_ops ?(witness = false) backend ops =
  let saved_obs = !Obs.default_enabled in
  let saved_wit = !Witness.default_enabled in
  Obs.default_enabled := true;
  Witness.default_enabled := witness;
  Fun.protect ~finally:(fun () ->
      Obs.default_enabled := saved_obs;
      Witness.default_enabled := saved_wit)
  @@ fun () ->
  let rt = boot backend in
  let lb = Option.get (Runtime.lb rt) in
  let blob = Runtime.global rt ~pkg:"data" "blob" in
  let results = List.map (run_op rt blob) ops in
  ( {
      o_results = results;
      o_faults = Lb.fault_count lb;
      o_fault_log = Lb.fault_log lb;
      o_quarantined = Lb.quarantined lb "worker";
    },
    lb )

let backend_gen = QCheck.Gen.oneofl Fixtures.all_backends

let op_gen =
  QCheck.Gen.oneofl
    [ Read_data; Write_data; Sys_proc; Sys_net; Batched_proc; Nowait_time ]

let mined_arb =
  QCheck.make
    ~print:(fun (backend, ops) ->
      Printf.sprintf "%s: %s"
        (Lb.backend_name backend)
        (String.concat ", " (List.map op_name ops)))
    QCheck.Gen.(pair backend_gen (list_size (int_range 1 20) op_gen))

(* ------------------------------------------------------------------ *)
(* Soundness: enforcing the mined policy reproduces the run *)

let soundness_prop (backend, ops) =
  let witnessed, lb = run_ops ~witness:true backend ops in
  if witnessed.o_faults > 0 then
    QCheck.Test.fail_reportf "clean ops faulted: %s" (pp_outcome witnessed);
  let mined = Miner.mine lb in
  let worker =
    match
      List.find_opt (fun (m : Miner.mined) -> m.Miner.enclosure = "worker") mined
    with
    | Some m -> m
    | None -> QCheck.Test.fail_report "worker not mined"
  in
  (* The dependency is part of the base view, never a mined modifier. *)
  if List.mem_assoc "lib" worker.Miner.policy.Policy.modifiers then
    QCheck.Test.fail_reportf "dependency leaked into modifiers: [%s]"
      worker.Miner.literal;
  List.iter (fun (enc, lit) -> Lb.set_policy_override ~enclosure:enc lit)
    (List.map (fun (m : Miner.mined) -> (m.Miner.enclosure, m.Miner.literal)) mined);
  let enforced =
    Fun.protect ~finally:Lb.clear_policy_overrides (fun () ->
        fst (run_ops ~witness:false backend ops))
  in
  if enforced <> witnessed then
    QCheck.Test.fail_reportf
      "mined policy [%s] changed the run:\n  witnessed: %s\n  enforced:  %s"
      worker.Miner.literal (pp_outcome witnessed) (pp_outcome enforced);
  true

let property_tests =
  [
    (* The oracle's product with only the recorder on. *)
    QCheck_alcotest.to_alcotest
      (Oracle.axis ~name:"recording is behaviorally invisible" ~count:120
         (QCheck.Gen.return { Oracle.reference with witness = true }));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"the mined policy reproduces the run" ~count:120
         mined_arb soundness_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Exact mined literals *)

let mined_literal backend ops =
  let _, lb = run_ops ~witness:true backend ops in
  match Miner.mine lb with
  | [ m ] -> m.Miner.literal
  | ms -> Alcotest.fail (Printf.sprintf "expected one enclosure, got %d" (List.length ms))

let literal_tests =
  [
    Alcotest.test_case "read-only data mines data:R; sys=none" `Quick
      (fun () ->
        Alcotest.(check string) "literal" "data:R; sys=none"
          (mined_literal Lb.Mpk [ Read_data; Read_data ]));
    Alcotest.test_case "a write raises the rung to RW" `Quick (fun () ->
        Alcotest.(check string) "literal" "data:RW; sys=none"
          (mined_literal Lb.Vtx [ Read_data; Write_data ]));
    Alcotest.test_case "syscall categories accumulate" `Quick (fun () ->
        Alcotest.(check string) "literal" "; sys=net,proc"
          (mined_literal Lb.Lwc [ Sys_proc; Sys_net; Batched_proc ]));
    Alcotest.test_case "an idle enclosure mines deny-all" `Quick (fun () ->
        Alcotest.(check string) "literal" "; sys=none"
          (mined_literal Lb.Sfi []));
    Alcotest.test_case "batched and nowait calls attribute to the submitter"
      `Quick (fun () ->
        (* Submission happens inside the enclosure; the drain runs at
           the epilog under litterbox control. The witness must credit
           the submitting scope regardless. *)
        List.iter
          (fun backend ->
            Alcotest.(check string)
              (Lb.backend_name backend)
              "; sys=proc,time"
              (mined_literal backend [ Batched_proc; Nowait_time ]))
          Fixtures.all_backends);
  ]

(* ------------------------------------------------------------------ *)
(* The drift gate's no-widening order *)

let policy s =
  match Policy.parse s with
  | Ok p -> p
  | Error e -> Alcotest.fail (Printf.sprintf "parse %S: %s" s e)

let leq ~fresh ~committed =
  Miner.policy_leq ~fresh:(policy fresh) ~committed:(policy committed)

let drift_tests =
  [
    Alcotest.test_case "equal policies do not drift" `Quick (fun () ->
        Alcotest.(check bool) "leq" true
          (leq ~fresh:"data:R; sys=none" ~committed:"data:R; sys=none"));
    Alcotest.test_case "a raised memory rung is a widening" `Quick (fun () ->
        Alcotest.(check bool) "RW > R" false
          (leq ~fresh:"data:RW; sys=none" ~committed:"data:R; sys=none");
        Alcotest.(check bool) "R < RW" true
          (leq ~fresh:"data:R; sys=none" ~committed:"data:RW; sys=none"));
    Alcotest.test_case "a new package grant is a widening" `Quick (fun () ->
        Alcotest.(check bool) "leq" false
          (leq ~fresh:"data:R; sys=none" ~committed:"; sys=none"));
    Alcotest.test_case "a new syscall category is a widening" `Quick
      (fun () ->
        Alcotest.(check bool) "leq" false
          (leq ~fresh:"; sys=net,proc" ~committed:"; sys=net");
        Alcotest.(check bool) "subset ok" true
          (leq ~fresh:"; sys=net" ~committed:"; sys=net,proc"));
    Alcotest.test_case "dropping a connect narrowing is a widening" `Quick
      (fun () ->
        Alcotest.(check bool) "unrestricted > narrowed" false
          (leq ~fresh:"; sys=net" ~committed:"; sys=net,connect(10.0.0.5)");
        Alcotest.(check bool) "narrowed < unrestricted" true
          (leq ~fresh:"; sys=net,connect(10.0.0.5)" ~committed:"; sys=net"));
    Alcotest.test_case "narrowings enumerate one-rung drops" `Quick
      (fun () ->
        let p = policy "data:RW; sys=net,connect(10.0.0.5)" in
        let probes = Miner.narrowings p in
        Alcotest.(check int) "three probes" 3 (List.length probes);
        (* Each probe must drop something the policy grants: the policy
           is never below its own narrowing. (The connect probe swaps
           the observed IP for an unroutable one rather than shrinking
           the list — an empty connect list is not valid syntax — so it
           is incomparable, not below; the strictness direction is the
           one minimality relies on.) *)
        List.iter
          (fun (desc, lit) ->
            Alcotest.(check bool) (desc ^ " drops a grant") false
              (Miner.policy_leq ~fresh:p ~committed:(policy lit)))
          probes);
    Alcotest.test_case "width counts granted capabilities" `Quick (fun () ->
        Alcotest.(check int) "deny-all" 0 (Miner.width (policy "; sys=none"));
        Alcotest.(check int) "http handler" 1
          (Miner.width (policy "assets:R; sys=none"));
        Alcotest.(check int) "db proxy" 2
          (Miner.width (policy "; sys=net,connect(10.0.0.5)")));
  ]

let () =
  Alcotest.run "witness"
    [
      ("properties", property_tests);
      ("mined-literals", literal_tests);
      ("drift", drift_tests);
    ]
