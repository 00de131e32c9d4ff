(* trace-dump: run a named scenario with observability enabled and
   write everything the run recorded to disk.

   Usage:
     dune exec bin/trace_dump.exe -- wiki
     dune exec bin/trace_dump.exe -- fasthttp --backend vtx --requests 400
     dune exec bin/trace_dump.exe -- bild --summary
     dune exec bin/trace_dump.exe -- validate trace.json

   One run writes five artifacts: trace.json (Chrome trace_event
   format: load it in chrome://tracing or Perfetto), metrics.json (a
   flat per-enclosure dump), witness.json (the per-scope capability
   sets), flamegraph.folded (collapsed stacks, feed to flamegraph.pl)
   and profile.speedscope.json (load at speedscope.app). It prints the
   attribution table, which answers "where did every simulated
   nanosecond go?": the ledger charges each clock tick to the innermost
   open span's (enclosure x category) cell. Everything carries
   simulated-clock timestamps, so reruns produce identical files. *)

module Runtime = Encl_golike.Runtime
module Machine = Encl_litterbox.Machine
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Sysno = Encl_kernel.Sysno
module Scenarios = Encl_apps.Scenarios
module Ab = Encl_apps.Ab
module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Metrics = Encl_obs.Metrics
module Export = Encl_obs.Export
open Cmdliner

(* A counter's total in the machine's registry, by its metrics.json
   name. *)
let registry_total obs name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.totals (Obs.metrics obs)))

(* Reconciliations between quantities derived independently: the
   syscall ring balances (submitted = drained + pending); the rx view
   ring's descriptor ledger balances (every granted slot is consumed by
   its owner, force-reclaimed on close, or still in flight); the verdict
   counts reconcile with the kernel's per-syscall tallies even when
   batching reordered the drains — guest-side denials (VTX/LWC filter
   checks, ring entries denied at drain) never enter the kernel, so
   allowed + denied - guest denials = kernel syscall count; and the
   machine's bytes_copied field, kept beside the registry for the
   benchmark, equals its registry total. *)
let cross_check lb machine obs =
  let kernel = machine.Machine.kernel in
  let total = registry_total obs in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (let submitted = Lb.ring_submitted_count lb in
   let drained = Lb.ring_drained_count lb in
   let pending = Lb.ring_pending lb in
   if submitted <> drained + pending then
     fail "ring imbalance: submitted %d <> drained %d + pending %d" submitted
       drained pending);
  (let granted, consumed, reclaimed = K.rxring_counters kernel in
   let inflight = K.rxring_inflight kernel in
   if granted <> consumed + reclaimed + inflight then
     fail
       "rx-ring imbalance: granted %d <> consumed %d + reclaimed %d + \
        inflight %d"
       granted consumed reclaimed inflight);
  (let field = machine.Machine.bytes_copied in
   let registry = total "bytes_copied.app" in
   if field <> registry then
     fail "bytes_copied.app mismatch: machine field %d, registry %d" field
       registry);
  (let allowed = total "syscall.allowed" in
   let denied = total "syscall.denied" in
   let guest = Lb.guest_denied_count lb in
   let kernel_count = K.syscall_count kernel in
   if allowed + denied - guest <> kernel_count then
     fail
       "syscall count mismatch: allowed %d + denied %d - guest denials %d <> \
        kernel %d"
       allowed denied guest kernel_count);
  List.rev !problems

(* Conservation, re-checked over the metrics.json text: metrics.json
   used to carry one attribution ledger per machine; it now carries one
   per core. Each core's cells must sum to that core's attributed
   total, the core totals must sum to the machine-wide attributed
   total, and that total must equal the elapsed clock. A core missing
   from the file is a hard failure — an idle core must appear as an
   explicit zero ledger, not as an absence. *)
let per_core_conservation ~cores:machine_cores contents =
  let module Json = Export.Json in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.parse contents with
  | Error e -> fail "metrics.json unparseable: %s" e
  | Ok doc -> (
      match Json.member "attribution" doc with
      | None -> fail "metrics.json has no attribution object"
      | Some attrib -> (
          let num field j = Option.bind (Json.member field j) Json.to_float in
          let attributed = num "attributed_ns" attrib in
          (match (num "elapsed_ns" attrib, attributed) with
          | Some e, Some a when e <> a ->
              fail "attributed %.0fns <> elapsed %.0fns" a e
          | None, _ | _, None -> fail "attribution totals missing"
          | _ -> ());
          match Option.bind (Json.member "cores" attrib) Json.to_list with
          | None -> fail "attribution has no per-core ledgers"
          | Some cores ->
              let seen = Hashtbl.create 8 in
              let core_sum = ref 0 in
              List.iter
                (fun cj ->
                  match (num "core" cj, num "attributed_ns" cj) with
                  | Some c, Some a ->
                      Hashtbl.replace seen (int_of_float c) ();
                      core_sum := !core_sum + int_of_float a;
                      let cell_sum =
                        match
                          Option.bind (Json.member "cells" cj) Json.to_list
                        with
                        | None -> 0.
                        | Some cells ->
                            List.fold_left
                              (fun acc cell ->
                                acc +. Option.value ~default:0. (num "ns" cell))
                              0. cells
                      in
                      if int_of_float cell_sum <> int_of_float a then
                        fail "core %d: cells sum to %.0fns, ledger says %.0fns"
                          (int_of_float c) cell_sum a
                  | _ -> fail "malformed per-core ledger entry")
                cores;
              for c = 0 to machine_cores - 1 do
                if not (Hashtbl.mem seen c) then
                  fail "core %d's ledger is missing from metrics.json" c
              done;
              (match attributed with
              | Some a when int_of_float a <> !core_sum ->
                  fail
                    "per-core totals sum to %dns, machine-wide ledger says \
                     %.0fns"
                    !core_sum a
              | _ -> ()))));
  List.rev !problems

(* The run's checks, one list: the trace is complete, the written
   ledger conserves per core, the run alone passes {!Ab.problems}, and
   with LitterBox attached its counters reconcile. *)
let problems rt report ~metrics =
  let machine = Runtime.machine rt in
  let obs = machine.Machine.obs in
  let spans = Obs.spans obs in
  (* A lossy trace is a blind spot, not a footnote: every consumer of
     these artifacts (the CI cross-checks, the miner, a human in
     Perfetto) must be able to trust that what is absent did not
     happen. *)
  (if Span.dropped spans > 0 then
     [
       Printf.sprintf
         "span ring overflowed, %d of %d spans evicted: the trace is \
          incomplete (metric totals remain exact); shrink the workload \
          (--requests)"
         (Span.dropped spans) (Span.total spans);
     ]
   else [])
  @ per_core_conservation ~cores:machine.Machine.cores metrics
  @ Ab.problems rt report
  @ Option.fold ~none:[]
      ~some:(fun lb -> cross_check lb machine obs)
      (Runtime.lb rt)

let run name backend requests out_dir summary =
  Obs.default_enabled := true;
  Encl_obs.Witness.default_enabled := true;
  match
    Result.bind (Scenarios.find name) (fun run -> run backend ?requests ())
  with
  | Error e ->
      prerr_endline ("trace-dump: " ^ e);
      1
  | Ok (rt, report) -> (
      let obs = (Runtime.machine rt).Machine.obs in
      Printf.printf "%s under %s: %s\n" name
        (Scenarios.config_name backend)
        (Scenarios.pp_report report);
      print_string (Export.attrib_table obs);
      let metrics = Export.metrics_json obs in
      let paths =
        List.map
          (fun (file, render) ->
            let path = Filename.concat out_dir file in
            Cli.write_file path (render obs);
            path)
          [
            ("trace.json", Export.trace_json);
            ("metrics.json", Fun.const metrics);
            ("witness.json", Export.witness_json);
            ("flamegraph.folded", Export.flamegraph_folded);
            ("profile.speedscope.json", Export.speedscope_json);
          ]
      in
      let spans = Obs.spans obs in
      Printf.printf "%d spans (%d dropped) -> %s\n" (Span.total spans)
        (Span.dropped spans)
        (String.concat ", " paths);
      if summary then print_string (Export.summary obs);
      match (problems rt report ~metrics, Runtime.lb rt) with
      | [], None -> 0
      | [], Some lb ->
          Printf.printf
            "counters reconcile: switches=%d (%d elided) transfers=%d (%d \
             coalesced) faults=%d ring=%d/%d in %d batches\n"
            (Lb.switch_count lb)
            (Lb.switch_elided_count lb)
            (Lb.transfer_count lb)
            (Lb.transfer_coalesced_count lb)
            (Lb.fault_count lb)
            (Lb.ring_drained_count lb)
            (Lb.ring_submitted_count lb)
            (Lb.ring_batches_count lb);
          0
      | problems, _ ->
          List.iter (fun p -> prerr_endline ("trace-dump: " ^ p)) problems;
          1)

let validate path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      prerr_endline ("trace-dump: " ^ e);
      1
  | contents -> (
      match Export.Json.parse contents with
      | Ok _ ->
          Printf.printf "%s: valid JSON (%d bytes)\n" path
            (String.length contents);
          0
      | Error e ->
          prerr_endline (Printf.sprintf "trace-dump: %s: %s" path e);
          1)

(* ------------------------------------------------------------------ *)
(* enforcement: a timing-free enforcement report. bin/ci.sh runs it under
   every combination of the knobs and core counts and requires output
   identical to bench/enforcement_pin.txt: a knob may change what a run
   costs and how fibers interleave, never what enforcement decides.
   Only order-invariant quantities are printed (per-op results in
   program order, fault logs, quarantine state, the kernel's
   per-syscall totals, request counts); nothing timing-bearing (req/s,
   simulated ns) appears. *)

let enforcement_ops backend =
  let rt =
    match
      Runtime.boot
        (Runtime.with_backend backend)
        ~packages:(Scenarios.table1_packages ()) ~entry:"main"
    with
    | Ok rt -> rt
    | Error e -> failwith ("trace-dump enforcement boot: " ^ e)
  in
  let lb = Option.get (Runtime.lb rt) in
  Lb.set_fault_budget lb 2;
  let result = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error e -> "errno:" ^ K.errno_name e
  in
  let op name f =
    let outcome =
      try f () with
      | Lb.Fault { reason; _ } -> "fault:" ^ reason
      | Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure
    in
    Printf.printf "  %-18s %s\n" name outcome
  in
  op "trusted_getpid" (fun () -> result (Runtime.syscall rt K.Getpid));
  op "io_getuid" (fun () ->
      Runtime.with_enclosure rt "io" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  op "io_housekeeping" (fun () ->
      (* Allowed fire-and-forget calls accumulate on the ring and drain
         at the enclosure epilog in one batch; with the ring off each is
         a direct call.  Either way the kernel sees all three. *)
      Runtime.with_enclosure rt "io" (fun () ->
          Runtime.syscall_nowait rt K.Clock_gettime;
          Runtime.syscall_nowait rt K.Futex;
          Runtime.syscall_nowait rt K.Epoll_wait;
          "ok"));
  op "denied_getuid" (fun () ->
      Runtime.with_enclosure rt "enc" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  op "denied_again" (fun () ->
      Runtime.with_enclosure rt "enc" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  op "quarantine_probe" (fun () ->
      Runtime.with_enclosure rt "enc" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  Printf.printf "  faults=%d quarantined(enc=%b io=%b)\n" (Lb.fault_count lb)
    (Lb.quarantined lb "enc") (Lb.quarantined lb "io");
  List.iter (fun l -> Printf.printf "  fault: %s\n" l) (Lb.fault_log lb);
  List.iter
    (fun (nr, n) -> Printf.printf "  sys %-14s %d\n" (Sysno.name nr) n)
    (K.trace (Runtime.machine rt).Machine.kernel)

(* The pylike leg: localcopy under the Zerocopy flag is copy-on-write,
   so everything observable — payload bytes through either side of a
   share, the fault on a write to the R-granted source, refcounts once
   shares settle — must be flag-invariant; only copy costs move. The
   workload exercises a read through the share, a write-after-localcopy
   (materializes the private copy), a trusted write to a shared source
   (detaches the outstanding share with its pre-write bytes), and a
   denied in-enclosure source write. *)
module Pyrt = Encl_pylike.Pyrt

let enforcement_pylike backend =
  let ok = function Ok v -> v | Error e -> failwith ("pylike leg: " ^ e) in
  let rt = ok (Pyrt.boot ~backend ~mode:Pyrt.Conservative ()) in
  ok (Pyrt.import_module rt ~name:"src" ());
  ok (Pyrt.import_module rt ~name:"dst" ());
  let lb = Option.get (Pyrt.lb rt) in
  Lb.set_fault_budget lb 3;
  let payload obj = Bytes.to_string (Pyrt.read_payload rt obj) in
  let src = Pyrt.alloc_obj rt ~modul:"src" ~len:8 in
  Pyrt.write_payload rt src (Bytes.of_string "abcdefgh");
  let shared = ref None in
  let enc body =
    Pyrt.with_enclosure rt ~name:"pycow" ~owner:"__main__" ~deps:[ "dst" ]
      ~policy:"src:R; sys=none" body
  in
  (match
     enc (fun () ->
         let c1 = Pyrt.localcopy rt src ~dst_module:"dst" in
         Printf.printf "  localcopy_read    %s\n" (payload c1);
         Pyrt.write_payload rt c1 (Bytes.of_string "WRITTEN!");
         Printf.printf "  write_after_copy  copy=%s src=%s\n" (payload c1)
           (payload src);
         shared := Some (Pyrt.localcopy rt src ~dst_module:"dst"))
   with
  | Ok () -> ()
  | Error e -> Printf.printf "  enclosure_error   %s\n" e);
  Pyrt.write_payload rt src (Bytes.of_string "12345678");
  (match !shared with
  | Some c ->
      Printf.printf "  source_write      copy=%s src=%s\n" (payload c)
        (payload src)
  | None -> Printf.printf "  source_write      copy=missing\n");
  (match enc (fun () -> Pyrt.write_payload rt src (Bytes.of_string "IllEGAL!"))
   with
  | Ok () -> Printf.printf "  denied_src_write  ok\n"
  | Error e -> Printf.printf "  denied_src_write  error:%s\n" e
  | exception Lb.Fault { reason; _ } ->
      Printf.printf "  denied_src_write  fault:%s\n" reason);
  Printf.printf "  faults=%d src_rc=%d final_src=%s\n" (Lb.fault_count lb)
    (Pyrt.refcount rt src) (payload src)

let enforcement () =
  List.iter
    (fun backend ->
      Printf.printf "enforcement under %s\n" (Lb.backend_name backend);
      enforcement_ops backend)
    Encl_litterbox.Backend.all;
  Printf.printf "scenario enforcement\n";
  List.iter
    (fun backend ->
      List.iter
        (fun name ->
          let label = name ^ "/" ^ Lb.backend_name backend in
          let run = List.assoc name Scenarios.registry in
          match run (Some backend) ~requests:120 () with
          | Ok (rt, r) ->
              List.iter print_endline (Scenarios.enforcement ~label rt r)
          | Error e -> failwith (label ^ ": " ^ e))
        [ "http"; "fasthttp"; "zerocopy_http" ])
    Encl_litterbox.Backend.all;
  Printf.printf "pylike localcopy enforcement\n";
  List.iter
    (fun backend ->
      Printf.printf "  under %s\n" (Lb.backend_name backend);
      enforcement_pylike backend)
    Encl_litterbox.Backend.all;
  0

(* ------------------------------------------------------------------ *)
(* Witness cross-check: the witness recorder's per-scope syscall
   aggregates are a third, independently-fed ledger next to the
   registry's verdict counters (fed from the kernel) and the kernel's
   own per-syscall totals. For each backend x scenario the three must
   reconcile exactly:
     witness allowed/denied      == "syscall.allowed"/"syscall.denied"
     kernel count - exits        == allowed + denied - guest denials
       (guest-side filter denials never enter the kernel;
        exit_program is recorded by the kernel but traps no filter)
     witness per-category totals == "syscall.<category>" totals *)

module Witness = Encl_obs.Witness

let witness_scenario errors label lb kernel obs =
  let w = Lb.witness lb in
  let total = registry_total obs in
  let fail fmt = Printf.ksprintf (fun s -> errors := (label ^ ": " ^ s) :: !errors) fmt in
  let w_allowed, w_denied = Witness.totals w in
  let r_allowed = total "syscall.allowed" in
  let r_denied = total "syscall.denied" in
  if w_allowed <> r_allowed then
    fail "allowed mismatch: witness %d, registry %d" w_allowed r_allowed;
  if w_denied <> r_denied then
    fail "denied mismatch: witness %d, registry %d" w_denied r_denied;
  let kernel_count =
    K.syscall_count kernel - K.count_for kernel Sysno.Exit
  in
  let guest = Lb.guest_denied_count lb in
  if kernel_count <> w_allowed + w_denied - guest then
    fail
      "kernel mismatch: kernel %d (sans exit) <> witness allowed %d + denied \
       %d - guest denials %d"
      kernel_count w_allowed w_denied guest;
  List.iter
    (fun cat ->
      let name = Sysno.category_name cat in
      let w_cat = Witness.category_total w ~category:name in
      let r_cat = total ("syscall." ^ name) in
      if w_cat <> r_cat then
        fail "category %s mismatch: witness %d, registry %d" name w_cat r_cat)
    Sysno.all_categories;
  Printf.printf
    "  %-12s witness=%d+%d registry=%d+%d kernel=%d guest_denied=%d\n" label
    w_allowed w_denied r_allowed r_denied kernel_count guest

let witness_check () =
  let errors = ref [] in
  Obs.with_default ~witness:true true (fun () ->
      List.iter
        (fun backend ->
          List.iter
            (fun (name, requests) ->
              let label =
                Printf.sprintf "%s/%s" name
                  (Encl_litterbox.Backend.arg_name backend)
              in
              let run = List.assoc name Scenarios.registry in
              match run (Some backend) ~requests () with
              | Error e -> errors := (label ^ ": " ^ e) :: !errors
              | Ok (rt, _) -> (
                  match Runtime.lb rt with
                  | None -> errors := (label ^ ": no litterbox") :: !errors
                  | Some lb ->
                      let machine = Runtime.machine rt in
                      witness_scenario errors label lb machine.Machine.kernel
                        machine.Machine.obs))
            [ ("http", 160); ("wiki", 120); ("pq", 80) ])
        Encl_litterbox.Backend.all);
  match List.rev !errors with
  | [] ->
      Printf.printf
        "witness reconciles with the registry counters and the kernel \
         totals across %d runs\n"
        (3 * List.length Encl_litterbox.Backend.all);
      0
  | es ->
      List.iter (fun e -> Printf.printf "MISMATCH %s\n" e) es;
      1

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let out_dir_arg =
  (* Default under _build so casual runs never litter the work tree with
     trace.json/metrics.json (they used to land in the repo root). *)
  Arg.(
    value
    & opt string "_build/trace"
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:
          "Directory receiving trace.json, metrics.json, witness.json, \
           flamegraph.folded and profile.speedscope.json (created if \
           missing).")

let summary_arg =
  Arg.(
    value & flag
    & info [ "s"; "summary" ] ~doc:"Also print the aligned-text summary.")

let scenario_cmd sc =
  Cmd.v
    (Cmd.info sc
       ~doc:
         ("Run the " ^ sc
        ^ " scenario traced: print its attribution table, write its five \
           artifacts, and exit 1 on a dropped span or a failed check."))
    Term.(
      const (run sc) $ Cli.backend_arg $ Cli.requests_arg $ out_dir_arg
      $ summary_arg)

let validate_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check that FILE parses as JSON (used by bin/ci.sh).")
    Term.(const validate $ file_arg)

let enforcement_cmd =
  Cmd.v
    (Cmd.info "enforcement"
       ~doc:
         "Print a timing-free enforcement report (op results in program \
          order, fault logs, quarantine state, kernel syscall totals). \
          bin/ci.sh requires it to match bench/enforcement_pin.txt under \
          every knob and core-count combination.")
    Term.(const enforcement $ const ())

let witness_cmd =
  Cmd.v
    (Cmd.info "witness"
       ~doc:
         "Run http, wiki and pq on every backend with the witness recorder \
          on and cross-check its per-scope syscall aggregates against the \
          registry's counters and the kernel's own totals.")
    Term.(const witness_check $ const ())

let () =
  let info =
    Cmd.info "trace-dump" ~version:"1.0"
      ~doc:"Run a scenario traced and export everything it recorded"
  in
  let cmds =
    List.map (fun (sc, _) -> scenario_cmd sc) Scenarios.registry
    @ [ validate_cmd; enforcement_cmd; witness_cmd ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
