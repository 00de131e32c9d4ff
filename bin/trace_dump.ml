(* trace-dump: run a named scenario with observability enabled and
   write everything the run recorded to disk.

   Usage:
     dune exec bin/trace_dump.exe -- wiki
     dune exec bin/trace_dump.exe -- fasthttp --backend vtx --requests 400
     dune exec bin/trace_dump.exe -- bild --summary
     dune exec bin/trace_dump.exe -- validate trace.json

   One run writes four artifacts: trace.json (Chrome trace_event
   format: load it in chrome://tracing or Perfetto), metrics.json (a
   flat per-enclosure dump), witness.json (the per-scope capability
   sets) and flamegraph.folded (collapsed stacks: feed to flamegraph.pl,
   or import at speedscope.app). It prints the
   attribution table, which answers "where did every simulated
   nanosecond go?": the ledger charges each clock tick to the innermost
   open span's (enclosure x category) cell. Everything carries
   simulated-clock timestamps, so reruns produce identical files. The
   run exits 1 when it fails Runtime.audit: a dropped span, a ledger
   that does not conserve per core, a ring left unbalanced, or counters
   (verdicts, witness, bytes copied) that do not reconcile. *)

module Runtime = Encl_golike.Runtime
module Machine = Encl_litterbox.Machine
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Sysno = Encl_kernel.Sysno
module Scenarios = Encl_apps.Scenarios
module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Export = Encl_obs.Export
open Cmdliner

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
      let paths =
        List.map
          (fun (file, render) ->
            let path = Filename.concat out_dir file in
            Cli.write_file path (render obs);
            path)
          [
            ("trace.json", Export.trace_json);
            ("metrics.json", Export.metrics_json);
            ("witness.json", Export.witness_json);
            ("flamegraph.folded", Export.flamegraph_folded);
          ]
      in
      let spans = Obs.spans obs in
      Printf.printf "%d spans (%d dropped) -> %s\n" (Span.total spans)
        (Span.dropped spans)
        (String.concat ", " paths);
      if summary then print_string (Export.summary obs);
      match (Runtime.audit rt, Runtime.lb rt) with
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
(* Cmdliner wiring *)

let out_dir_arg =
  (* Default under _build so casual runs never litter the work tree with
     trace.json/metrics.json (they used to land in the repo root). *)
  Arg.(
    value
    & opt string "_build/trace"
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:
          "Directory receiving trace.json, metrics.json, witness.json and \
           flamegraph.folded (created if missing).")

let summary_arg =
  Arg.(
    value & flag
    & info [ "s"; "summary" ] ~doc:"Also print the aligned-text summary.")

let scenario_cmd sc =
  Cmd.v
    (Cmd.info sc
       ~doc:
         ("Run the " ^ sc
        ^ " scenario traced: print its attribution table, write its four \
           artifacts, and exit 1 unless the run passes its audit (a \
           dropped span fails it)."))
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

let () =
  let info =
    Cmd.info "trace-dump" ~version:"1.0"
      ~doc:"Run a scenario traced and export everything it recorded"
  in
  let cmds =
    List.map (fun (sc, _) -> scenario_cmd sc) Scenarios.registry
    @ [ validate_cmd; enforcement_cmd ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
