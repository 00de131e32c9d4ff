(* profile: A/B runs and the bench regression gate.

   Usage:
     dune exec bin/profile.exe -- ab --scenario http --backend vtx \
       --axis knob:sysring --expect req_per_sec:higher:1.15
     dune exec bin/profile.exe -- gate                # bench regression gate
     dune exec bin/profile.exe -- gate --write-baseline

   [ab] runs one scenario under two configurations (Encl_apps.Ab) and
   exits 1 unless each side passes Runtime.audit, enforcement is
   identical and every --expect holds.
   The bench runs every A/B claim of the repository through the same
   runner; [ab] is for claims tried by hand.
   [gate] diffs fresh bench rows against the committed baseline. A
   single scenario's attribution table and flamegraph.folded come from
   `trace_dump <scenario>`. *)

module Scenarios = Encl_apps.Scenarios
module Ab = Encl_apps.Ab
module Gate = Encl_obs.Gate
open Cmdliner

(* ------------------------------------------------------------------ *)
(* ab: one scenario, two configurations *)

let ab scenario backend axis expect requests =
  let run runner =
    Ab.run ?requests ~expect ~scenario:(scenario, runner) ~backend axis
  in
  match Result.bind (Scenarios.find scenario) run with
  | Error e ->
      prerr_endline ("profile: ab: " ^ e);
      1
  | Ok t ->
      print_string (Ab.render scenario t expect);
      flush stdout;
      List.iter (fun f -> prerr_endline ("profile: ab: " ^ f)) t.Ab.failures;
      if t.Ab.failures <> [] then 1
      else begin
        print_endline
          "ab: ok (each side passes Runtime.audit, enforcement identical)";
        0
      end

(* ------------------------------------------------------------------ *)
(* gate: diff fresh bench results against the committed baseline *)

let read_doc label path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (label ^ ": " ^ e)
  | contents -> (
      match Gate.parse_doc contents with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "%s (%s): %s" label path e))

(* --write-baseline: promote the fresh results to be the committed
   baseline. Deliberately the only way to bless new or changed rows —
   the gate fails on any unbaselined row, so adding a bench row means
   rerunning the bench and regenerating the baseline here. The fresh
   file is parsed first (a malformed baseline would wedge every later
   gate run) and copied verbatim. *)
let write_baseline baseline_path results_path =
  match In_channel.with_open_bin results_path In_channel.input_all with
  | exception Sys_error e ->
      prerr_endline ("profile: results: " ^ e);
      1
  | contents -> (
      match Gate.parse_doc contents with
      | Error e ->
          prerr_endline
            (Printf.sprintf "profile: results (%s): %s" results_path e);
          1
      | Ok doc ->
          Cli.write_file baseline_path contents;
          Printf.printf "gate: wrote %s (%d rows, quick=%b) from %s\n"
            baseline_path
            (List.length doc.Gate.rows)
            doc.Gate.quick results_path;
          0)

let gate baseline_path results_path write =
  if write then write_baseline baseline_path results_path
  else
    match
      (read_doc "baseline" baseline_path, read_doc "results" results_path)
    with
    | Error e, _ | _, Error e ->
        prerr_endline ("profile: " ^ e);
        1
    | Ok baseline, Ok fresh ->
        let report = Gate.compare_docs ~baseline ~fresh in
        print_string (Gate.render report);
        if Gate.failed report then 1 else 0

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let ab_cmd =
  let scenario_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario to run on both sides.")
  in
  let axis_arg =
    let parse s = Result.map_error (fun e -> `Msg e) (Ab.parse_axis s) in
    let print ppf _ = Format.pp_print_string ppf "AXIS" in
    Arg.(
      required
      & opt (some (conv (parse, print))) None
      & info [ "axis" ] ~docv:"AXIS"
          ~doc:
            "What differs between the sides: knob:NAME (A = on, B = off), \
             backend:X,Y or cores:N,M (A = the first value).")
  in
  let expect_arg =
    Arg.(
      value & opt_all string []
      & info [ "expect" ] ~docv:"METRIC:DIR[:R]"
          ~doc:
            "A metric that must move: DIR higher means A > B (A >= R*B with \
             R), lower the mirror image. Repeatable.")
  in
  Cmd.v
    (Cmd.info "ab"
       ~doc:
         "Run one scenario under two configurations with observability on; \
          exit 1 unless each side passes Runtime.audit (ledgers conserved, \
          rings drained, counters reconciled), the enforcement summaries \
          are identical and every --expect holds.")
    Term.(
      const ab $ scenario_arg $ Cli.backend_arg $ axis_arg $ expect_arg
      $ Cli.requests_arg)

let gate_cmd =
  let baseline_arg =
    Arg.(
      value
      & opt string "bench/baseline.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Committed baseline rows.")
  in
  let results_arg =
    Arg.(
      value
      & opt string "BENCH_results.json"
      & info [ "results" ] ~docv:"FILE" ~doc:"Fresh bench results to judge.")
  in
  let write_arg =
    Arg.(
      value & flag
      & info [ "write-baseline" ]
          ~doc:
            "Instead of judging, promote the fresh results file to be the \
             committed baseline (the deliberate way to bless new or changed \
             bench rows).")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Diff fresh BENCH_results.json rows against bench/baseline.json \
          with per-metric tolerances; exit 1 on regression, on a vanished \
          row, or on a fresh row with no baseline entry.")
    Term.(const gate $ baseline_arg $ results_arg $ write_arg)

let () =
  let info =
    Cmd.info "profile" ~version:"1.0"
      ~doc:"A/B runs of one scenario and the bench regression gate"
  in
  exit (Cmd.eval' (Cmd.group info [ ab_cmd; gate_cmd ]))
