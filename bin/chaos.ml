(* chaos: run a workload under a seeded fault-injection plan and check
   that the server survives with acceptable availability.

   Usage:
     dune exec bin/chaos.exe -- http --seed 42
     dune exec bin/chaos.exe -- wiki --rate 0.08 --backend vtx
     dune exec bin/chaos.exe -- points

   Output is deterministic: the same seed, plan and workload produce a
   byte-identical metrics line, so CI can diff two runs to prove
   reproducibility. Exit status is 1 when availability falls below the
   threshold (default 0.9), the scheduler did not keep the server up, or
   the run fails Runtime.audit. *)

module Runtime = Encl_golike.Runtime
module Machine = Encl_litterbox.Machine
module Scenarios = Encl_apps.Scenarios
module Fault = Encl_fault.Fault
open Cmdliner

let run scenario backend seed rate budget requests conns threshold =
  let name, run =
    match scenario with
    | `Http -> ("http", Scenarios.chaos_http)
    | `Wiki -> ("wiki", Scenarios.chaos_wiki)
  in
  match
    run backend ~seed:(Int64.of_int seed) ~rate ~budget ~requests ~conns ()
  with
  | Error e ->
      prerr_endline ("chaos: " ^ e);
      1
  | Ok (rt, r) -> (
      Printf.printf "chaos %s backend=%s seed=%d rate=%.2f budget=%d\n" name
        (Scenarios.config_name backend)
        seed rate budget;
      Printf.printf "%s\n" (Scenarios.pp_chaos_result r);
      let failures = ref [] in
      let fail fmt =
        Printf.ksprintf (fun s -> failures := s :: !failures) fmt
      in
      let availability = Scenarios.metric r "availability" in
      if availability < threshold then
        fail "availability %.3f below threshold %.3f" availability threshold;
      (* The server must have stayed up: faults are contained, so with any
         fault activity the client still gets the bulk of its responses. *)
      if r.Scenarios.ops = 0 then fail "server served nothing";
      (match Scenarios.chaos_fault_accounting rt with
      | Ok () -> ()
      | Error e -> fail "%s" e);
      (* Injected faults and retries must leave every run invariant
         intact. *)
      List.iter (fail "%s") (Runtime.audit rt);
      match !failures with
      | [] ->
          Printf.printf "chaos %s: ok\n" name;
          0
      | fs ->
          List.iter (fun f -> prerr_endline ("chaos: " ^ f)) fs;
          1)

let points () =
  (* Registered hook points of a freshly built machine. *)
  let machine = Machine.create () in
  List.iter
    (fun (point, doc) -> Printf.printf "%-24s %s\n" point doc)
    (Fault.points machine.Machine.inject);
  0

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed (determinism key).")

let rate_arg ~default =
  Arg.(
    value & opt float default
    & info [ "rate" ] ~docv:"P" ~doc:"Per-consultation firing probability.")

let budget_arg =
  Arg.(
    value & opt int 5
    & info [ "budget" ]
        ~docv:"N" ~doc:"Enclosure fault budget before quarantine.")

let requests_arg ~default =
  Arg.(
    value & opt int default
    & info [ "requests" ] ~docv:"N" ~doc:"Client request attempts.")

let conns_arg ~default =
  Arg.(
    value & opt int default
    & info [ "conns" ] ~docv:"N" ~doc:"Persistent client connections.")

let threshold_arg =
  Arg.(
    value & opt float 0.9
    & info [ "threshold" ] ~docv:"A"
        ~doc:"Minimum served/sent ratio for exit status 0.")

let scenario_cmd name scenario ~rate ~requests ~conns ~doc =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (run scenario)
      $ Cli.backend_arg $ seed_arg $ rate_arg ~default:rate $ budget_arg
      $ requests_arg ~default:requests $ conns_arg ~default:conns
      $ threshold_arg)

let points_cmd =
  Cmd.v
    (Cmd.info "points" ~doc:"List the machine's registered fault hook points.")
    Term.(const points $ const ())

let () =
  let info =
    Cmd.info "chaos" ~version:"1.0"
      ~doc:"Run a workload under deterministic fault injection"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            scenario_cmd "http" `Http ~rate:0.10 ~requests:500 ~conns:8
              ~doc:
                "Spurious page faults in the HTTP handler enclosure; checks \
                 per-connection containment and quarantine.";
            scenario_cmd "wiki" `Wiki ~rate:0.05 ~requests:400 ~conns:4
              ~doc:
                "Network chaos (drops, short reads/writes, transient errnos) \
                 over the wiki; checks retries and pq reconnect.";
            points_cmd;
          ]))
