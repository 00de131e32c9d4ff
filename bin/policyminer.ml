(* policy-miner: mine least-privilege enclosure policies from a witness
   recording, verify them by re-running, and gate policy drift against
   committed snapshots.

   Usage:
     dune exec bin/policyminer.exe -- mine http
     dune exec bin/policyminer.exe -- mine wiki --write bench/policies/wiki.json
     dune exec bin/policyminer.exe -- verify pq --backend all
     dune exec bin/policyminer.exe -- drift http --snapshot bench/policies/http.json

   [mine] runs a scenario with the witness recorder on and folds the
   per-enclosure capability sets into minimal `with [Policies]` literals
   (validated by Enclosure.check_policy). [verify] proves the mined
   policy sound (enforcing it reproduces the run with zero faults) and
   minimal (every one-rung narrowing faults). [drift] fails when a fresh
   mine grants anything a committed snapshot does not. *)

module Runtime = Encl_golike.Runtime
module Lb = Encl_litterbox.Litterbox
module Miner = Encl_litterbox.Miner
module Policy = Encl_litterbox.Policy
module Enclosure = Encl_enclosure.Enclosure
module Scenarios = Encl_apps.Scenarios
module Obs = Encl_obs.Obs
module Witness = Encl_obs.Witness
module Json = Encl_obs.Export.Json
open Cmdliner

let mineable =
  List.filter (fun n -> n <> "bild") (List.map fst Scenarios.registry)

(* ------------------------------------------------------------------ *)
(* Scenario runs *)

(* One run of [name] under [backend]. [witnessed] turns the sink's
   spans and the witness recorder on (mining); verification re-runs enforce
   only, so they skip the recording. A workload that died mid-run — the
   probe runs are expected to — is an [Error]. *)
let run_scenario ?(witnessed = false) name backend requests =
  Obs.with_default ~witness:true witnessed @@ fun () ->
  match (List.assoc name Scenarios.registry) (Some backend) ?requests () with
  | Ok (rt, _report) -> Ok rt
  | Error e -> Error e
  | exception e -> Error (Printexc.to_string e)

let fault_count rt =
  match Runtime.lb rt with Some lb -> Lb.fault_count lb | None -> 0

(* Mine one backend's run: per-enclosure literals, each validated. The
   run must pass its audit: a lossy trace or a witness that does not
   reconcile with the registry is a blind spot the miner must not paper
   over with a warning, so any problem refuses the run. *)
let mine_one name backend requests =
  match run_scenario ~witnessed:true name backend requests with
  | Error e ->
      Error (Printf.sprintf "%s under %s: %s" name (Lb.backend_name backend) e)
  | Ok rt -> (
      match (Runtime.lb rt, Runtime.audit rt) with
      | None, _ -> Error (name ^ ": scenario ran without a litterbox")
      | Some _, (_ :: _ as problems) ->
          Error ("refusing to mine: " ^ String.concat "; " problems)
      | Some lb, [] ->
          let mined = Miner.mine lb in
          let invalid =
            List.filter_map
              (fun (m : Miner.mined) ->
                match Enclosure.check_policy m.Miner.literal with
                | Ok () -> None
                | Error e ->
                    Some
                      (Printf.sprintf "%s: mined literal %S invalid: %s"
                         m.Miner.enclosure m.Miner.literal e))
              mined
          in
          if invalid <> [] then Error (String.concat "; " invalid)
          else Ok (lb, mined))

(* Mine across [backends] and require the mined policies to agree: the
   capability a package needs is a property of the program, not of the
   isolation mechanism enforcing it. *)
let mine_agreed name backends requests =
  let results =
    List.map (fun b -> (b, mine_one name b requests)) backends
  in
  match List.find_opt (fun (_, r) -> Result.is_error r) results with
  | Some (b, Error e) ->
      Error (Printf.sprintf "[%s] %s" (Lb.backend_name b) e)
  | _ -> (
      let literals (_, r) =
        match r with
        | Ok (_, mined) ->
            List.map (fun (m : Miner.mined) -> (m.Miner.enclosure, m.Miner.literal)) mined
        | Error _ -> []
      in
      match results with
      | [] -> Error "no backends selected"
      | first :: rest ->
          let reference = literals first in
          let disagree =
            List.filter_map
              (fun ((b, _) as r) ->
                if literals r <> reference then Some (Lb.backend_name b)
                else None)
              rest
          in
          if disagree <> [] then
            Error
              (Printf.sprintf
                 "mined policies disagree across backends (%s differs from \
                  %s) — the witness is leaking mechanism detail"
                 (String.concat ", " disagree)
                 (Lb.backend_name (fst first)))
          else
            match snd first with
            | Ok (lb, mined) -> Ok (lb, mined)
            | Error e -> Error e)

(* ------------------------------------------------------------------ *)
(* Snapshots: bench/policies/<scenario>.json *)

let snapshot_string name mined =
  Json.to_string
    (Json.Obj
       [
         ("scenario", Json.String name);
         ( "policies",
           Json.Obj
             (List.map
                (fun (m : Miner.mined) ->
                  (m.Miner.enclosure, Json.String m.Miner.literal))
                mined) );
       ])

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents;
      output_char oc '\n')

let read_snapshot path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
      match Json.parse contents with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok json -> (
          match Json.member "policies" json with
          | Some (Json.Obj fields) ->
              let literal = function
                | Json.String s -> Some s
                | _ -> None
              in
              Ok (List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (literal v)) fields)
          | _ -> Error (path ^ ": missing \"policies\" object")))

(* ------------------------------------------------------------------ *)
(* mine *)

let report_witness lb =
  let w = Lb.witness lb in
  let allowed, denied = Witness.totals w in
  Printf.printf "witness: %d syscalls allowed, %d denied, %d scopes\n" allowed
    denied
    (List.length (Witness.scope_names w))

let mine name backends requests write =
  match mine_agreed name backends requests with
  | Error e ->
      prerr_endline ("policyminer: " ^ e);
      1
  | Ok (lb, mined) ->
      Printf.printf "mined policies for %s (agreed across %s):\n" name
        (String.concat ", " (List.map Lb.backend_name backends));
      List.iter
        (fun (m : Miner.mined) ->
          Printf.printf "  %-12s with [%s]  (width %d)\n" m.Miner.enclosure
            m.Miner.literal
            (Miner.width m.Miner.policy))
        mined;
      report_witness lb;
      (match write with
      | Some path ->
          write_file path (snapshot_string name mined);
          Printf.printf "snapshot -> %s\n" path
      | None -> ());
      0

(* ------------------------------------------------------------------ *)
(* verify: soundness + minimality *)

let with_overrides assoc f =
  List.iter (fun (enc, lit) -> Lb.set_policy_override ~enclosure:enc lit) assoc;
  Fun.protect ~finally:Lb.clear_policy_overrides f

let verify_backend name backend requests =
  match mine_one name backend requests with
  | Error e -> [ Printf.sprintf "[%s] %s" (Lb.backend_name backend) e ]
  | Ok (_, mined) ->
      let literals =
        List.map (fun (m : Miner.mined) -> (m.Miner.enclosure, m.Miner.literal)) mined
      in
      let bname = Lb.backend_name backend in
      (* Soundness: enforcing exactly what was witnessed reproduces the
         run — no faults, no workload failure. *)
      let soundness =
        let outcome =
          with_overrides literals (fun () -> run_scenario name backend requests)
        in
        match Result.map fault_count outcome with
        | Ok 0 ->
            Printf.printf "  [%s] sound: zero faults under the mined policy\n"
              bname;
            []
        | Error e ->
            [ Printf.sprintf "[%s] unsound: mined policy broke the run: %s" bname e ]
        | Ok n ->
            [ Printf.sprintf "[%s] unsound: %d faults under the mined policy" bname n ]
      in
      (* Minimality: dropping any single mined capability must fault. *)
      let minimality =
        List.concat_map
          (fun (m : Miner.mined) ->
            List.filter_map
              (fun (desc, narrowed) ->
                let probe =
                  (m.Miner.enclosure, narrowed)
                  :: List.remove_assoc m.Miner.enclosure literals
                in
                let outcome =
                  with_overrides probe (fun () ->
                      run_scenario name backend requests)
                in
                if Result.fold ~ok:(fun rt -> fault_count rt > 0)
                     ~error:(fun _ -> true) outcome
                then begin
                  Printf.printf "  [%s] minimal: %s %s => faults\n" bname
                    m.Miner.enclosure desc;
                  None
                end
                else
                  Some
                    (Printf.sprintf
                       "[%s] not minimal: %s %s ran clean — the capability \
                        is not load-bearing"
                       bname m.Miner.enclosure desc))
              (Miner.narrowings m.Miner.policy))
          mined
      in
      soundness @ minimality

let verify name backends requests =
  let problems = List.concat_map (fun b -> verify_backend name b requests) backends in
  match problems with
  | [] ->
      Printf.printf "%s: mined policy sound and minimal under %s\n" name
        (String.concat ", " (List.map Lb.backend_name backends));
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("policyminer: " ^ p)) ps;
      1

(* ------------------------------------------------------------------ *)
(* drift *)

let drift name backends requests snapshot write =
  let path =
    match snapshot with
    | Some p -> p
    | None -> Filename.concat "bench/policies" (name ^ ".json")
  in
  match mine_agreed name backends requests with
  | Error e ->
      prerr_endline ("policyminer: " ^ e);
      1
  | Ok (_, mined) ->
      if write then begin
        write_file path (snapshot_string name mined);
        Printf.printf "snapshot -> %s\n" path;
        0
      end
      else (
        match read_snapshot path with
        | Error e ->
            prerr_endline ("policyminer: " ^ e);
            1
        | Ok committed ->
            let problems =
              List.filter_map
                (fun (m : Miner.mined) ->
                  match List.assoc_opt m.Miner.enclosure committed with
                  | None ->
                      Some
                        (Printf.sprintf
                           "%s: not in the committed snapshot (new enclosure? \
                            regenerate with --write)"
                           m.Miner.enclosure)
                  | Some literal -> (
                      match Policy.parse literal with
                      | Error e ->
                          Some
                            (Printf.sprintf "%s: committed literal %S: %s"
                               m.Miner.enclosure literal e)
                      | Ok committed_policy ->
                          if
                            Miner.policy_leq ~fresh:m.Miner.policy
                              ~committed:committed_policy
                          then begin
                            (* Narrowing is not a failure — the program
                               shed a privilege; suggest tightening. *)
                            if
                              not
                                (Miner.policy_leq ~fresh:committed_policy
                                   ~committed:m.Miner.policy)
                            then
                              Printf.printf
                                "  note: %s narrowed (fresh [%s] < committed \
                                 [%s]) — consider regenerating the snapshot\n"
                                m.Miner.enclosure m.Miner.literal literal;
                            None
                          end
                          else
                            Some
                              (Printf.sprintf
                                 "%s WIDENED: fresh [%s] grants more than \
                                  committed [%s]"
                                 m.Miner.enclosure m.Miner.literal literal)))
                mined
            in
            (match problems with
            | [] ->
                Printf.printf "%s: no drift against %s\n" name path;
                0
            | ps ->
                List.iter (fun p -> prerr_endline ("policyminer: drift: " ^ p)) ps;
                1))

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let backends_arg =
  let parse = function
    | "all" -> Ok Encl_litterbox.Backend.all
    | s -> (
        match Encl_litterbox.Backend.of_string s with
        | Some b -> Ok [ b ]
        | None -> Error (`Msg ("unknown backend " ^ s)))
  in
  let print ppf bs =
    Format.pp_print_string ppf
      (String.concat "," (List.map Lb.backend_name bs))
  in
  Arg.(
    value
    & opt (conv (parse, print)) Encl_litterbox.Backend.all
    & info [ "backend" ] ~docv:"BACKEND" ~doc:"mpk, vtx, lwc, sfi or all.")

let scenario_arg =
  let parse s =
    if List.mem s mineable then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown scenario %s (choose from: %s)" s
             (String.concat ", " mineable)))
  in
  Arg.(
    required
    & pos 0 (some (conv (parse, Format.pp_print_string))) None
    & info [] ~docv:"SCENARIO")

let requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "requests" ] ~docv:"N" ~doc:"Workload size (scenario default if absent).")

let write_path_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write" ] ~docv:"FILE" ~doc:"Also write the snapshot JSON to FILE.")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:"Committed snapshot (default bench/policies/SCENARIO.json).")

let write_flag =
  Arg.(
    value & flag
    & info [ "write" ] ~doc:"Regenerate the snapshot instead of diffing.")

let mine_cmd =
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Run SCENARIO with the witness recorder on and print the minimal \
          policy literal per enclosure (validated, cross-backend agreed). \
          Fails if the event ring overflowed.")
    Term.(const mine $ scenario_arg $ backends_arg $ requests_arg $ write_path_arg)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Prove the mined policy sound (re-run enforcing it: zero faults) \
          and minimal (every one-rung narrowing faults).")
    Term.(const verify $ scenario_arg $ backends_arg $ requests_arg)

let drift_cmd =
  Cmd.v
    (Cmd.info "drift"
       ~doc:
         "Diff a fresh mine against the committed snapshot; fail on any \
          widening. --write regenerates the snapshot.")
    Term.(
      const drift $ scenario_arg $ backends_arg $ requests_arg $ snapshot_arg
      $ write_flag)

let () =
  let info =
    Cmd.info "policyminer" ~version:"1.0"
      ~doc:"Mine, verify and drift-gate least-privilege enclosure policies"
  in
  exit (Cmd.eval' (Cmd.group info [ mine_cmd; verify_cmd; drift_cmd ]))
