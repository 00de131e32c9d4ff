(* attacks: run the scored attack corpus and print the per-backend
   containment matrix.

   Usage:
     dune exec bin/attacks.exe -- run
     dune exec bin/attacks.exe -- run --backend mpk,vtx --seed 7 --json out.json
     dune exec bin/attacks.exe -- run --disable gate-integrity
     dune exec bin/attacks.exe -- prove-defenses
     dune exec bin/attacks.exe -- legacy --backend vtx
     dune exec bin/attacks.exe -- list

   [run] exits non-zero if any attack escapes, so CI can gate on it;
   [prove-defenses] exits non-zero if any defense is *not* load-bearing
   (i.e. its paired attack stays contained even with the defense off). *)

module Attack = Encl_attack.Attack
module Legacy = Encl_attack.Legacy
module Backend = Encl_litterbox.Backend
module Json = Encl_obs.Export.Json
open Cmdliner

let clip n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…"

(* --backend accepts a comma-separated list of short names (or "all");
   unknown names are an error, not a silent skip. *)
let backends_conv =
  let parse s =
    if String.lowercase_ascii s = "all" then Ok Backend.all
    else
      let names = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match Backend.of_string (String.trim n) with
            | Some b -> go (b :: acc) rest
            | None ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "unknown backend %S (expected mpk, vtx, lwc, sfi or \
                        all)"
                       n)))
      in
      go [] names
  in
  let print ppf bs =
    Format.fprintf ppf "%s" (String.concat "," (List.map Backend.arg_name bs))
  in
  Arg.conv (parse, print)

let backends_arg =
  Arg.(
    value
    & opt backends_conv Backend.all
    & info [ "backend" ] ~docv:"LIST"
        ~doc:"Comma-separated backends to run (default: all four).")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"Seed for attack parameterization.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the machine-readable result matrix to $(docv).")

let defense_conv =
  let parse s =
    match Defense.of_string s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown defense %S (one of: %s)" s
               (String.concat ", " (List.map Defense.name Defense.all))))
  in
  Arg.conv (parse, fun ppf d -> Format.fprintf ppf "%s" (Defense.name d))

let disable_arg =
  Arg.(
    value
    & opt_all defense_conv []
    & info [ "disable" ] ~docv:"DEFENSE"
        ~doc:
          "Run with $(docv) switched off (repeatable) — to watch the paired \
           attack escape.")

let with_disabled_all ds f =
  List.fold_left (fun k d () -> Defense.with_disabled d k) f ds ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let outcome_json (a : Attack.t) (o : Attack.outcome) =
  Json.Obj
    [
      ("name", Json.String a.Attack.name);
      ("taxonomy", Json.String a.Attack.taxonomy);
      ( "defense",
        match a.Attack.defense with
        | Some d -> Json.String (Defense.name d)
        | None -> Json.Null );
      ("severity", Json.Int a.Attack.severity);
      ("contained", Json.Bool o.Attack.contained);
      ("exfiltrated", Json.Int o.Attack.exfiltrated);
      ("legit_ok", Json.Bool o.Attack.legit_ok);
      ("detail", Json.String o.Attack.detail);
    ]

let run_corpus backends seed disabled json_out =
  let per_backend =
    with_disabled_all disabled (fun () ->
        List.map
          (fun b ->
            let results =
              List.map
                (fun (a : Attack.t) ->
                  let r = a.Attack.run ~backend:b ~seed in
                  (a, r.Attack.outcome))
                Attack.all
            in
            (b, results, Attack.containment_score results))
          backends)
  in
  (* Matrix: one row per attack, one column per backend. *)
  Printf.printf "%-22s %-18s sev  %s\n" "attack" "taxonomy"
    (String.concat "  "
       (List.map (fun b -> Printf.sprintf "%-9s" (Backend.arg_name b)) backends));
  List.iteri
    (fun i (a : Attack.t) ->
      let cells =
        List.map
          (fun (_, results, _) ->
            let _, o = List.nth results i in
            Printf.sprintf "%-9s"
              (if o.Attack.contained then "contained" else "ESCAPED"))
          per_backend
      in
      Printf.printf "%-22s %-18s  %d   %s\n" a.Attack.name a.Attack.taxonomy
        a.Attack.severity (String.concat "  " cells))
    Attack.all;
  print_newline ();
  List.iter
    (fun (b, results, score) ->
      let escapes =
        List.filter (fun (_, o) -> not o.Attack.contained) results
      in
      Printf.printf "%s: containment score %.1f/100 (%d/%d contained)\n"
        (Backend.name b)
        score
        (List.length results - List.length escapes)
        (List.length results);
      List.iter
        (fun ((a : Attack.t), o) ->
          Printf.printf "  ESCAPE %-22s %s\n" a.Attack.name
            (clip 70 o.Attack.detail))
        escapes)
    per_backend;
  (if disabled <> [] then
     Printf.printf "\n(defenses off: %s)\n"
       (String.concat ", " (List.map Defense.name disabled)));
  let escaped_total =
    List.fold_left
      (fun acc (_, results, _) ->
        acc + List.length (List.filter (fun (_, o) -> not o.Attack.contained) results))
      0 per_backend
  in
  (match json_out with
  | None -> ()
  | Some path ->
      let runs = List.length backends * List.length Attack.all in
      let json =
        Json.Obj
          [
            ("seed", Json.Int seed);
            ( "defenses_off",
              Json.List
                (List.map (fun d -> Json.String (Defense.name d)) disabled) );
            ("contained_total", Json.Int (runs - escaped_total));
            ("escaped_total", Json.Int escaped_total);
            ( "backends",
              Json.List
                (List.map
                   (fun (b, results, score) ->
                     Json.Obj
                       [
                         ("backend", Json.String (Backend.arg_name b));
                         ("containment_score", Json.Float score);
                         ( "attacks",
                           Json.List
                             (List.map
                                (fun (a, o) -> outcome_json a o)
                                results) );
                       ])
                   per_backend) );
          ]
      in
      Cli.write_file path (Json.to_string json);
      Printf.printf "\nwrote %s\n" path);
  if escaped_total > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* prove-defenses: every paired defense must be load-bearing.          *)

let prove_defenses seed =
  Printf.printf "%-18s %-22s %-4s %-12s %-12s %s\n" "defense" "attack" "bck"
    "defense on" "defense off" "verdict";
  let failures = ref 0 in
  List.iter
    (fun d ->
      List.iter
        (fun (a : Attack.t) ->
          let b = a.Attack.demo_backend in
          let on = (a.Attack.run ~backend:b ~seed).Attack.outcome in
          let off =
            Defense.with_disabled d (fun () ->
                (a.Attack.run ~backend:b ~seed).Attack.outcome)
          in
          let load_bearing =
            on.Attack.contained && not off.Attack.contained
          in
          if not load_bearing then incr failures;
          Printf.printf "%-18s %-22s %-4s %-12s %-12s %s\n" (Defense.name d)
            a.Attack.name (Backend.arg_name b)
            (if on.Attack.contained then "contained" else "ESCAPED")
            (if off.Attack.contained then "contained" else "escaped")
            (if load_bearing then "load-bearing" else "NOT LOAD-BEARING"))
        (Attack.paired_with d))
    Defense.all;
  if !failures > 0 then begin
    Printf.printf "\n%d defense(s) not load-bearing\n" !failures;
    1
  end
  else begin
    Printf.printf
      "\nall defenses load-bearing: each contains its paired attack, and \
       disabling it lets that attack escape\n";
    0
  end

(* ------------------------------------------------------------------ *)
(* legacy: the original §6.5 attack × mitigation matrix.               *)

let legacy backends =
  List.iter
    (fun backend ->
      Printf.printf "legacy §6.5 suite under %s\n\n" (Backend.name backend);
      Printf.printf "%-14s %-20s %-6s %-8s %-6s %s\n" "attack" "mitigation"
        "legit" "blocked" "exfil" "detail";
      List.iter
        (fun attack ->
          List.iter
            (fun mitigation ->
              let backend =
                match mitigation with
                | Legacy.Unprotected -> None
                | _ -> Some backend
              in
              let o = Legacy.run ~backend attack mitigation in
              Printf.printf "%-14s %-20s %-6b %-8b %-6d %s\n%!"
                (Legacy.attack_name attack)
                (Legacy.mitigation_name mitigation)
                o.Legacy.legit_ok o.Legacy.attack_blocked o.Legacy.exfiltrated
                (clip 48 o.Legacy.detail))
            Legacy.all_mitigations;
          print_newline ())
        Legacy.all_attacks)
    backends;
  0

(* ------------------------------------------------------------------ *)
(* list                                                                *)

let list_corpus () =
  Printf.printf "%-22s sev  %-18s %-18s %s\n" "attack" "taxonomy" "defense"
    "description";
  List.iter
    (fun (a : Attack.t) ->
      Printf.printf "%-22s  %d   %-18s %-18s %s\n" a.Attack.name
        a.Attack.severity a.Attack.taxonomy
        (match a.Attack.defense with
        | Some d -> Defense.name d
        | None -> "(policy)")
        (clip 60 a.Attack.description))
    Attack.all;
  0

(* ------------------------------------------------------------------ *)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run every corpus attack on every selected backend and print the \
          containment matrix.")
    Term.(const run_corpus $ backends_arg $ seed_arg $ disable_arg $ json_arg)

let prove_cmd =
  Cmd.v
    (Cmd.info "prove-defenses"
       ~doc:
         "For each defense, show its paired attack contained with the \
          defense on and escaping with it off.")
    Term.(const prove_defenses $ seed_arg)

let legacy_cmd =
  Cmd.v
    (Cmd.info "legacy" ~doc:"The original §6.5 attack × mitigation matrix.")
    Term.(const legacy $ backends_arg)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the corpus with taxonomy and pairing.")
    Term.(const list_corpus $ const ())

let () =
  let info =
    Cmd.info "attacks" ~version:"1.0"
      ~doc:"Scored attack corpus for the enclosure simulator."
  in
  exit (Cmd.eval' (Cmd.group ~default:Term.(const (fun () -> list_corpus ()) $ const ()) info
                     [ run_cmd; prove_cmd; legacy_cmd; list_cmd ]))
