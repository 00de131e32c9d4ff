(* minigo-run: compile and run mini-Go source files under a LitterBox
   backend.

   Usage:
     dune exec bin/minigo_run.exe -- [--backend mpk|vtx|lwc|sfi|none] FILE...

   Each FILE holds one package; the program needs a main package with a
   main() function. See lib/minigo for the language (notably the
   paper's `with "policy" func() { ... }` enclosure expressions and
   `import pkg with "policy"` tags). *)

module Minigo = Encl_minigo.Minigo
module Runtime = Encl_golike.Runtime
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run backend files =
  let config =
    match backend with
    | None -> Runtime.baseline
    | Some b -> Runtime.with_backend b
  in
  let sources = List.map read_file files in
  match Minigo.build ~config ~sources () with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok t -> (
      match Minigo.run_main t with
      | Ok () ->
          print_string (Minigo.output t);
          0
      | Error e ->
          print_string (Minigo.output t);
          prerr_endline ("fault: " ^ e);
          2)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Source files.")

let cmd =
  Cmd.v
    (Cmd.info "minigo-run" ~version:"1.0"
       ~doc:"Run mini-Go programs with enclosures")
    Term.(const run $ Cli.backend_arg $ files_arg)

let () = exit (Cmd.eval' cmd)
