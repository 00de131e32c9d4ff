(* Command-line pieces shared by the tools in bin/. *)

open Cmdliner

(* A "baseline or backend" argument, parsed by the one parser in
   Encl_litterbox.Backend. *)
let backend_arg =
  let module Backend = Encl_litterbox.Backend in
  let parse s =
    Result.map_error (fun e -> `Msg e) (Backend.config_of_string s)
  in
  let print ppf c = Format.pp_print_string ppf (Backend.config_arg_name c) in
  Arg.(
    value
    & opt (conv (parse, print)) (Some Backend.Mpk)
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"baseline (or none), mpk, vtx, lwc or sfi.")

let requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "requests" ] ~docv:"N"
        ~doc:"Request count for the HTTP-style scenarios.")

(* Write [contents] to [path], creating missing parent directories. *)
let write_file path contents =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)
