(* Shared test programs, chiefly the paper's Figure 1 scenario. *)

module Objfile = Encl_elf.Objfile
module Linker = Encl_elf.Linker
module Image = Encl_elf.Image
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine

(* The canonical backend list, re-exported so every test iterates the
   same one the harnesses do (adding a backend updates them all). *)
let all_backends = Encl_litterbox.Backend.all

(* Figure 1: main imports libFx, secrets, os; libFx imports img. The rcl
   enclosure wraps a closure in main whose only direct dependency is
   libFx; its policy extends the view with read-only access to secrets
   and forbids all system calls. *)
let figure1_objfiles () =
  let os =
    Objfile.make ~pkg:"os"
      ~functions:[ Objfile.sym "getenv" 64 ]
      ~globals:[ Objfile.sym "environ" 256 ]
      ()
  in
  let img =
    Objfile.make ~pkg:"img"
      ~functions:[ Objfile.sym "decode" 128; Objfile.sym "encode" 128 ]
      ~constants:[ Objfile.sym ~init:(Bytes.of_string "PNG!") "magic" 16 ]
      ()
  in
  let secrets =
    Objfile.make ~pkg:"secrets"
      ~functions:[ Objfile.sym "load" 64 ]
      ~globals:[ Objfile.sym ~init:(Bytes.of_string "original-image-bits") "original" 64 ]
      ()
  in
  let libfx =
    Objfile.make ~pkg:"libFx" ~imports:[ "img" ]
      ~functions:[ Objfile.sym "invert" 256; Objfile.sym "blur" 256 ]
      ()
  in
  let main =
    Objfile.make ~pkg:"main"
      ~imports:[ "libFx"; "secrets"; "os" ]
      ~functions:
        [
          Objfile.sym "main" 128;
          Objfile.sym "rcl_body" 64;
          Objfile.sym "io_body" 64;
        ]
      ~globals:[ Objfile.sym ~init:(Bytes.of_string "ssh-rsa-PRIVATE") "private_key" 64 ]
      ~enclosures:
        [
          {
            Objfile.enc_name = "rcl";
            enc_policy = "secrets:R; sys=none";
            enc_closure = "rcl_body";
            enc_deps = [ "libFx" ];
          };
          {
            Objfile.enc_name = "io_enc";
            enc_policy = "; sys=all";
            enc_closure = "io_body";
            enc_deps = [ "libFx" ];
          };
        ]
      ()
  in
  [ os; img; secrets; libfx; main ]

let figure1_image () =
  match Linker.link ~objfiles:(figure1_objfiles ()) ~entry:"main" with
  | Ok image -> image
  | Error e -> failwith (Linker.error_message e)

let boot backend =
  let machine = Machine.create () in
  let image = figure1_image () in
  match Lb.init ~machine ~backend ~image () with
  | Ok lb -> (machine, image, lb)
  | Error e -> failwith ("boot failed: " ^ e)

let sym_addr image ~pkg name =
  match Image.find_symbol image ~pkg name with
  | Some s -> s.Image.ps_addr
  | None -> failwith (Printf.sprintf "symbol %s.%s not found" pkg name)

(* Substring test for checking error and failure messages. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0
