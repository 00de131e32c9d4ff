module Sysno = Encl_kernel.Sysno

type filter_atom = Cat of Sysno.category | Connect_to of int list

type sys_filter = Sys_none | Sys_all | Sys_atoms of filter_atom list

type t = { modifiers : (string * Types.access) list; filter : sys_filter }

let default = { modifiers = []; filter = Sys_none }

let parse_ip s =
  match Encl_kernel.Net.addr_of_string (String.trim s) with
  | ip -> Ok ip
  | exception Invalid_argument _ -> Error (Printf.sprintf "bad IP address %S" s)

let parse_atom tok =
  let tok = String.trim tok in
  if String.length tok > 8 && String.sub tok 0 8 = "connect(" then
    if tok.[String.length tok - 1] <> ')' then
      Error (Printf.sprintf "unterminated connect(...) in %S" tok)
    else begin
      let inner = String.sub tok 8 (String.length tok - 9) in
      let parts = String.split_on_char '|' inner in
      let rec collect acc = function
        | [] -> Ok (Connect_to (List.rev acc))
        | p :: rest -> (
            match parse_ip p with
            | Ok ip -> collect (ip :: acc) rest
            | Error e -> Error e)
      in
      if parts = [] || inner = "" then Error "empty connect(...) list"
      else collect [] parts
    end
  else
    match Sysno.category_of_name tok with
    | Some c -> Ok (Cat c)
    | None -> Error (Printf.sprintf "unknown system-call category %S" tok)

let parse_filter spec =
  match String.trim spec with
  | "none" -> Ok Sys_none
  | "all" -> Ok Sys_all
  | "" -> Error "empty system-call filter after 'sys='"
  | spec ->
      let rec collect acc = function
        | [] -> Ok (Sys_atoms (List.rev acc))
        | tok :: rest -> (
            match parse_atom tok with
            | Ok a -> collect (a :: acc) rest
            | Error e -> Error e)
      in
      collect [] (String.split_on_char ',' spec)

let parse_modifiers spec =
  let toks =
    String.split_on_char ' ' spec |> List.filter (fun s -> String.trim s <> "")
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match String.index_opt tok ':' with
        | None -> Error (Printf.sprintf "malformed memory modifier %S (expected pkg:RIGHT)" tok)
        | Some i -> (
            let pkg = String.sub tok 0 i in
            let right = String.sub tok (i + 1) (String.length tok - i - 1) in
            if pkg = "" then Error (Printf.sprintf "empty package name in %S" tok)
            else
              match Types.access_of_string right with
              | None -> Error (Printf.sprintf "unknown access right %S in %S" right tok)
              | Some a ->
                  if List.mem_assoc pkg acc then
                    Error (Printf.sprintf "duplicate modifier for package %s" pkg)
                  else collect ((pkg, a) :: acc) rest))
  in
  collect [] toks

let parse literal =
  let mem_part, sys_part =
    match String.index_opt literal ';' with
    | None -> (literal, None)
    | Some i ->
        ( String.sub literal 0 i,
          Some (String.sub literal (i + 1) (String.length literal - i - 1)) )
  in
  match parse_modifiers mem_part with
  | Error e -> Error e
  | Ok modifiers -> (
      match sys_part with
      | None -> Ok { modifiers; filter = Sys_none }
      | Some s -> (
          let s = String.trim s in
          let prefix = "sys=" in
          if String.length s < String.length prefix
             || String.sub s 0 (String.length prefix) <> prefix then
            Error (Printf.sprintf "expected 'sys=...' after ';', got %S" s)
          else
            match parse_filter (String.sub s 4 (String.length s - 4)) with
            | Ok f -> Ok { modifiers; filter = f }
            | Error e -> Error e))

let atom_to_string = function
  | Cat c -> Sysno.category_name c
  | Connect_to ips ->
      Printf.sprintf "connect(%s)"
        (String.concat "|" (List.map Encl_kernel.Net.string_of_addr ips))

let filter_to_string = function
  | Sys_none -> "none"
  | Sys_all -> "all"
  | Sys_atoms atoms -> String.concat "," (List.map atom_to_string atoms)

let to_string t =
  let mods =
    String.concat " "
      (List.map (fun (p, a) -> Printf.sprintf "%s:%s" p (Types.access_name a)) t.modifiers)
  in
  mods ^ "; sys=" ^ filter_to_string t.filter

let validate_packages t ~known =
  let rec check = function
    | [] -> Ok ()
    | (pkg, _) :: rest ->
        if known pkg then check rest
        else Error (Printf.sprintf "policy names unknown package %s" pkg)
  in
  check t.modifiers

(* A direct recursion rather than [List.exists] over a closure: every
   guest-side filter check on the syscall path runs it. *)
let rec atoms_allow_cat cat = function
  | [] -> false
  | Cat c :: _ when c = cat -> true
  | (Cat _ | Connect_to _) :: rest -> atoms_allow_cat cat rest

let filter_allows_cat f cat =
  match f with
  | Sys_none -> false
  | Sys_all -> true
  | Sys_atoms atoms -> atoms_allow_cat cat atoms

let filter_allows_connect f ~ip =
  match f with
  | Sys_none -> false
  | Sys_all -> true
  | Sys_atoms atoms ->
      (* A connect(...) list overrides the net category for connect(2):
         "extend the sysfilter categories to only allow connect system
         calls to a list of pre-defined IP addresses" (paper §6.5). *)
      let lists =
        List.filter_map
          (function Connect_to ips -> Some ips | Cat _ -> None)
          atoms
      in
      if lists <> [] then List.exists (fun ips -> List.mem ip ips) lists
      else
        List.exists
          (function Cat c -> c = Sysno.Cat_net | Connect_to _ -> false)
          atoms

(* f <= g: every call f permits, g permits too. *)
let filter_leq f g =
  match (f, g) with
  | Sys_none, _ -> true
  | _, Sys_all -> true
  | Sys_all, (Sys_none | Sys_atoms _) -> false
  | Sys_atoms atoms, _ ->
      let has_list =
        List.exists (function Connect_to _ -> true | Cat _ -> false) atoms
      in
      let unrestricted_connect =
        (not has_list)
        && List.exists (function Cat c -> c = Sysno.Cat_net | Connect_to _ -> false) atoms
      in
      List.for_all
        (function
          | Cat c -> filter_allows_cat g c
          | Connect_to ips -> List.for_all (fun ip -> filter_allows_connect g ~ip) ips)
        atoms
      (* [f] permitting connect to arbitrary addresses requires the same
         of [g]; probe with an address no list can contain. *)
      && (not unrestricted_connect || filter_allows_connect g ~ip:(-1))

let pp ppf t = Format.pp_print_string ppf (to_string t)
