module Sset = Set.Make (String)

type t = { imports : (string, Sset.t) Hashtbl.t }

let create () = { imports = Hashtbl.create 64 }

let add_package t name =
  if not (Hashtbl.mem t.imports name) then Hashtbl.replace t.imports name Sset.empty

let add_import t ~importer ~imported =
  if importer = imported then
    invalid_arg (Printf.sprintf "Graph: package %s cannot import itself" importer);
  add_package t importer;
  add_package t imported;
  let deps = Hashtbl.find t.imports importer in
  Hashtbl.replace t.imports importer (Sset.add imported deps)

let remove_package t name =
  Hashtbl.remove t.imports name;
  Hashtbl.filter_map_inplace (fun _ deps -> Some (Sset.remove name deps)) t.imports

let remove_import t ~importer ~imported =
  match Hashtbl.find_opt t.imports importer with
  | Some deps -> Hashtbl.replace t.imports importer (Sset.remove imported deps)
  | None -> ()

let packages t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.imports [] |> List.sort compare

let mem t name = Hashtbl.mem t.imports name

let direct_set t name =
  Option.value ~default:Sset.empty (Hashtbl.find_opt t.imports name)

let direct_deps t name = Sset.elements (direct_set t name)

let natural_set t name =
  let rec visit seen name =
    Sset.fold
      (fun dep seen ->
        if Sset.mem dep seen then seen else visit (Sset.add dep seen) dep)
      (direct_set t name) seen
  in
  visit Sset.empty name

let natural_deps t name = Sset.elements (natural_set t name)

let is_foreign t ~of_ name = name <> of_ && not (Sset.mem name (natural_set t of_))

(* Three-colour DFS for cycle detection and topological order. *)
let dfs t =
  let color = Hashtbl.create 64 in
  let order = ref [] in
  let cycle = ref None in
  let rec visit path name =
    match Hashtbl.find_opt color name with
    | Some `Black -> ()
    | Some `Grey ->
        if !cycle = None then begin
          let rec take acc = function
            | [] -> acc
            | n :: _ when n = name -> n :: acc
            | n :: rest -> take (n :: acc) rest
          in
          cycle := Some (take [] path)
        end
    | None | Some `White ->
        Hashtbl.replace color name `Grey;
        Sset.iter (visit (name :: path)) (direct_set t name);
        Hashtbl.replace color name `Black;
        order := name :: !order
  in
  List.iter (visit []) (packages t);
  (!cycle, List.rev !order)

let has_cycle t = fst (dfs t)

let topological_order t =
  match dfs t with
  | Some cycle, _ -> Error cycle
  | None, order -> Ok order

let reverse_deps t name =
  Hashtbl.fold
    (fun importer deps acc -> if Sset.mem name deps then importer :: acc else acc)
    t.imports []
  |> List.sort compare

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph packages {\n";
  List.iter
    (fun name ->
      Buffer.add_string buf (Printf.sprintf "  %S;\n" name);
      Sset.iter
        (fun dep -> Buffer.add_string buf (Printf.sprintf "  %S -> %S;\n" name dep))
        (direct_set t name))
    (packages t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
