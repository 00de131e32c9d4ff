type placed_sym = {
  ps_name : string;
  ps_pkg : string;
  ps_addr : int;
  ps_size : int;
  ps_section : string;
  ps_init : Bytes.t option;
}

type enclosure_desc = {
  ed_id : int;
  ed_owner : string;
  ed_name : string;
  ed_policy : string;
  ed_closure : string;
  ed_closure_addr : int;
  ed_direct_deps : string list;
}

type hook = Prolog | Epilog | Transfer | Execute

let hook_name = function
  | Prolog -> "prolog"
  | Epilog -> "epilog"
  | Transfer -> "transfer"
  | Execute -> "execute"

type verif_entry = { ve_site : string; ve_hook : hook }

type t = {
  graph : Encl_pkg.Graph.t;
  sections : Section.t list;
  symbols : placed_sym list;
  enclosures : enclosure_desc list;
  verif : verif_entry list;
  marked : string list;
  init_order : string list;
  entry : string;
}

let find_symbol t ~pkg name =
  List.find_opt (fun s -> s.ps_pkg = pkg && s.ps_name = name) t.symbols

let section_at t addr = List.find_opt (fun s -> Section.contains s addr) t.sections
let enclosure_named t name = List.find_opt (fun e -> e.ed_name = name) t.enclosures

let verif_allows t ~site hook =
  List.exists (fun v -> v.ve_site = site && v.ve_hook = hook) t.verif

let pp_layout ppf t =
  let by_kind kinds =
    List.filter (fun (s : Section.t) -> List.mem s.kind kinds) t.sections
  in
  let region title kinds =
    Format.fprintf ppf "@,@[<v 2>%s:" title;
    List.iter (fun s -> Format.fprintf ppf "@,%a" Section.pp s) (by_kind kinds);
    Format.fprintf ppf "@]"
  in
  Format.fprintf ppf "@[<v>executable layout (entry: %s)" t.entry;
  region ".text (RX)" [ Section.Text ];
  region ".rodata (R)" [ Section.Rodata ];
  region ".data (RW)" [ Section.Data; Section.Arena ];
  region "LitterBox sections" [ Section.Pkgs; Section.Rstrct; Section.Verif ];
  Format.fprintf ppf "@,marked packages: %s"
    (if t.marked = [] then "(none)" else String.concat ", " t.marked);
  Format.fprintf ppf "@,enclosures:";
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  #%d %s.%s closure=%s@%#x policy=%S" e.ed_id
        e.ed_owner e.ed_name e.ed_closure e.ed_closure_addr e.ed_policy)
    t.enclosures;
  Format.fprintf ppf "@]"
