(** The linked executable: placed sections, symbols, and the three
    LitterBox ELF sections (.pkgs, .rstrct, .verif) of paper §5.1 /
    Figure 4. *)

type placed_sym = {
  ps_name : string;
  ps_pkg : string;
  ps_addr : int;
  ps_size : int;
  ps_section : string;  (** name of the containing section *)
  ps_init : Bytes.t option;  (** initial contents copied at load time *)
}

type enclosure_desc = {
  ed_id : int;
  ed_owner : string;  (** declaring package *)
  ed_name : string;
  ed_policy : string;  (** opaque policy literal (frontend-validated) *)
  ed_closure : string;  (** closure function symbol *)
  ed_closure_addr : int;
  ed_direct_deps : string list;  (** owner's direct dependencies *)
}

type hook = Prolog | Epilog | Transfer | Execute

val hook_name : hook -> string

type verif_entry = { ve_site : string; ve_hook : hook }
(** An allowed call-site to the LitterBox API: symbolic site name (e.g.
    ["enclosure:rcl"] or ["runtime.mallocgc"]). *)

type t = {
  graph : Encl_pkg.Graph.t;
  sections : Section.t list;  (** ascending addresses *)
  symbols : placed_sym list;
  enclosures : enclosure_desc list;
  verif : verif_entry list;
  marked : string list;  (** packages appearing in at least one enclosure *)
  init_order : string list;  (** packages with init functions, deps first *)
  entry : string;  (** the main package *)
}

val find_symbol : t -> pkg:string -> string -> placed_sym option
val section_at : t -> int -> Section.t option
val enclosure_named : t -> string -> enclosure_desc option
val verif_allows : t -> site:string -> hook -> bool

val pp_layout : Format.formatter -> t -> unit
(** Figure-4-style rendering: ELF regions left to right with intra-section
    page-aligned symbol addresses and the LitterBox-generated sections. *)
