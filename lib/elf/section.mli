(** Sections: contiguous page-aligned virtual memory regions.

    "A section is a contiguous, page-aligned virtual memory region in the
    program's address space. Its start address, size, and default access
    rights characterize it." (paper §4.1) *)

type kind =
  | Text  (** functions; RX *)
  | Rodata  (** constants; R *)
  | Data  (** mutable globals; RW *)
  | Arena  (** package heap; RW, dynamically extended *)
  | Rstrct  (** enclosure configurations (linker-emitted) *)
  | Pkgs  (** package descriptions for LitterBox Init *)
  | Verif  (** allowed call-sites to the LitterBox API *)

val kind_name : kind -> string

val default_perms : kind -> Pte.perms
(** RX for text, R for rodata/rstrct/pkgs/verif, RW for data/arena. *)

type t = {
  name : string;
      (** e.g. ["img.text"] or ["libFx.rcl.text"]; a label for messages
          and dumps, never a key. The arena section a transfer makes
          for a range is named after its new owner, so several may share
          one name. *)
  owner : string;  (** owning package *)
  kind : kind;
  addr : int;  (** page-aligned start *)
  size : int;  (** bytes; the region occupies whole pages *)
}

val make : name:string -> owner:string -> kind:kind -> addr:int -> size:int -> t
(** Validates page alignment of [addr]. *)

val pages : t -> int
val end_addr : t -> int
(** First address past the section's page span. *)

val contains : t -> int -> bool
val overlaps : t -> t -> bool
val pp : Format.formatter -> t -> unit
