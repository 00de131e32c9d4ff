(** The linker: assembles per-package code objects into an executable.

    Responsibilities (paper §5.1):
    - build the program's package-dependence graph and refuse import
      cycles or missing imports;
    - assign page-aligned addresses so that no two packages share a page
      (the layout assumption LitterBox verifies at run time);
    - isolate each enclosure closure function into its own text section;
    - mark packages that appear in at least one enclosure;
    - emit the [.pkgs], [.rstrct], and [.verif] sections consumed by
      LitterBox's [Init]. *)

type error =
  | Duplicate_package of string
  | Missing_import of { importer : string; missing : string }
  | Import_cycle of string list
  | Unknown_entry of string
  | Duplicate_enclosure of string

val error_message : error -> string

val heap_base : int
(** The heap lives above the text, rodata, data and meta regions. *)

val link : objfiles:Objfile.t list -> entry:string -> (Image.t, error) result
(** [entry] is the main package's name. Two synthetic packages,
    ["litterbox.user"] and ["litterbox.super"], are always appended
    (LitterBox's own code and data, §5.3). *)
