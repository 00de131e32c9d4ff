(** The program's package-dependence graph (paper §2.1).

    Nodes are package names; an edge [Foo -> Bar] means [Foo] imports
    [Bar]. The graph is statically determinable from import statements. A
    package's {e natural dependencies} are its direct and transitive
    dependencies; a package is {e foreign} to another when it is not among
    its natural dependencies. *)

type t

val create : unit -> t

val add_package : t -> string -> unit
(** Idempotent. *)

val add_import : t -> importer:string -> imported:string -> unit
(** Adds both nodes if needed. Self-imports are rejected with
    [Invalid_argument]. *)

val remove_package : t -> string -> unit
(** Remove the package and every import edge to or from it. *)

val remove_import : t -> importer:string -> imported:string -> unit

val packages : t -> string list
(** Sorted. *)

val mem : t -> string -> bool

val direct_deps : t -> string -> string list
(** Sorted direct dependencies; [] for unknown packages. *)

val natural_deps : t -> string -> string list
(** Sorted direct + transitive dependencies, excluding the package itself
    (the closure's own package is added separately by view computation). *)

val is_foreign : t -> of_:string -> string -> bool
(** [is_foreign t ~of_:foo bar]: [bar] is neither [foo] itself nor among
    [foo]'s natural dependencies. *)

val has_cycle : t -> string list option
(** [Some cycle] when an import cycle exists (the paper's languages — Go,
    Python module graphs — forbid or discourage them; the linker refuses
    them). *)

val topological_order : t -> (string list, string list) result
(** Dependencies first; [Error cycle] when cyclic. *)

val reverse_deps : t -> string -> string list
(** Packages that (directly) import the given one. *)

val to_dot : t -> string
(** Graphviz rendering of the dependence graph (Figure 1's top-right
    corner). *)
