(** The CPython-like frontend (paper §5.2, evaluated in §6.4).

    Modelled CPython specifics:
    - {b lazy imports}: modules are registered with LitterBox as they are
      imported — multiple [Init] calls, each with partial knowledge;
      LitterBox, not the compiler, computes transitive dependencies;
    - {b per-module allocators}: a multi-segmented heap assigns each
      module its own arenas, with functions (code) and objects (data)
      segregated so a module mapped without execute rights still exposes
      its data;
    - {b co-located metadata}: every object carries its reference count
      and the generational-GC link in its header. In [Conservative] mode,
      touching the metadata of an object that is read-only in the current
      enclosure performs a controlled switch to the trusted environment
      and back — the §6.4 cost driver. [Decoupled] mode simulates the
      proposed fix (metadata moved out of the protected pages): no
      switches;
    - {b localcopy}: an explicit deep copy of an object into the calling
      module's arena (the paper's answer to Python's lack of explicit
      allocation control). *)

type refcount_mode = Conservative | Decoupled

type t

val boot :
  ?backend:Encl_litterbox.Litterbox.backend ->
  ?gc_threshold:int ->
  mode:refcount_mode ->
  unit ->
  (t, string) result
(** Create the interpreter with an initially empty module set (only
    [__main__]). [backend = None] is unmodified CPython.
    [gc_threshold], when given, enables CPython-style automatic minor
    collections every that-many allocations (generation 0); by default
    collections are explicit. *)

val machine : t -> Encl_litterbox.Machine.t
val lb : t -> Encl_litterbox.Litterbox.t option
val mode : t -> refcount_mode

val import_module :
  t ->
  name:string ->
  ?imports:string list ->
  ?arena_bytes:int ->
  ?body:(t -> unit) ->
  unit ->
  (unit, string) result
(** Lazy import: allocate the module's code and object arenas, register
    it (and its direct dependencies) with LitterBox, then run the module
    body. Importing an already-imported module is a cheap no-op. *)

val is_imported : t -> string -> bool
val modules : t -> string list

(** {2 Objects} *)

type modul
(** An imported module's runtime record. *)

val module_name : modul -> string

type pyobj = {
  mutable o_addr : int;
  mutable o_module : modul;
  o_len : int;
  mutable o_cow : cow option;
}
(** Header: 8 bytes of refcount, 8 bytes of GC link; payload follows.
    [o_cow = Some _] marks an elided {!localcopy} share: the handle
    aliases the source span until a write to either side materializes
    the deferred private copy, at which point [o_addr]/[o_module]
    re-point at it in place. *)

and cow = { cow_src : pyobj; cow_dst : string }

val header_bytes : int

val alloc_obj : t -> modul:string -> len:int -> pyobj
(** Allocate in the module's object arena with refcount 1, GC-tracked. *)

val incref : t -> pyobj -> unit
val decref : t -> pyobj -> unit
val refcount : t -> pyobj -> int
(** In [Conservative] mode trusted code touches the header directly.
    Inside an enclosure, the module's access is memoized per installed
    view (by the view's physical identity, so a registration or a lazy
    import invalidates it by construction), and a header the enclosure
    may not write (or, for {!refcount}, read) is reached through one
    trusted excursion, which allocates nothing. *)

val write_payload : t -> pyobj -> Bytes.t -> unit
val read_payload : t -> pyobj -> Bytes.t

val localcopy : t -> pyobj -> dst_module:string -> pyobj
(** Deep copy into another module's arena (like [copy.deepcopy] but with
    an explicit destination). With {!Encl_sim.Zerocopy} enabled and the
    source module readable ([R]) in the current enclosure's view, the
    copy is elided: the call returns a refcounted copy-on-write share of
    the source object and bumps {!copy_elided_count}. The first
    {!write_payload} through the share — or to the shared source —
    materializes the private copy the flag-off path would have made
    eagerly (counted by {!cow_materialized_count}), so observable
    semantics are identical under both flag settings; the flag moves
    only the cost of copies that never needed to exist. *)

val collect : t -> int
(** A full (major) collection over both generations; frees objects with
    refcount 0, promotes young survivors, and returns how many were
    freed. Runs with trusted access to the GC lists. *)

val collect_minor : t -> int
(** Scan only the young generation: dead objects are freed, survivors
    are promoted to the old generation (CPython's generational
    heuristic). *)

val live_objects : t -> int
val young_objects : t -> int
val old_objects : t -> int
val collections : t -> int
(** Total collector passes (including automatic ones). *)

(** {2 Enclosures} *)

val with_enclosure :
  t ->
  name:string ->
  owner:string ->
  deps:string list ->
  policy:string ->
  (unit -> 'a) ->
  ('a, string) result
(** Declare (first use registers with LitterBox — another partial Init)
    and immediately call an enclosure. Without a backend this is a
    vanilla call. *)

val trusted_switches : t -> int
(** Environment switches performed for metadata updates so far (each
    controlled excursion to the trusted environment counts twice: in and
    out, as the paper counts them): twice the registry's
    ["refcount_excursion"] plus ["gc_excursion"] totals. *)

val copy_elided_count : t -> int
(** [localcopy] calls satisfied by a copy-on-write share instead of an
    eager deep copy: the registry's ["copy_elided"] total. *)

val cow_materialized_count : t -> int
(** Elided shares that a later write turned into the deferred deep copy
    (the registry's ["cow_materialized"] total). *)
