(** The witness recorder: a default-off ledger attributing every
    boundary event to the responsible scope (enclosure name, or
    ["trusted"] for the runtime itself).

    Where the metrics sink answers "how much", the witness answers "who
    touched what": per-package memory access modes and ranges, syscall
    categories with call-site context and connect targets, and
    trusted-call / tainted-boundary crossings. The policy miner
    ([Litterbox.Miner]) folds a scope's witness into the minimal
    [with [Policies]] literal admitting exactly the observed behavior.

    Pure observer: recording charges no simulated time and never
    branches behavior, so a run with witnessing on is byte-identical
    (fault logs, syscall results, quarantine state) to the same run
    with it off. All query functions return keys sorted, so identical
    runs export byte-identical witness artifacts. *)

type t

type mode = R | W | X

type mem_counts = {
  mutable reads : int;
  mutable writes : int;
  mutable execs : int;
  mutable lo : int;  (** lowest touched address, [max_int] when empty *)
  mutable hi : int;  (** highest touched address, [min_int] when empty *)
}

type sys_counts = {
  mutable allowed : int;
  mutable denied : int;
  sites : (string, int) Hashtbl.t;  (** collapsed call-stack signature *)
  ips : (int, int) Hashtbl.t;  (** connect(2) targets *)
}

type scope

val default_enabled : bool ref
(** Consulted once, when a machine creates its sink. [policyminer] and
    [trace_dump] set this before booting a runtime; the library default
    is [false]. *)

val create : ?enabled:bool -> unit -> t
(** [enabled] defaults to [!default_enabled]. *)

val enabled : t -> bool
val reset : t -> unit

(** {2 Recording (no-ops while disabled)} *)

val touch : t -> scope:string -> pkg:string -> mode:mode -> addr:int -> unit
(** One memory access by [scope] to a page owned by [pkg]. Fed from the
    per-access checkpoint ([Cpu.check_page] via the litterbox access
    hook), so it covers every backend including SFI. *)

val syscall :
  t -> scope:string -> category:string -> site:string -> allowed:bool -> unit
(** One syscall attempt by [scope], attributed at submission: batched
    ring entries record the {e submitting} enclosure, not the drain
    point. [site] is the collapsed call-stack signature at the call. *)

val connect : t -> scope:string -> ip:int -> unit
(** A connect(2) target, recorded under the ["net"] category. *)

val trusted_call : t -> scope:string -> unit
(** A trusted-runtime excursion ([Lb.with_trusted]) from [scope]. *)

val tainted : t -> scope:string -> verified:bool -> unit
(** A [Tainted] boundary crossing observed in [scope]. *)

val transfer : t -> scope:string -> unit
(** An ownership transfer (rehoming) performed while [scope] ran. *)

(** {2 Queries (sorted, deterministic)} *)

val scope_names : t -> string list
val find_scope : t -> string -> scope option
val mem_of : scope -> (string * mem_counts) list
val sys_of : scope -> (string * sys_counts) list
val sites_of : sys_counts -> (string * int) list
val ips_of : sys_counts -> (int * int) list
val trusted_calls : scope -> int
val tainted_verified : scope -> int
val tainted_rejected : scope -> int
val transfers : scope -> int

val totals : t -> int * int
(** [(allowed, denied)] summed over every scope and category;
    [Runtime.audit] reconciles them, and {!category_total}, with the
    registry's verdict counters. *)

val category_total : t -> category:string -> int
(** Allowed calls in [category] summed over all scopes. *)

val mem_mode : mem_counts -> string
(** The minimal access rung (["R"], ["RW"], ["RWX"]) covering every
    recorded touch. *)
