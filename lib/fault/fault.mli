(** Deterministic fault injection (the chaos harness).

    Components of the simulated machine declare {e hook points} — named
    program points where a failure could plausibly occur (a spurious page
    fault in the MMU, a transient [EINTR] in the kernel, a dropped
    connection in the network). A test or the chaos driver {e arms} a
    subset of those points with rules; each consultation of an armed
    point draws from a per-point splitmix64 stream derived from the plan
    seed, so the full fault sequence is a pure function of
    [(seed, rules, workload)] and CI can replay any failure byte for
    byte.

    The injector is a leaf: it knows nothing about the CPU, kernel or
    observability sink. Consumers attach themselves via {!on_fire}. *)

type t

type rule = {
  r_point : string;  (** hook point the rule arms *)
  r_prob : float;  (** firing probability per (matching) consultation *)
  r_max_fires : int option;  (** stop firing after this many, if given *)
  r_env_prefix : string option;
      (** only fire when the consulting environment label starts with
          this prefix (e.g. ["enc:"] to target enclosure code only) *)
}

val valid_prob : float -> bool
(** [0 <= p <= 1]; false for NaN. The one range check of every firing
    probability, in {!rule} and {!parse_plan} alike. *)

val rule : ?prob:float -> ?max_fires:int -> ?env_prefix:string -> string -> rule
(** [rule point] is a rule for [point]; [prob] defaults to [1.0].
    [Invalid_argument] unless {!valid_prob} [prob]. *)

val create : ?seed:int64 -> unit -> t
(** A fresh injector with no armed rules. Consulting an unarmed point is
    a single hash lookup, so leaving an injector attached costs nothing
    measurable when no plan is armed. *)

val set_seed : t -> int64 -> unit
(** Reset the injector to a pristine state under [seed]: clears fire and
    consultation counts, the fire log, and every per-point stream (armed
    rules and registrations are kept). *)

(** {2 Hook points} *)

val register : t -> point:string -> doc:string -> unit
(** Components declare their hook points at attach time so plans can be
    validated against what actually exists. *)

val points : t -> (string * string) list
(** Registered [(point, doc)] pairs, sorted by point name. *)

(** {2 Plans} *)

val arm : t -> rule -> unit
(** Arm (or replace) the rule for [rule.r_point]. *)

val arm_plan : t -> rule list -> unit
val disarm : t -> string -> unit
val disarm_all : t -> unit

val active : t -> bool
(** Whether any rule is armed — the hot-path guard. *)

val parse_plan : string -> (rule list, string) result
(** Parse a compact plan spec:
    [point:prob[:max=N][:env=PREFIX](,point:prob...)*] — e.g.
    ["cpu.spurious_fault:0.1:env=enc:,net.conn_drop:0.02"]. A trailing
    [env=] value may itself contain [':'] only as its final character
    (the ["enc:"] convention). *)

(** {2 Consultation} *)

val fires : t -> ?env:string -> string -> bool
(** [fires t ~env point] consults [point] under environment label [env]
    (default [""]). Returns [true] when the armed rule matches and its
    stream draws under the rule's probability; records the firing. *)

val fired : t -> string -> int
(** How many times [point] has fired. *)

val consulted : t -> string -> int
(** How many times [point] was consulted with a matching environment. *)

val total_fired : t -> int

val log : t -> (string * string) list
(** Chronological [(point, env)] firing log. *)

val on_fire : t -> (point:string -> env:string -> unit) -> unit
(** Attach a notification callback (e.g. the observability sink). The
    callback runs on every firing, after the counters are updated. *)
