(** The A/B runner: one scenario under two configurations that must
    enforce identically, and the metrics that must move between them.
    Every claim has this shape, so each is one {!run} call: an entry of
    the bench's claim list (which CI runs), a test, or a [profile ab]
    line tried by hand. Both sides run with observability on, which
    costs zero simulated time, and each must pass
    {!Encl_golike.Runtime.audit}. *)

type axis =
  | Knob of Knob.t  (** A = the knob on, B = off *)
  | Backends of Scenarios.config * Scenarios.config  (** A, B *)
  | Cores of int * int  (** A, B core counts *)

val parse_axis : string -> (axis, string) result
(** [knob:NAME], [backend:X,Y] or [cores:N,M]. *)

type side = {
  label : string;  (** backend and axis value, e.g. ["LB_VTX sysring=on"] *)
  rt : Encl_golike.Runtime.t;
  report : Scenarios.report;
}

val metric : side -> string -> float option
(** The scenario's own metric, else one derived from the run: [vm_exits],
    [batch_avg] (ring entries per drain), [crossings] (workload syscalls
    that trapped on their own, plus ring drains), [bytes_copied],
    [elided_switches], [hit_rate] (seccomp verdict cache),
    [switch_share] (Prolog + Epilog attributed ns over elapsed ns),
    [enforcement_share] (plus Seccomp), [switch_ns] and [access_ns]
    (clock categories), [steal_count], [affinity_hit_rate]. *)

type t = { a : side; b : side; failures : string list }

val run :
  ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> ?expect:string list ->
  scenario:string * Scenarios.runner -> backend:Scenarios.config -> axis ->
  (t, string) result
(** Run side A, then side B, and check them. An expectation is data:
    [M:higher] requires A > B and [M:higher:R] requires A >= R·B for
    metric [M], [lower] is the mirror image, and a NaN fails. [rcfg] is
    the base runtime configuration (cost model, core count); each side
    overrides its backend and, on a [Cores] axis, its core count.
    [backend] is unused on a [Backends] axis. [Error] on a malformed
    expectation or when a side cannot run. [failures] (empty when all
    hold) names the scenario and the sides: a line of either side's
    {!Encl_golike.Runtime.audit}, the first line where the
    {!Scenarios.enforcement} summaries differ, or a failed expectation
    with both values and their ratio. *)

val render : string -> t -> string list -> string
(** [render scenario t names]: a line naming both sides, then one line
    per metric or expectation in [names] with its value on each side
    ([?] where the metric is unknown). *)
