(** The scored attack corpus.

    Each entry is an enclosure workload that actively tries to escape its
    confinement, modelled on the gate-bypass taxonomy of Garmr (forged
    privilege raises, unscanned gates, non-gate syscall origins) plus the
    confused-deputy and stale-state classes that the simulator's own
    mechanisms (syscall ring, verdict cache, quarantine, scheduler)
    introduce. Attacks are paired with the {!Defense} flag that contains
    them, so a harness can prove each defense is load-bearing: disable the
    flag and the paired attack demonstrably escapes on its demo backend. *)

type outcome = {
  contained : bool;
      (** the malicious step faulted, was killed, or was quarantined *)
  exfiltrated : int;  (** bytes that reached the attacker's server *)
  legit_ok : bool;  (** the benign control operation still worked *)
  detail : string;  (** human-readable evidence string *)
}

type run_result = {
  outcome : outcome;
  machine : Encl_litterbox.Machine.t;
  lb : Encl_litterbox.Litterbox.t;
}

type t = {
  name : string;
  description : string;
  taxonomy : string;  (** Garmr-style attack class *)
  defense : Defense.t option;
      (** the paired defense; [None] for the policy-only legacy suite *)
  demo_backend : Encl_litterbox.Backend.t;
      (** backend on which disabling the paired defense escapes *)
  severity : int;  (** 1..3 weight in the containment score *)
  run : backend:Encl_litterbox.Backend.t -> seed:int -> run_result;
}

val all : t list
(** The full corpus: nine gate/mechanism attacks plus the four legacy
    paper-§6.5 attacks under the default policy. *)

val find : string -> t option
val paired_with : Defense.t -> t list

val containment_score : (t * outcome) list -> float
(** Severity-weighted containment percentage in [0, 100]; higher is
    better. 100.0 for the empty list. *)
