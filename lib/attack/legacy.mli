(** The legacy §6.5 attack suite: re-creations of the malicious
    packages of paper §6.5.

    Each attack is a Go-like package offering legitimate functionality
    with malicious code folded in (as in the PyPI/npm incidents the paper
    cites). The harness runs the legitimate entry point inside an
    enclosure and reports whether the attack was contained and whether
    the legitimate behaviour survived.

    Attacks:
    - [ssh_decorator]: SSHes to a host and runs commands — and exfiltrates
      the credentials to an attacker server via a POST (CVE-style clone of
      the backdoored [ssh-decorator] package);
    - [key_stealer]: reads SSH/GPG keys from the local filesystem and
      sends them out (the [python3-dateutil]/[jeIlyfish] clones);
    - [backdoor]: opens a listener on a high port (npm RAT installs);
    - [memory_snoop]: a django-like template helper that reads the
      application's in-memory secrets directly. *)

val attacker_ip : int
val ssh_host_ip : int

type outcome = {
  legit_ok : bool;  (** the advertised functionality worked *)
  attack_blocked : bool;  (** the malicious behaviour faulted / failed *)
  exfiltrated : int;  (** bytes that reached the attacker's server *)
  detail : string;
}

val pp_outcome : Format.formatter -> outcome -> unit

type attack = Ssh_decorator | Key_stealer | Backdoor | Memory_snoop

val all_attacks : attack list
val attack_name : attack -> string

type mitigation =
  | Unprotected  (** no enclosure: the paper's status quo *)
  | Default_policy  (** default view, no system calls *)
  | Preallocated_socket
      (** §6.5 mitigation 1: pass an open socket and the key in;
          allow only [io] calls *)
  | Connect_list
      (** §6.5 mitigation 2: allow [net] but [connect] only to the
          pre-defined SSH host *)

val all_mitigations : mitigation list
val mitigation_name : mitigation -> string

val run :
  backend:Encl_litterbox.Litterbox.backend option ->
  attack ->
  mitigation ->
  outcome
(** Build a fresh program embedding the malicious package, apply the
    mitigation, run the legitimate entry point, and observe. *)

val run_with :
  backend:Encl_litterbox.Litterbox.backend option ->
  attack ->
  mitigation ->
  outcome * Encl_golike.Runtime.t
(** {!run}, additionally returning the runtime it booted so the corpus
    wrapper can cross-check machine counters. *)
