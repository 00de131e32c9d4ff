(** The enclosure programming-language construct (paper §2).

    [with \[Policies\] func (args) resultType { body }] is modelled as
    {!declare}: it returns a closure permanently associated with a memory
    view and system-call filter; the restrictions are enforced on every
    execution of the closure and are dynamically scoped — they apply to
    everything the closure invokes, including nested enclosures (which may
    only restrict further). *)

type 'r t
(** A declared enclosure producing results of type ['r]. *)

val declare :
  Encl_litterbox.Litterbox.t ->
  name:string ->
  (unit -> 'r) ->
  'r t
(** Bind the closure to the (already linked/registered) enclosure [name].
    The closure may be called any number of times; each call pays the
    baseline closure-call cost plus the backend's switch costs. *)

val declare_dynamic :
  Encl_litterbox.Litterbox.t ->
  name:string ->
  owner:string ->
  deps:string list ->
  policy:string ->
  (unit -> 'r) ->
  ('r t, string) result
(** Dynamic-language path: validate the policy literal, register the
    enclosure with LitterBox ([Init] is called again, paper §5.2), and
    bind the closure. *)

val call : 'r t -> 'r
(** Execute the closure inside its restrictive environment. Raises
    {!Encl_litterbox.Litterbox.Fault} (or {!Cpu.Fault}) on a violation;
    the environment is restored before the exception propagates. The
    handle made at {!declare} is resolved on the first call, and again
    after any registration; later calls from the same enclosing stack
    allocate nothing. *)

val handle : name:string -> Encl_litterbox.Litterbox.handle
(** The switch target of enclosure [name] called from its own closure
    site, ["enclosure:"] followed by the name. *)

val run : Encl_litterbox.Litterbox.t -> Encl_litterbox.Litterbox.handle -> (unit -> 'r) -> 'r
(** [run lb h body]: one call of [body] inside [h]'s enclosure, as
    {!call} makes it — the baseline closure-call cost, then
    {!Encl_litterbox.Litterbox.call}. For runtimes that keep handles
    and bind a new body on every call. *)

val name : 'r t -> string

val check_policy : string -> (unit, string) result
(** Compile-time validation of a policy literal (syntax and category
    names only; package existence is checked at link/Init time). *)

(** {2 Tainted values}

    Memory and syscall enforcement contain what enclosure code can {e
    do}; they say nothing about the values it {e returns}. A
    compromised package can hand back an out-of-range length, a
    negative index, a pointer-sized lie — and trusted code that uses it
    unchecked is exploited without the enclosure ever faulting. The
    RLBox discipline closes that channel: results of untrusted
    provenance are ['a Tainted.t] and the payload is unreachable except
    through a verification the trusted side writes. *)

module Tainted : sig
  type 'a t
  (** A value computed inside the enclosure named by {!source};
      unreadable until verified. *)

  exception Rejected of { source : string; reason : string }
  (** The boundary caught a value that failed its check. Deliberately
      {e not} the enclosure fault family: a rejected value is handled
      at the boundary, it does not quarantine the enclosure. *)

  val wrap : Encl_litterbox.Litterbox.t -> source:string -> 'a -> 'a t
  (** Mark [payload] as tainted by [source] (used by frontends;
      {!call_tainted} is the usual entry). *)

  val source : 'a t -> string

  val verify : 'a t -> check:('a -> bool) -> 'a
  (** The only gate: returns the payload if [check] accepts it, raises
      {!Rejected} otherwise. Every call moves the LitterBox
      [tainted_verified] / [tainted_rejected] counters. *)

  val copy_and_verify : 'a t -> copy:('a -> 'a) -> check:('a -> bool) -> 'a
  (** Copy the payload with [copy], then {!verify} the private copy —
      the double-fetch-safe variant for payloads the untrusted side
      retains a reference to (buffers, records): only the copy is
      checked and returned. *)
end

val call_tainted : 'r t -> 'r Tainted.t
(** {!call}, with the result wrapped as tainted by this enclosure —
    the untrusted-to-trusted boundary in one step. *)
