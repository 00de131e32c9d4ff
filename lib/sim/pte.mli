(** Page-table entries for the simulated MMU. *)

type perms = { r : bool; w : bool; x : bool }

val no_perms : perms

type t = {
  ppn : int;  (** backing physical frame *)
  mutable present : bool;  (** cleared to unmap without forgetting [ppn] *)
  mutable perms : perms;
  mutable pkey : int;  (** MPK protection key, 0..15 *)
}

val make : ppn:int -> perms:perms -> t
(** Present entry with protection key 0. *)

val pp : Format.formatter -> t -> unit
