(** An in-memory filesystem for the simulated kernel.

    Absolute slash-separated paths, regular files and directories, a small
    permission model (a file can be marked secret to make attack tests
    observable). File descriptors are managed by {!Kernel}, not here: this
    module exposes inode-level operations. *)

type t

type node_kind = Regular | Directory

type stat = { kind : node_kind; size : int; mode : int }

type errno = Enoent | Eexist | Enotdir | Eisdir | Einval | Eacces

val errno_name : errno -> string

val create : unit -> t
(** A filesystem containing only the root directory. *)

val mkdir : t -> string -> (unit, errno) result
val mkdir_p : t -> string -> (unit, errno) result

val create_file : t -> string -> ?mode:int -> Bytes.t -> (unit, errno) result
(** Create or truncate-and-replace a regular file with contents. *)

val read_file : t -> string -> (Bytes.t, errno) result
(** Whole contents of a regular file. *)

val read_at : t -> string -> off:int -> len:int -> (Bytes.t, errno) result
(** Up to [len] bytes at [off]; short result at end of file. *)

val write_at : t -> string -> off:int -> Bytes.t -> (int, errno) result
(** Write, extending the file if needed; returns bytes written. *)

val append : t -> string -> Bytes.t -> (int, errno) result

val stat : t -> string -> (stat, errno) result
val exists : t -> string -> bool
val unlink : t -> string -> (unit, errno) result
val rmdir : t -> string -> (unit, errno) result
(** Directory must be empty. *)

val readdir : t -> string -> (string list, errno) result
(** Sorted entry names. *)

val chmod : t -> string -> int -> (unit, errno) result
