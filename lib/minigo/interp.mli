(** The mini-Go evaluator.

    Function bodies execute against the Go-like runtime: every
    cross-package call performs the instruction-fetch check, [alloc]
    lands in the current package's arena (tagged mallocgc), package
    variables and constants live in simulated guest memory (so reading
    them from an enclosure without the right view faults), and calling a
    closure produced by a [with] expression enters its enclosure. *)

type value =
  | VUnit
  | VInt of int
  | VBool of bool
  | VStr of string
  | VBuf of Encl_golike.Gbuf.t
  | VClosure of Ast.enclosure * string * scope
      (** the node, its owner package, and the captured environment
          (free variables are shared by reference, as in Go) *)
  | VChan of value Encl_golike.Channel.t

and scope = (string, value) Hashtbl.t

type ctx

exception Runtime_error of string

val create : Encl_golike.Runtime.t -> Compile.compiled -> ctx
val runtime : ctx -> Encl_golike.Runtime.t

val call_function :
  ctx -> pkg:string -> fn:string -> value list -> value
(** Invoke a declared function (checks arity; performs the fetch check).
    Raises {!Runtime_error}, {!Cpu.Fault}, or
    {!Encl_litterbox.Litterbox.Fault}. *)

val output : ctx -> string
(** Everything [print] produced so far. *)
