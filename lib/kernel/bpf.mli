(** A classic-BPF-style filter machine for seccomp.

    LB_MPK translates an enclosure's [FilterSyscall] policy "into a BPF
    filter loaded via seccomp, which indexes the current environment (from
    the PKRU value) to a mask of permitted system calls" (paper §5.3). This
    module is the machine: an accumulator [A], an index register [X],
    conditional forward jumps, and [Ret] actions.

    The seccomp data exposed to programs includes the PKRU register value,
    mirroring the kernel patch the paper applies. *)

type field =
  | F_nr  (** system-call number *)
  | F_arch
  | F_arg of int  (** argument 0..5, truncated to 32 bits *)
  | F_pkru  (** PKRU value of the calling context (kernel patch [45]) *)

type action = Allow | Kill | Errno of int | Trap

type insn =
  | Ld of field  (** A <- data\[field\] *)
  | Ld_imm of int  (** A <- k *)
  | Ldx_imm of int  (** X <- k *)
  | Tax  (** X <- A *)
  | Txa  (** A <- X *)
  | Alu_and of int
  | Alu_or of int
  | Alu_rsh of int
  | Jmp of int  (** unconditional forward jump of k instructions *)
  | Jeq of int * int * int  (** if A = k then skip jt else skip jf *)
  | Jgt of int * int * int
  | Jset of int * int * int  (** if A land k <> 0 *)
  | Jeq_x of int * int  (** if A = X *)
  | Ret of action
  | Ret_a  (** return the action encoded in A (0 = Kill, 1 = Allow) *)

type program = insn array

type data = { nr : int; arch : int; args : int array; pkru : int32 }

val make_data : nr:int -> ?args:int array -> pkru:int32 -> unit -> data

exception Bad_program of string
(** Raised by {!validate} and by {!run} on malformed programs (backward
    jumps, jumps out of range, missing return, step-limit exceeded). *)

val validate : program -> unit
(** Kernel-side verification: all jumps strictly forward and in range, the
    last reachable path ends in a return, program non-empty and below the
    4096-instruction limit. *)

val run : program -> data -> action
(** Execute the filter on a syscall datum. *)

val run_count : program -> data -> action * int
(** Like {!run} but also returns the number of instructions executed
    (the kernel charges a fast-path cost when a filter decides within a
    few instructions — e.g. the trusted-PKRU branch). *)
