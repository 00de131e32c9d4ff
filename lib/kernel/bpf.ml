type field = F_nr | F_arch | F_arg of int | F_pkru

type action = Allow | Kill | Errno of int | Trap

type insn =
  | Ld of field
  | Ld_imm of int
  | Ldx_imm of int
  | Tax
  | Txa
  | Alu_and of int
  | Alu_or of int
  | Alu_rsh of int
  | Jmp of int
  | Jeq of int * int * int
  | Jgt of int * int * int
  | Jset of int * int * int
  | Jeq_x of int * int
  | Ret of action
  | Ret_a

type program = insn array

type data = { nr : int; arch : int; args : int array; pkru : int32 }

let make_data ~nr ?(args = [||]) ~pkru () =
  let arg i = if i < Array.length args then args.(i) else 0 in
  {
    nr;
    arch = 0xc000003e (* AUDIT_ARCH_X86_64 *);
    args = [| arg 0; arg 1; arg 2; arg 3; arg 4; arg 5 |];
    pkru;
  }

exception Bad_program of string

let max_insns = 4096

let jump_targets index = function
  | Jmp k -> [ index + 1 + k ]
  | Jeq (_, jt, jf) | Jgt (_, jt, jf) | Jset (_, jt, jf) ->
      [ index + 1 + jt; index + 1 + jf ]
  | Jeq_x (jt, jf) -> [ index + 1 + jt; index + 1 + jf ]
  | Ret _ | Ret_a -> []
  | Ld _ | Ld_imm _ | Ldx_imm _ | Tax | Txa | Alu_and _ | Alu_or _ | Alu_rsh _
    ->
      [ index + 1 ]

let validate prog =
  let n = Array.length prog in
  if n = 0 then raise (Bad_program "empty program");
  if n > max_insns then raise (Bad_program "program too long");
  Array.iteri
    (fun i insn ->
      let targets = jump_targets i insn in
      List.iter
        (fun tgt ->
          if tgt <= i then raise (Bad_program "backward jump");
          if tgt > n then raise (Bad_program "jump out of range");
          (* [tgt = n] means falling off the end, caught below. *)
          if tgt = n then
            raise (Bad_program "control flow reaches past the last instruction"))
        targets;
      match insn with
      | Ld (F_arg i) when i < 0 || i > 5 -> raise (Bad_program "bad argument index")
      | _ -> ())
    prog;
  match prog.(n - 1) with
  | Ret _ | Ret_a | Jmp _ | Jeq _ | Jgt _ | Jset _ | Jeq_x _ -> ()
  | _ -> raise (Bad_program "last instruction must end control flow")

let field_value data = function
  | F_nr -> data.nr
  | F_arch -> data.arch
  | F_arg i -> data.args.(i) land 0xffffffff
  | F_pkru -> Int32.to_int (Int32.logand data.pkru 0xffffffffl) land 0xffffffff

let run_counted prog data =
  let n = Array.length prog in
  let a = ref 0 and x = ref 0 in
  let pc = ref 0 in
  let steps = ref 0 in
  let result = ref None in
  while !result = None do
    incr steps;
    if !steps > max_insns then raise (Bad_program "step limit exceeded");
    if !pc < 0 || !pc >= n then raise (Bad_program "fell off the program");
    (match prog.(!pc) with
    | Ld f ->
        a := field_value data f;
        incr pc
    | Ld_imm k ->
        a := k;
        incr pc
    | Ldx_imm k ->
        x := k;
        incr pc
    | Tax ->
        x := !a;
        incr pc
    | Txa ->
        a := !x;
        incr pc
    | Alu_and k ->
        a := !a land k;
        incr pc
    | Alu_or k ->
        a := !a lor k;
        incr pc
    | Alu_rsh k ->
        a := !a lsr k;
        incr pc
    | Jmp k -> pc := !pc + 1 + k
    | Jeq (k, jt, jf) -> pc := !pc + 1 + (if !a = k then jt else jf)
    | Jgt (k, jt, jf) -> pc := !pc + 1 + (if !a > k then jt else jf)
    | Jset (k, jt, jf) -> pc := !pc + 1 + (if !a land k <> 0 then jt else jf)
    | Jeq_x (jt, jf) -> pc := !pc + 1 + (if !a = !x then jt else jf)
    | Ret act -> result := Some act
    | Ret_a -> result := Some (if !a = 0 then Kill else Allow));
  done;
  (Option.get !result, !steps)

let run_count = run_counted

let run prog data = fst (run_counted prog data)
