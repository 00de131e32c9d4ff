type rule = { sysno : Sysno.t; arg0_allowed : int list option }

let rule ?arg0 sysno = { sysno; arg0_allowed = arg0 }

type env_filter = { pkru : Mpk.pkru; rules : rule list }

module Asm = struct
  type item =
    | Insn of Bpf.insn
    | Label of string
    | Jeq_lbl of int * string
    | Jmp_lbl of string

  let assemble items =
    (* First pass: compute instruction index of every label. *)
    let positions = Hashtbl.create 16 in
    let count =
      List.fold_left
        (fun idx item ->
          match item with
          | Label name ->
              if Hashtbl.mem positions name then
                invalid_arg (Printf.sprintf "Asm: duplicate label %s" name);
              Hashtbl.replace positions name idx;
              idx
          | Insn _ | Jeq_lbl _ | Jmp_lbl _ -> idx + 1)
        0 items
    in
    ignore count;
    let resolve here name =
      match Hashtbl.find_opt positions name with
      | None -> invalid_arg (Printf.sprintf "Asm: unknown label %s" name)
      | Some target ->
          let delta = target - (here + 1) in
          if delta < 0 then
            invalid_arg (Printf.sprintf "Asm: backward jump to %s" name);
          delta
    in
    (* Second pass: emit. *)
    let insns = ref [] in
    let idx = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Label _ -> ()
        | Insn i ->
            insns := i :: !insns;
            incr idx
        | Jeq_lbl (k, name) ->
            insns := Bpf.Jeq (k, resolve !idx name, 0) :: !insns;
            incr idx
        | Jmp_lbl name ->
            insns := Bpf.Jmp (resolve !idx name) :: !insns;
            incr idx)
      items;
    Array.of_list (List.rev !insns)
end

let pkru_key pkru = Int32.to_int (Int32.logand pkru 0xffffffffl) land 0xffffffff

let compile ~trusted_pkrus envs =
  let open Asm in
  let items = ref [] in
  let emit item = items := item :: !items in
  let label_of_env i = Printf.sprintf "env%d" i in
  (* Dispatch on PKRU; trusted values first (fast path). *)
  emit (Insn (Bpf.Ld Bpf.F_pkru));
  List.iter (fun pkru -> emit (Jeq_lbl (pkru_key pkru, "allow"))) trusted_pkrus;
  List.iteri (fun i (env : env_filter) -> emit (Jeq_lbl (pkru_key env.pkru, label_of_env i))) envs;
  emit (Jmp_lbl "kill");
  (* Per-environment whitelists. *)
  List.iteri
    (fun i (env : env_filter) ->
      emit (Label (label_of_env i));
      emit (Insn (Bpf.Ld Bpf.F_nr));
      List.iteri
        (fun j r ->
          match r.arg0_allowed with
          | None -> emit (Jeq_lbl (Sysno.number r.sysno, "allow"))
          | Some ips ->
              let arg_label = Printf.sprintf "env%d_arg%d" i j in
              let next_label = Printf.sprintf "env%d_next%d" i j in
              emit (Jeq_lbl (Sysno.number r.sysno, arg_label));
              emit (Jmp_lbl next_label);
              emit (Label arg_label);
              emit (Insn (Bpf.Ld (Bpf.F_arg 0)));
              List.iter (fun ip -> emit (Jeq_lbl (ip, "allow"))) ips;
              emit (Jmp_lbl "kill");
              emit (Label next_label);
              (* Restore the syscall number for subsequent comparisons. *)
              emit (Insn (Bpf.Ld Bpf.F_nr)))
        env.rules;
      emit (Jmp_lbl "kill"))
    envs;
  emit (Label "allow");
  emit (Insn (Bpf.Ret Bpf.Allow));
  emit (Label "kill");
  emit (Insn (Bpf.Ret Bpf.Kill));
  let prog = Asm.assemble (List.rev !items) in
  Bpf.validate prog;
  prog

(* Verdict cache: (PKRU, nr, arg0) -> action. The compiled dispatch
   programs only ever load F_pkru, F_nr and F_arg 0, so a key over those
   three fields is sound for any program [compile] can produce — keying
   on arg0 is what keeps per-IP connect rules correct. The cache is
   flushed on every [install] (the program changed, so may every
   verdict) and by [invalidate] (LitterBox calls it when a transfer
   changes a meta-package's rights vector). *)
type vkey = { vk_pkru : int; vk_nr : int; vk_arg0 : int }

(* Exact keys, hashed and compared field by field as ints: a 32-bit
   PKRU, the syscall number and an unbounded arg0 do not pack losslessly
   into one int. *)
module Vtbl = Hashtbl.Make (struct
  type t = vkey

  let equal a b = a.vk_pkru = b.vk_pkru && a.vk_nr = b.vk_nr && a.vk_arg0 = b.vk_arg0

  let hash k =
    let h = (((k.vk_pkru * 31) + k.vk_nr) * 31) + k.vk_arg0 in
    h lxor (h lsr 17) lxor (h lsr 34)
end)

type outcome = Hit | Evaluated of int

type t = {
  mutable prog : Bpf.program option;
  mutable caches : Bpf.action Vtbl.t array;
      (** one verdict cache per simulated core (a real per-CPU cache
          would be lock-free for the same reason): index = core,
          grown on demand. The kernel counts hits and misses
          machine-wide from {!check_memo}'s outcome. *)
  mutable invalidations : int;
}

let create () =
  {
    prog = None;
    caches = [| Vtbl.create 128 |];
    invalidations = 0;
  }

let cache_for t core =
  if core >= Array.length t.caches then begin
    let n = Array.length t.caches in
    t.caches <-
      Array.init
        (max (core + 1) (2 * n))
        (fun i -> if i < n then t.caches.(i) else Vtbl.create 128)
  end;
  t.caches.(core)

(* Invalidation is machine-wide: a program change or rights-vector
   change poisons every core's memoized verdicts (the IPI shootdown a
   real per-CPU cache would need), counted once. *)
let invalidate t =
  Array.iter
    (fun cache -> if Vtbl.length cache > 0 then Vtbl.reset cache)
    t.caches;
  t.invalidations <- t.invalidations + 1

let install t prog =
  match Bpf.validate prog with
  | () ->
      t.prog <- Some prog;
      (* Cache-epoch defense: a new program invalidates every memoized
         verdict. Skipping this (Defense off) leaves verdicts from the
         previous program live — the poisoning window the cache-poison
         corpus attack drives through. *)
      if Defense.enabled Defense.Cache_epoch then invalidate t;
      Ok ()
  | exception Bpf.Bad_program msg -> Error msg

let installed t = t.prog <> None

let check t data =
  match t.prog with None -> Bpf.Allow | Some prog -> Bpf.run prog data

let key_of_data (data : Bpf.data) =
  {
    vk_pkru = pkru_key data.Bpf.pkru;
    vk_nr = data.Bpf.nr;
    vk_arg0 = data.Bpf.args.(0);
  }

let check_memo ?(core = 0) t data =
  match t.prog with
  | None -> (Bpf.Allow, Evaluated 0)
  | Some prog ->
      if not Knob.fastpath.Knob.value then
        let action, steps = Bpf.run_count prog data in
        (action, Evaluated steps)
      else
        let cache = cache_for t core in
        let key = key_of_data data in
        (match Vtbl.find_opt cache key with
        | Some action -> (action, Hit)
        | None ->
            let action, steps = Bpf.run_count prog data in
            Vtbl.replace cache key action;
            (action, Evaluated steps))

let invalidation_count t = t.invalidations
