(* Software fault isolation (RLBox/Wasm-style), the fourth enforcement
   point in the design space. The trade-off is the mirror image of
   LB_VTX: crossing into the sandbox is an ordinary function call
   through a trampoline (~0 switch cost, no PKRU write, no VM EXIT,
   no kernel crossing), but every load and store executed inside pays
   the mask-and-bounds-check sequence the instrumented code carries.

   The simulation charges that per-access cost into its own clock
   category ({!Clock.Access}) so the crossover against the
   switch-dominated backends is directly measurable: SFI wins
   switch-heavy workloads and loses access-heavy ones.

   Guard-zone semantics: an access whose masked address falls outside
   the sandbox's view lands in a guard page. The caller turns that
   into an ordinary {!Cpu.fault}, so the existing fault-log /
   quarantine machinery sees SFI violations exactly as it sees MPK key
   denials or VTX unmapped pages. *)

type t = {
  clock : Clock.t;
  costs : Costs.t;
  mutable guard_faults : int;
  mutable switches : int;
  mutable observer : (unit -> unit) option;
      (** called once per masked access; LitterBox counts these as
          "sfi_masked_access" *)
}

let create ~clock ~costs =
  (* Instrumentation is ahead-of-time (compiler/loader work): unlike
     LB_VTX's kvm_setup there is nothing to pay at boot. *)
  {
    clock;
    costs;
    guard_faults = 0;
    switches = 0;
    observer = None;
  }

let set_observer t f = t.observer <- f

(* One instrumented load/store: charge the mask sequence, count it,
   and report whether the masked address stayed inside the sandbox.
   [false] means the access landed in a guard zone — the caller must
   fault. The cost is charged either way: the mask runs before the
   outcome is known. *)
let masked_access t ~allowed =
  Clock.consume t.clock Clock.Access t.costs.Costs.sfi_mask_access;
  (match t.observer with None -> () | Some f -> f ());
  if not allowed then t.guard_faults <- t.guard_faults + 1;
  allowed

(* Crossing the sandbox boundary, either direction: a trampoline call. *)
let switch t =
  t.switches <- t.switches + 1;
  Clock.consume t.clock Clock.Switch t.costs.Costs.sfi_switch

let guard_faults t = t.guard_faults
let switches t = t.switches
