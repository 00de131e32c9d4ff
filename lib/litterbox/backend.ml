(* The enforcement-backend enumeration and the BACKEND module signature.

   The paper's claim is that one language-level policy can be enforced
   by interchangeable backends; this module is where that
   interchangeability becomes structural. [t] enumerates the backends,
   [all] is the single canonical list every harness (bench, profile,
   trace_dump, the qcheck differentials) iterates — adding a backend
   here is the one-line change that propagates everywhere — and
   {!module-type-S} is the signature each backend implements inside
   {!Litterbox}: mechanism only — the install, switch, syscall, drain
   and transfer hooks, each paying its own {!Costs} entries. The
   protocol around each hook (counters, spans, elision, stack and event
   bookkeeping) has one body in {!Litterbox}, shared by all four. *)

type t = Mpk | Vtx | Lwc | Sfi

let all = [ Mpk; Vtx; Lwc; Sfi ]

let name = function
  | Mpk -> "LB_MPK"
  | Vtx -> "LB_VTX"
  | Lwc -> "LB_LWC"
  | Sfi -> "LB_SFI"

(* Short command-line spellings (profile, trace_dump). *)
let arg_name = function Mpk -> "mpk" | Vtx -> "vtx" | Lwc -> "lwc" | Sfi -> "sfi"

let of_string s =
  match String.lowercase_ascii s with
  | "mpk" | "lb_mpk" -> Some Mpk
  | "vtx" | "lb_vtx" -> Some Vtx
  | "lwc" | "lb_lwc" -> Some Lwc
  | "sfi" | "lb_sfi" -> Some Sfi
  | _ -> None

(* A "baseline or backend" command-line argument: [None] is the
   unprotected baseline. The one parser every tool in bin/ uses. *)
let config_of_string s =
  match String.lowercase_ascii s with
  | "baseline" | "none" -> Ok None
  | _ -> (
      match of_string s with
      | Some b -> Ok (Some b)
      | None ->
          Error
            (Printf.sprintf "unknown backend %s (choose from: baseline, %s)" s
               (String.concat ", " (List.map arg_name all))))

let config_arg_name = function None -> "baseline" | Some b -> arg_name b

(** What a backend must provide to LitterBox. The context types are
    abstract here — LitterBox instantiates them with its own runtime
    state ([ctx] = the LitterBox instance, [enc] = per-enclosure
    runtime descriptor, [entry] = a submitted syscall-ring entry) so
    the four implementations live next to the machinery they program
    while this signature pins down the shape they share. A stack
    ([enc list]) is innermost first; [[]] is trusted code. *)
module type S = sig
  type ctx
  type enc
  type entry

  val install : ctx -> enc list -> Cluster.t -> (Mpk.pkru, string) result
  (** (Re)program the hardware for the enclosures (registration order)
      and the meta-package clustering of their views: tag pages and
      compile the seccomp program (MPK/SFI), rebuild per-enclosure page
      tables (VTX/LWC), and build each enclosure's environment. Returns
      the PKRU (SFI: tag) that application-trusted code runs under.
      Called at init and after every registration; a configuration the
      hardware cannot hold is refused before anything is assigned. *)

  val enter : ctx -> enc list -> unit
  (** Prolog-side switch mechanism and cost toward the target stack,
      whose head is the enclosure entered (elision already ruled out).
      May raise the LitterBox fault on a refused transition. *)

  val leave : ctx -> enc list -> unit
  (** Epilog-side switch toward the target stack. *)

  val resume : ctx -> enc list -> unit
  (** Scheduler switch ([Execute] hook) to a captured stack. *)

  val excursion_costs : ctx -> int * int
  (** (enter, return) switch costs of a trusted excursion, in ns. *)

  val syscall :
    ctx -> enc list -> Encl_kernel.Kernel.call ->
    (int, Encl_kernel.Kernel.errno) result
  (** Direct-path system call from the given (current) stack, under its
      filter. Raises the LitterBox fault on a denial/kill. *)

  val drain : ctx -> entry list -> unit
  (** Complete a batch of ring entries: one privilege crossing for the
      batch, per-entry verdicts under each entry's submit-time
      environment. *)

  val transfer :
    ctx -> addr:int -> pages:int -> to_pkg:string -> key_changed:bool -> unit
  (** Hardware side of re-homing [pages] pages at [addr] into
      [to_pkg]'s arena (the section registry was already updated). *)
end
