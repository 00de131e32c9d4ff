(* The enforcement-backend enumeration and the BACKEND module signature.

   The paper's claim is that one language-level policy can be enforced
   by interchangeable backends; this module is where that
   interchangeability becomes structural. [t] enumerates the backends,
   [all] is the single canonical list every harness (bench, profile,
   trace_dump, the qcheck differentials) iterates — adding a backend
   here is the one-line change that propagates everywhere — and
   {!module-type-S} is the signature each backend implements inside
   {!Litterbox}: the install/switch/access/transfer/filter hooks, each
   paying its own {!Costs} entries. *)

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
    while this signature pins down the shape they share. *)
module type S = sig
  type ctx
  type enc
  type entry

  val id : t

  val install : ctx -> (unit, string) result
  (** (Re)program the hardware from the current views: tag pages and
      compile the seccomp program (MPK/SFI), rebuild per-enclosure page
      tables (VTX/LWC). Called at init and after every registration. *)

  val env_of : ctx -> enc -> Cpu.env
  (** The hardware environment enforcing [enc]'s view: trusted page
      table + PKRU (MPK), per-enclosure page table (VTX/LWC), trusted
      page table + instrumentation context (SFI). *)

  val enter : ctx -> enc -> unit
  (** Prolog-side switch mechanism and cost (elision already ruled
      out). May raise the LitterBox fault on a refused transition. *)

  val leave : ctx -> enc option -> unit
  (** Epilog-side switch toward the target environment ([None] =
      trusted). *)

  val resume : ctx -> enc option -> unit
  (** Scheduler switch ([Execute] hook) to a captured environment. *)

  val excursion_costs : ctx -> int * int
  (** (enter, return) switch costs of a trusted excursion, in ns. *)

  val syscall :
    ctx -> enc option -> Encl_kernel.Kernel.call ->
    (int, Encl_kernel.Kernel.errno) result
  (** Direct-path system call under the current environment's filter.
      Raises the LitterBox fault on a denial/kill. *)

  val drain : ctx -> entry list -> unit
  (** Complete a batch of ring entries: one privilege crossing for the
      batch, per-entry verdicts under each entry's submit-time
      environment. *)

  val transfer :
    ctx -> addr:int -> pages:int -> to_pkg:string -> key_changed:bool -> unit
  (** Hardware side of re-homing [pages] pages at [addr] into
      [to_pkg]'s arena (the section registry was already updated). *)
end
