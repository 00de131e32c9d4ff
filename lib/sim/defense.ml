(* The defense registry: one flag per hardening mechanism from the
   Garmr / "syscall as a privilege" line of work. Unlike Fastpath —
   whose flag must never change enforcement outcomes — each defense
   here is load-bearing: turning one off re-opens the specific attack
   it was built to contain, and test_attack proves it. All default on;
   ENCL_DEFENSES_OFF can carry a comma-separated list of names to
   disable at startup, and tests flip them per-run with
   [with_disabled]. None of the checks charge simulated time, so the
   benign fast paths cost exactly the same with every defense armed. *)

type t =
  | Gate_integrity
  | Syscall_origin
  | Mm_guard
  | Ring_integrity
  | Resume_check
  | Cache_epoch
  | Sfi_mask
  | Tainted_boundary

let all =
  [
    Gate_integrity;
    Syscall_origin;
    Mm_guard;
    Ring_integrity;
    Resume_check;
    Cache_epoch;
    Sfi_mask;
    Tainted_boundary;
  ]

let index = function
  | Gate_integrity -> 0
  | Syscall_origin -> 1
  | Mm_guard -> 2
  | Ring_integrity -> 3
  | Resume_check -> 4
  | Cache_epoch -> 5
  | Sfi_mask -> 6
  | Tainted_boundary -> 7

let name = function
  | Gate_integrity -> "gate-integrity"
  | Syscall_origin -> "syscall-origin"
  | Mm_guard -> "mm-guard"
  | Ring_integrity -> "ring-integrity"
  | Resume_check -> "resume-check"
  | Cache_epoch -> "cache-epoch"
  | Sfi_mask -> "sfi-mask"
  | Tainted_boundary -> "tainted-boundary"

let of_string s =
  let canon =
    String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii s)
  in
  List.find_opt (fun d -> name d = canon) all

let state = Array.make (List.length all) true

let () =
  match Sys.getenv_opt "ENCL_DEFENSES_OFF" with
  | None -> ()
  | Some spec ->
      String.split_on_char ',' spec
      |> List.iter (fun tok ->
             match of_string (String.trim tok) with
             | Some d -> state.(index d) <- false
             | None -> ())

let enabled d = state.(index d)
let set d b = state.(index d) <- b

let with_disabled d f =
  let saved = state.(index d) in
  state.(index d) <- false;
  Fun.protect ~finally:(fun () -> state.(index d) <- saved) f
