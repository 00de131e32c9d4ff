module Lb = Encl_litterbox.Litterbox
module Policy = Encl_litterbox.Policy

type 'r t = { lb : Lb.t; enc_name : string; handle : Lb.handle; body : unit -> 'r }

let handle ~name = Lb.handle ~name ~site:("enclosure:" ^ name)
let declare lb ~name body = { lb; enc_name = name; handle = handle ~name; body }

let declare_dynamic lb ~name ~owner ~deps ~policy body =
  match Policy.parse policy with
  | Error e -> Error e
  | Ok _ -> (
      match Lb.register_enclosure lb ~name ~owner ~deps ~policy ~closure_addr:0 with
      | Error e -> Error e
      | Ok () -> Ok (declare lb ~name body))

let run lb h body =
  let m = Lb.machine lb in
  Clock.consume m.Encl_litterbox.Machine.clock Clock.Compute
    m.Encl_litterbox.Machine.costs.Costs.closure_call;
  Lb.call lb h body ()

let call t = run t.lb t.handle t.body

let name t = t.enc_name

let check_policy literal =
  match Policy.parse literal with Ok _ -> Ok () | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Tainted values                                                      *)

module Tainted = struct
  (* The boundary discipline of RLBox: a value produced inside an
     enclosure is data of untrusted provenance, whatever the memory
     backend did to contain the code that computed it. The type keeps
     the provenance in the program — there is no way to read the
     payload except through [verify]/[copy_and_verify], so every
     untrusted-to-trusted flow carries an explicit, auditable check. *)

  type 'a t = { lb : Lb.t; source : string; payload : 'a }

  exception Rejected of { source : string; reason : string }

  let wrap lb ~source payload = { lb; source; payload }
  let source t = t.source

  let verify t ~check =
    if not (Defense.enabled Defense.Tainted_boundary) then t.payload
      (* Defense off: the taint wrapper hands the raw value to trusted
         code without running its check — boundary smuggling. *)
    else if check t.payload then begin
      Lb.note_tainted_verified t.lb;
      t.payload
    end
    else begin
      Lb.note_tainted_rejected t.lb;
      raise
        (Rejected
           {
             source = t.source;
             reason = "tainted value failed boundary verification";
           })
    end

  let copy_and_verify t ~copy ~check =
    (* Copy first, then validate the copy: the untrusted side keeps a
       reference to the original and could re-write it between the
       check and the use (the classic double-fetch). Only the private
       copy is ever checked or returned. *)
    let private_copy = copy t.payload in
    verify { t with payload = private_copy } ~check
end

let call_tainted t =
  let payload = call t in
  Tainted.wrap t.lb ~source:t.enc_name payload
