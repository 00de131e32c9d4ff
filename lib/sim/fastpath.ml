(* A view onto {!Knob.fastpath}. *)

let enabled () = Knob.fastpath.Knob.value
let set b = Knob.set Knob.fastpath b
let with_flag b f = Knob.with_value Knob.fastpath b f
