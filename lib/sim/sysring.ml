(* A view onto {!Knob.sysring}. *)

let enabled () = Knob.sysring.Knob.value
let set b = Knob.set Knob.sysring b
let with_flag b f = Knob.with_value Knob.sysring b f
