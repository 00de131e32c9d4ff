(* A view onto {!Knob.zerocopy}. *)

let enabled () = Knob.zerocopy.Knob.value
let set b = Knob.set Knob.zerocopy b
let with_flag b f = Knob.with_value Knob.zerocopy b f
