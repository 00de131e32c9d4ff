type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let make ~seed = { state = seed }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value is non-negative as an OCaml int. *)
  let raw = Int64.to_int (Int64.logand (next64 t) 0x3FFFFFFFFFFFFFFFL) in
  raw mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (raw /. 9007199254740992.0)

let byte t = Char.chr (int t 256)
let split t = { state = next64 t }
