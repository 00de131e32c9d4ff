type 'a t = {
  cap : int;
  mutable slots : 'a array;  (** grows up to [cap] *)
  mutable head : int;  (** next write position *)
  mutable pushed : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { cap = capacity; slots = [||]; head = 0; pushed = 0 }

let capacity t = t.cap
let length t = min t.pushed t.cap
let pushed t = t.pushed
let dropped t = max 0 (t.pushed - t.cap)

(* Until the ring first wraps, element [i] sits at slot [i] and [head]
   equals [pushed]: a full array below the capacity doubles (from 16). *)
let push t v =
  let n = Array.length t.slots in
  if t.head = n && n < t.cap then begin
    let slots = Array.make (min t.cap (max 16 (2 * n))) v in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots
  end;
  t.slots.(t.head) <- v;
  t.head <- (t.head + 1) mod t.cap;
  t.pushed <- t.pushed + 1

let to_list t =
  let n = length t in
  let oldest = ((t.head - n) mod t.cap + t.cap) mod t.cap in
  List.init n (fun i -> t.slots.((oldest + i) mod t.cap))

let clear t =
  t.slots <- [||];
  t.head <- 0;
  t.pushed <- 0
