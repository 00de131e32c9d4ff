(* 256 words is the largest block OCaml allocates on the minor heap
   (Max_young_wosize). A bigger leaf goes straight to the major heap:
   with 512-entry leaves, perfbench's http_vtx set-up ran four extra
   minor collections and took 28% longer on a 2-vCPU Xeon. *)
let leaf_bits = 8
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1
let vpn_bits = 36
let max_leaves = 1 lsl (vpn_bits - leaf_bits)

(* A leaf no vpn has been added to is the empty array. *)
type 'a t = { mutable dir : 'a option array array }

let in_range vpn = vpn lsr vpn_bits = 0
let create () = { dir = [||] }

(* The directory never covers more than [max_leaves] leaves, and the
   leaf index of a negative vpn is at least 2^54, so the bound check
   against the directory also answers every vpn outside [0, 2^36). *)
let find_opt t vpn =
  let d = vpn lsr leaf_bits in
  if d < Array.length t.dir then begin
    let leaf = Array.unsafe_get t.dir d and i = vpn land leaf_mask in
    if i < Array.length leaf then Array.unsafe_get leaf i else None
  end
  else None

let mem t vpn = match find_opt t vpn with Some _ -> true | None -> false

let add t vpn v =
  if not (in_range vpn) then
    invalid_arg (Printf.sprintf "Vpn_map.add: vpn %d outside [0, 2^36)" vpn);
  let d = vpn lsr leaf_bits in
  let n = Array.length t.dir in
  if d >= n then begin
    let dir = Array.make (min max_leaves (max (d + 1) (2 * n))) [||] in
    Array.blit t.dir 0 dir 0 n;
    t.dir <- dir
  end;
  if Array.length t.dir.(d) = 0 then t.dir.(d) <- Array.make leaf_size None;
  t.dir.(d).(vpn land leaf_mask) <- Some v

let remove t vpn =
  let d = vpn lsr leaf_bits in
  if d < Array.length t.dir && Array.length t.dir.(d) > 0 then
    t.dir.(d).(vpn land leaf_mask) <- None

let fold f t acc =
  let acc = ref acc in
  Array.iteri
    (fun d leaf ->
      Array.iteri
        (fun i slot ->
          match slot with
          | Some v -> acc := f ((d lsl leaf_bits) lor i) v !acc
          | None -> ())
        leaf)
    t.dir;
  !acc

let map f t = { dir = Array.map (Array.map (Option.map f)) t.dir }
