type category =
  | Switch
  | Syscall
  | Transfer
  | Access
  | Compute
  | Alloc
  | Gc
  | Init
  | Io
  | Other

let all_categories =
  [ Switch; Syscall; Transfer; Access; Compute; Alloc; Gc; Init; Io; Other ]

let category_index = function
  | Switch -> 0
  | Syscall -> 1
  | Transfer -> 2
  | Access -> 3
  | Compute -> 4
  | Alloc -> 5
  | Gc -> 6
  | Init -> 7
  | Io -> 8
  | Other -> 9

let category_name = function
  | Switch -> "switch"
  | Syscall -> "syscall"
  | Transfer -> "transfer"
  | Access -> "access"
  | Compute -> "compute"
  | Alloc -> "alloc"
  | Gc -> "gc"
  | Init -> "init"
  | Io -> "io"
  | Other -> "other"

type t = {
  mutable time : int;
  tallies : int array;
  mutable observer : (category -> int -> unit) option;
  mutable lane : int;
  mutable lane_ns : int array;
  mutable lane_count : int;
}

type span = int

let create () =
  {
    time = 0;
    tallies = Array.make 10 0;
    observer = None;
    lane = 0;
    lane_ns = Array.make 1 0;
    lane_count = 1;
  }

let now t = t.time
let set_observer t f = t.observer <- f
let lane t = t.lane

let set_lane t i =
  assert (i >= 0);
  if i >= Array.length t.lane_ns then begin
    let bigger = Array.make (max (i + 1) (2 * Array.length t.lane_ns)) 0 in
    Array.blit t.lane_ns 0 bigger 0 (Array.length t.lane_ns);
    t.lane_ns <- bigger
  end;
  if i + 1 > t.lane_count then t.lane_count <- i + 1;
  t.lane <- i

let lane_ns t i = if i >= 0 && i < Array.length t.lane_ns then t.lane_ns.(i) else 0

let wall t =
  let m = ref 0 in
  for i = 0 to t.lane_count - 1 do
    if t.lane_ns.(i) > !m then m := t.lane_ns.(i)
  done;
  !m

let horizon = 1 lsl 61

(* One comparison covers both refusals: from a non-negative time, the
   sum falls below it exactly when [ns] is negative or the sum wraps. *)
let consume t cat ns =
  let time = t.time + ns in
  if time < t.time then invalid_arg "Clock.consume: negative or overflowing charge";
  t.time <- time;
  let i = category_index cat in
  t.tallies.(i) <- t.tallies.(i) + ns;
  t.lane_ns.(t.lane) <- t.lane_ns.(t.lane) + ns;
  match t.observer with
  | None -> ()
  | Some f -> if ns > 0 then f cat ns

let spent t cat = t.tallies.(category_index cat)

let reset t =
  t.time <- 0;
  Array.fill t.tallies 0 (Array.length t.tallies) 0;
  t.lane <- 0;
  Array.fill t.lane_ns 0 (Array.length t.lane_ns) 0;
  t.lane_count <- 1

let start t = t.time
let elapsed t span = t.time - span

let pp_breakdown ppf t =
  Format.fprintf ppf "@[<v>total: %d ns" t.time;
  List.iter
    (fun cat ->
      let ns = spent t cat in
      if ns > 0 then Format.fprintf ppf "@ %-10s %12d ns" (category_name cat) ns)
    all_categories;
  Format.fprintf ppf "@]"
