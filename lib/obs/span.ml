type category =
  | User
  | Prolog
  | Epilog
  | Sched
  | Syscall
  | Seccomp
  | Transfer
  | Gc
  | Fault

let all_categories =
  [ User; Prolog; Epilog; Sched; Syscall; Seccomp; Transfer; Gc; Fault ]

let category_index = function
  | User -> 0
  | Prolog -> 1
  | Epilog -> 2
  | Sched -> 3
  | Syscall -> 4
  | Seccomp -> 5
  | Transfer -> 6
  | Gc -> 7
  | Fault -> 8

let category_name = function
  | User -> "user"
  | Prolog -> "prolog"
  | Epilog -> "epilog"
  | Sched -> "sched"
  | Syscall -> "syscall"
  | Seccomp -> "seccomp"
  | Transfer -> "transfer"
  | Gc -> "gc"
  | Fault -> "fault"

type span = {
  id : int;
  parent : int option;
  lane : string;
  name : string;
  category : category;
  start : int;
  mutable stop : int;
  instant : bool;
}

(* Open spans carry their memoized collapsed-stack signature
   ("lane;outer;...;name") so the per-tick attribution charge is a
   hashtable lookup, not a walk of the stack. *)
type frame = { sp : span; sig_ : string }

type t = {
  now : unit -> int;
  mutable next_id : int;
  mutable stack : frame list;
  closed : span Ring.t;
  closes : int array;  (** per-category close count; exact, never dropped *)
}

(* Holds every registry scenario at its default size (smp_http on
   LB_MPK records about 140 K). *)
let default_capacity = 1 lsl 18

let create ?(capacity = default_capacity) ~now () =
  {
    now;
    next_id = 0;
    stack = [];
    closed = Ring.create ~capacity;
    closes = Array.make (List.length all_categories) 0;
  }

let signature_of t ~lane ~name =
  match t.stack with
  | [] -> lane ^ ";" ^ name
  | f :: _ -> f.sig_ ^ ";" ^ name

let enter t ~lane ~name ~category =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with [] -> None | f :: _ -> Some f.sp.id in
  let sig_ = signature_of t ~lane ~name in
  let sp =
    {
      id;
      parent;
      lane;
      name;
      category;
      start = t.now ();
      stop = -1;
      instant = false;
    }
  in
  t.stack <- { sp; sig_ } :: t.stack;
  id

let close t sp =
  sp.stop <- t.now ();
  Ring.push t.closed sp;
  let i = category_index sp.category in
  t.closes.(i) <- t.closes.(i) + 1

(* Well-nesting is enforced here: exiting a span also closes any deeper
   span still open (a child abandoned by an exception that the parent's
   handler already consumed), so intervals always nest. An id not on the
   stack (already closed by such a sweep) is ignored. *)
let exit t id =
  if List.exists (fun f -> f.sp.id = id) t.stack then begin
    let rec pop = function
      | [] -> []
      | f :: rest ->
          close t f.sp;
          if f.sp.id = id then rest else pop rest
    in
    t.stack <- pop t.stack
  end

let mark t ~lane ~name ~category =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with [] -> None | f :: _ -> Some f.sp.id in
  let ts = t.now () in
  let sp =
    { id; parent; lane; name; category; start = ts; stop = ts; instant = true }
  in
  Ring.push t.closed sp;
  let i = category_index category in
  t.closes.(i) <- t.closes.(i) + 1

let top t = match t.stack with [] -> None | f :: _ -> Some (f.sp, f.sig_)
let depth t = List.length t.stack
let closed t = Ring.to_list t.closed
let total t = Ring.pushed t.closed
let dropped t = Ring.dropped t.closed
let capacity t = Ring.capacity t.closed
let close_count t cat = t.closes.(category_index cat)
