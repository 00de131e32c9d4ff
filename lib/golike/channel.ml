(* Channel operation cost, ns (uncontended Go channel send/recv). *)
let chan_op_ns = 48

type 'a t = { sched : Sched.t; cap : int; q : 'a Queue.t }

let create sched ~cap =
  if cap < 1 then invalid_arg "Channel.create: capacity must be >= 1";
  { sched; cap; q = Queue.create () }

let charge c =
  let machine = Sched.machine c.sched in
  Clock.consume machine.Encl_litterbox.Machine.clock Clock.Compute chan_op_ns

(* Predicates can be satisfied for several waiters at once; re-check
   after waking (classic blocking-queue loop). *)
let rec send c v =
  charge c;
  Sched.wait_until ~internal:true c.sched (fun () -> Queue.length c.q < c.cap);
  if Queue.length c.q < c.cap then Queue.push v c.q else send c v

let rec recv c =
  charge c;
  Sched.wait_until ~internal:true c.sched (fun () -> not (Queue.is_empty c.q));
  match Queue.take_opt c.q with Some v -> v | None -> recv c

let length c = Queue.length c.q

type 'r case = Case : 'a t * ('a -> 'r) -> 'r case

let case c f = Case (c, f)

let ready (Case (c, _)) = not (Queue.is_empty c.q)

let try_take cases =
  List.find_map
    (fun (Case (c, f)) -> Option.map f (Queue.take_opt c.q))
    (List.filter ready cases)

let rec select sched ?default cases =
  if cases = [] && default = None then invalid_arg "Channel.select: no arms";
  match try_take cases with
  | Some r -> r
  | None -> (
      match default with
      | Some f -> f ()
      | None ->
          Sched.wait_until ~internal:true sched (fun () -> List.exists ready cases);
          select sched ?default cases)
