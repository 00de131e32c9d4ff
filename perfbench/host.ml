(* Host-side measurement: monotonic-clock timers around the calls the
   benchmark makes into the system, the benchmark's own span recorder
   and the process's peak resident memory. Nothing here touches the
   simulated clock. *)

(* Seconds on the monotonic clock (nanosecond resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let epoch = now ()

(* Run [f] and add its host seconds to [acc]. *)
let time acc f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> acc := !acc +. (now () -. t0)) f

(* Linearly interpolated quantile [q] (0..1) of a sample. *)
let quantile q = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* A shared host runs other work in episodes that slow everything on it
   by up to 2x for seconds to minutes. The workloads time
   [reference_s], a fixed unit of host work, between their timed calls
   and scale each host time by [nominal_reference_s] over the latest
   reading: the reported host times are those of a host running the
   reference in 3 ms, about what an uncontended 2.0 GHz vCPU takes. *)
let nominal_reference_s = 0.003

let ref_tbl = Hashtbl.create 4096
let ref_buf = Bytes.create 8192

(* Hashing, short-lived allocation and byte copies, like the
   simulator's own inner loops. Returns its host seconds. *)
let reference_s () =
  let t0 = now () in
  Hashtbl.reset ref_tbl;
  let acc = ref 0 in
  for i = 0 to 20_000 do
    let k = (i * 7919) land 4095 in
    Hashtbl.replace ref_tbl k (Bytes.sub ref_buf (k land 1023) 64);
    (match Hashtbl.find_opt ref_tbl ((k * 31) land 4095) with
    | Some b -> acc := !acc + Bytes.length b
    | None -> ());
    Bytes.blit ref_buf 0 ref_buf 4096 (64 + (k land 255))
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* One interval recorded by the benchmark around a call into the
   system: host and simulated start/stop, the enclosing span and, for a
   request, its op id. Spans stay in memory until {!write_spans}. *)
type span = {
  id : int;
  parent : int;  (* -1 at the root *)
  name : string;
  op : int;  (* -1 unless the span is one op *)
  host_start : float;
  mutable host_stop : float;
  sim_start : int;
  mutable sim_stop : int;
}

let recording = ref false
let next_id = ref 0
let stack : span list ref = ref []
let spans : span list ref = ref []

let top_id () = match !stack with s :: _ -> s.id | [] -> -1

let make ~op name ~sim =
  let s =
    {
      id = !next_id;
      parent = top_id ();
      name;
      op;
      host_start = now ();
      host_stop = -1.0;
      sim_start = sim;
      sim_stop = -1;
    }
  in
  incr next_id;
  spans := s :: !spans;
  s

(* A nested span: children opened before [leave] get it as parent. *)
let enter name ~sim =
  if not !recording then None
  else begin
    let s = make ~op:(-1) name ~sim in
    stack := s :: !stack;
    Some s
  end

let close s ~sim =
  s.host_stop <- now ();
  s.sim_stop <- sim

let leave sp ~sim =
  match sp with
  | None -> ()
  | Some s ->
      close s ~sim;
      stack := List.filter (fun o -> o.id <> s.id) !stack

(* An op span: parented to the innermost open span but not pushed, so
   the ops of one closed-loop batch may overlap each other. *)
let op_start op ~sim = if !recording then Some (make ~op "op" ~sim) else None
let op_stop sp ~sim = Option.iter (fun s -> close s ~sim) sp

let with_span name ~sim f =
  let sp = enter name ~sim:(sim ()) in
  Fun.protect ~finally:(fun () -> leave sp ~sim:(sim ())) f

let span_count () = List.length !spans

(* Per-name totals (count, host seconds, host self seconds, simulated
   ns): a span's self time is its duration minus what its children
   cover. Children of one parent may overlap (op spans), so their
   coverage is the union of their intervals. *)
let summary () =
  let closed = List.filter (fun s -> s.host_stop >= 0.0) !spans in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) closed;
  let covered s =
    let iv =
      List.sort compare
        (List.map (fun c -> (c.host_start, c.host_stop)) (Hashtbl.find_all children s.id))
    in
    fst
      (List.fold_left
         (fun (acc, hi) (a, b) ->
           let a = max a hi in
           if b > a then (acc +. (b -. a), b) else (acc, hi))
         (0.0, s.host_start) iv)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.host_stop -. s.host_start in
      let n, h, self, sim =
        Option.value ~default:(0, 0.0, 0.0, 0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        (n + 1, h +. dur, self +. (dur -. covered s), sim + (s.sim_stop - s.sim_start)))
    closed;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write_spans path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"spans\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"op\": %d, \
         \"host_start_us\": %.3f, \"host_stop_us\": %.3f, \"sim_start_ns\": \
         %d, \"sim_stop_ns\": %d}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.op
        ((s.host_start -. epoch) *. 1e6)
        ((s.host_stop -. epoch) *. 1e6)
        s.sim_start s.sim_stop)
    (List.rev !spans);
  output_string oc "]}\n"
