module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Machine = Encl_litterbox.Machine
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Attrib = Encl_obs.Attrib

type axis =
  | Knob of Knob.t
  | Backends of Scenarios.config * Scenarios.config
  | Cores of int * int

let parse_axis s =
  let knobs = List.map (fun (k : Knob.t) -> k.Knob.name) Knob.all in
  let bad =
    Error
      (Printf.sprintf "bad axis %s: expected knob:%s, backend:X,Y or cores:N,M"
         s (String.concat "|" knobs))
  in
  let pair v = String.split_on_char ',' v in
  match String.split_on_char ':' s with
  | [ "knob"; name ] ->
      Option.fold ~none:bad ~some:(fun k -> Ok (Knob k)) (Knob.find name)
  | [ "backend"; v ] -> (
      match List.map Encl_litterbox.Backend.config_of_string (pair v) with
      | [ Ok x; Ok y ] -> Ok (Backends (x, y))
      | [ Error e; _ ] | [ _; Error e ] -> Error e
      | _ -> bad)
  | [ "cores"; v ] -> (
      match List.map int_of_string_opt (pair v) with
      | [ Some n; Some m ] when n >= 1 && m >= 1 -> Ok (Cores (n, m))
      | _ -> bad)
  | _ -> bad

(* An expectation [M:DIR[:R]] as its metric and the test (A, B) must
   pass. Each test fails on NaN: [a > b], never [not (a <= b)]. *)
let parse_expect s =
  let ratio r =
    Option.bind (float_of_string_opt r) (fun r ->
        if r > 0.0 then Some r else None)
  in
  let test = function
    | [ "higher" ] -> Some (fun a b -> a > b)
    | [ "lower" ] -> Some (fun a b -> a < b)
    | [ "higher"; r ] -> Option.map (fun r a b -> a >= r *. b) (ratio r)
    | [ "lower"; r ] -> Option.map (fun r a b -> a <= r *. b) (ratio r)
    | _ -> None
  in
  (* [split_on_char] never returns the empty list. *)
  let parts = String.split_on_char ':' s in
  match test (List.tl parts) with
  | Some holds -> Ok (s, List.hd parts, holds)
  | None ->
      Error
        ("bad expectation " ^ s ^ ": expected METRIC:higher|lower[:R], R > 0")

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type side = { label : string; rt : Runtime.t; report : Scenarios.report }

let lb_count f s = match Runtime.lb s.rt with Some lb -> f lb | None -> 0
let ratio num den = float_of_int num /. float_of_int den

(* Attributed share of the elapsed clock taken by span categories. *)
let share cats s =
  let a = Obs.attribution (Runtime.machine s.rt).Machine.obs in
  let cell c = Attrib.category_total a (Span.category_name c) in
  ratio (List.fold_left (fun acc c -> acc + cell c) 0 cats) (Attrib.elapsed a)

let derived : (string * (side -> float)) list =
  let i f s = float_of_int (f s) in
  let kernel s = (Runtime.machine s.rt).Machine.kernel in
  [
    ("vm_exits", i (lb_count Lb.vmexit_count));
    ( "batch_avg",
      fun s ->
        match lb_count Lb.ring_batches_count s with
        | 0 -> 0.0
        | batches -> ratio (lb_count Lb.ring_drained_count s) batches );
    (* Privilege crossings into the kernel: workload syscalls that
       trapped on their own, plus one per ring drain. With equal
       workload syscalls on both sides, the ring side has fewer exactly
       when its drains average more than one entry. *)
    ( "crossings",
      i (fun s ->
          List.fold_left
            (fun acc (_, n) -> acc + n)
            0
            (Scenarios.workload_syscalls s.rt)
          - lb_count Lb.ring_drained_count s
          + lb_count Lb.ring_batches_count s) );
    ( "bytes_copied",
      i (fun s ->
          K.bytes_copied_count (kernel s)
          + (Runtime.machine s.rt).Machine.bytes_copied) );
    ("elided_switches", i (lb_count Lb.switch_elided_count));
    ("hit_rate", fun s -> K.seccomp_cache_hit_rate (kernel s));
    ("switch_share", share [ Span.Prolog; Span.Epilog ]);
    ("enforcement_share", share [ Span.Prolog; Span.Epilog; Span.Seccomp ]);
    ("switch_ns", i (fun s -> Clock.spent (Runtime.clock s.rt) Clock.Switch));
    ("access_ns", i (fun s -> Clock.spent (Runtime.clock s.rt) Clock.Access));
    ("steal_count", i (fun s -> Sched.steal_count (Runtime.sched s.rt)));
    ( "affinity_hit_rate",
      fun s ->
        let sched = Runtime.sched s.rt in
        let hits = Sched.affinity_hit_count sched in
        ratio hits (max 1 (hits + Sched.switch_count sched)) );
  ]

let metric s name =
  match List.assoc_opt name s.report.Scenarios.metrics with
  | Some v -> Some v
  | None -> Option.map (fun f -> f s) (List.assoc_opt name derived)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let enforcement_problem scenario a b =
  let summary s = Scenarios.enforcement ~label:scenario s.rt s.report in
  let rec first_diff n = function
    | x :: xs, y :: ys when x = y -> first_diff (n + 1) (xs, ys)
    | [], [] -> None
    | x, y ->
        let line = function l :: _ -> String.trim l | [] -> "(end)" in
        Some
          (Printf.sprintf
             "enforcement diverged at summary line %d: %s `%s` vs %s `%s`" n
             a.label (line x) b.label (line y))
  in
  first_diff 1 (summary a, summary b)

let expect_problem a b (spec, m, holds) =
  match (metric a m, metric b m) with
  | Some va, Some vb when holds va vb -> None
  | Some va, Some vb ->
      Some
        (Printf.sprintf "%s failed: %s %g vs %s %g (ratio %.3f)" spec a.label
           va b.label vb (va /. vb))
  | _ ->
      Some
        (Printf.sprintf "unknown metric %s (scenario metrics and: %s)" m
           (String.concat ", " (List.map fst derived)))

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)

type t = { a : side; b : side; failures : string list }

let run ?rcfg ?requests ?(expect = []) ~scenario:(name, runner) ~backend axis =
  (* One side: its backend, pinned core count and knob setting ([wrap]);
     the scenario runs with observability on. *)
  let side ?(config = backend) ?cores ?(wrap = fun f -> f ()) label () =
    let rcfg =
      Option.map
        (fun c -> { c with Runtime.backend = config })
        (Scenarios.with_cores ?rcfg ?cores config)
    in
    let go () =
      Obs.with_default true (fun () -> runner config ?rcfg ?requests ())
    in
    match wrap go with
    | Ok (rt, report) -> Ok { label; rt; report }
    | Error e -> Error (Printf.sprintf "%s: %s: %s" name label e)
  in
  let bname = Scenarios.config_name backend in
  let a, b =
    match axis with
    | Knob k ->
        let s v =
          side ~wrap:(Knob.with_value k v)
            (Printf.sprintf "%s %s=%s" bname k.Knob.name
               (if v then "on" else "off"))
        in
        (s true, s false)
    | Backends (x, y) ->
        let s c = side ~config:c (Scenarios.config_name c) in
        (s x, s y)
    | Cores (n, m) ->
        let s c = side ~cores:c (Printf.sprintf "%s %d-core" bname c) in
        (s n, s m)
  in
  let ( let* ) = Result.bind in
  let* expect =
    List.fold_right
      (fun s acc ->
        let* e = parse_expect s in
        Result.map (List.cons e) acc)
      expect (Ok [])
  in
  let* a = a () in
  let* b = b () in
  let alone s = List.map (( ^ ) (s.label ^ ": ")) (Runtime.audit s.rt) in
  let failures =
    alone a @ alone b
    @ Option.to_list (enforcement_problem name a b)
    @ List.filter_map (expect_problem a b) expect
  in
  let failures = List.map (fun f -> name ^ ": " ^ f) failures in
  Ok { a; b; failures }

let render scenario t names =
  let v side name =
    Option.fold ~none:"?" ~some:(Printf.sprintf "%.10g")
      (metric side (List.hd (String.split_on_char ':' name)))
  in
  String.concat ""
    (Printf.sprintf "%s: A = %s, B = %s\n" scenario t.a.label t.b.label
    :: List.map
         (fun n ->
           Printf.sprintf "  %-28s A %-14s B %s\n" n (v t.a n) (v t.b n))
         names)
