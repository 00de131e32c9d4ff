(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --workload NAME --seed N --pin-check

   Runs one of four enclosure workloads for S seconds of host time as
   repeated rounds (each a fresh boot from the seed's inputs), checks
   every output, and prints a table followed by one JSON line. With
   --trace 0 the JSON holds the end-to-end metrics, measured with
   observability off; with --trace 1 it holds the per-layer metrics,
   from untraced rounds, rounds traced with the observability sink on,
   and host-cost probes. --pin-check prints the simulated figures of one
   short round, so a caller can compare them across environments.
   Exits 1 when an output check or a self-check fails. *)

module Lb = Encl_litterbox.Litterbox
module Obs = Encl_obs.Obs
module Attrib = Encl_obs.Attrib
module Witness = Encl_obs.Witness
module W = Workloads

type workload = {
  name : string;
  why : string;
  clients : string;
  op_unit : string;
  backend : Lb.backend;
  ops : int;  (** ops per round *)
  pin_ops : int;  (** ops of the short round the pinning check compares *)
  round :
    probe:bool -> backend:Lb.backend option -> seed:int -> ops:int -> traced:bool -> W.round;
  slowdowns : (unit -> Faithful.cell) list;
}

let workloads =
  [
    {
      name = "http_vtx";
      why =
        "kernel trap, seccomp, syscall ring and VM-exit path do the enforcement work \
         (~12 syscalls, ~1.6 VM exits per request)";
      clients = "closed loop, 8 persistent connections";
      op_unit = "request (GET of the 13 KiB page)";
      backend = Lb.Vtx;
      ops = 2000;
      pin_ops = 200;
      round = W.http_round;
      slowdowns = [ Faithful.http_vtx ];
    };
    {
      name = "bild_mpk";
      why = "allocator and arena transfers do the work (~385 transfers per invert)";
      clients = "one caller, back-to-back inverts";
      op_unit = "invert of a 512x512 RGBA image";
      backend = Lb.Mpk;
      ops = 4;
      pin_ops = 1;
      round = W.bild_round;
      slowdowns = [ Faithful.bild_mpk; Faithful.http_mpk ];
    };
    {
      name = "wiki_mpk_4core";
      why =
        "two enclosures and trusted glue hand off over channels on 4 cores: Execute \
         switches, work stealing, affinity; 1% writes beside reads";
      clients = "closed loop, 4 connections, 99% GET / 1% POST";
      op_unit = "request";
      backend = Lb.Mpk;
      ops = 2000;
      pin_ops = 200;
      round = W.wiki_round ~cores:4;
      slowdowns = [ Faithful.bild_mpk; Faithful.http_mpk ];
    };
    {
      name = "python_vtx";
      why =
        "four trusted switches per point put >90% of simulated time in the switch path \
         and pylike refcount excursions";
      clients = "one plot job at a time";
      op_unit = "plotted point (250k per job; latency is per job)";
      backend = Lb.Vtx;
      ops = W.points;
      pin_ops = 20_000;
      round = W.python_round;
      slowdowns = [ Faithful.http_vtx; Faithful.python_vtx ];
    };
  ]

(* Every knob and default the library would otherwise read from the
   environment (ENCL_FASTPATH, ENCL_SYSRING, ENCL_ZEROCOPY,
   ENCL_DEFENSES_OFF) is set here; core counts are pinned in each
   workload's runtime configuration. *)
let pin_knobs () =
  Fastpath.set true;
  Sysring.set true;
  Zerocopy.set true;
  List.iter (fun d -> Defense.set d true) Defense.all;
  Obs.default_enabled := false;
  Witness.default_enabled := false

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))

let print_table title rows =
  Printf.printf "\n%s\n" title;
  List.iter (fun (n, u, v) -> Printf.printf "  %-36s %16.4f %s\n" n v u) rows

(* Percentile of simulated latencies, in microseconds. *)
let latency_us lat q = Host.quantile q (List.map float_of_int (Array.to_list lat)) /. 1000.0

let sig_of (r : W.round) = (r.failed, r.lat_ns, r.delta)

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

type check = { what : string; ok : bool }

(* Failed ops of a round: output checks, plus any enclosure fault or
   killed fiber over the system's lifetime. *)
let failures (r : W.round) = min r.ops (r.failed + r.life_failures)

let run_round ?(probe = false) w ~seed ~traced =
  W.sim_clock := None;
  Gc.full_major ();
  w.round ~probe ~backend:(Some w.backend) ~seed ~ops:w.ops ~traced

(* Rounds until the deadline (at least one). [traced_too] follows each
   untraced round with a traced one; the first pair also probes host
   costs and records the benchmark's spans. *)
let rounds w ~seed ~seconds ~traced_too =
  let deadline = Host.now () +. float_of_int seconds in
  let rec go acc =
    let u = run_round ~probe:(traced_too && acc = []) w ~seed ~traced:false in
    let t =
      if traced_too then begin
        Host.recording := acc = [];
        let t = run_round w ~seed ~traced:true in
        Host.recording := false;
        [ t ]
      end
      else []
    in
    let acc = (u, t) :: acc in
    if Host.now () >= deadline then List.rev acc else go acc
  in
  let rs = go [] in
  (List.map fst rs, List.concat_map snd rs)

let round_checks ~untraced ~traced =
  let first = List.hd untraced in
  [
    { what = "clock categories sum to simulated CPU ns (every round)";
      ok = List.for_all (fun (r : W.round) -> Counters.conserved r.delta) (untraced @ traced) };
    { what = "untraced rounds repeat exactly";
      ok = List.for_all (fun r -> sig_of r = sig_of first) untraced };
  ]
  @
  if traced = [] then []
  else
    [
      { what = "traced rounds equal untraced (simulated metrics and counts)";
        ok = List.for_all (fun r -> sig_of r = sig_of first) traced };
      { what = "attribution ledger conserved (Attrib.conserved)";
        ok = List.for_all (fun (r : W.round) -> r.ledger_conserved) traced };
    ]

let median_of f l = Host.median (List.map f l)

(* Host us per op: per round, the median over its small slices (batch,
   invert, chunk of points), each scaled to the nominal host speed (see
   {!Host}); then the median over rounds. [scaled:false] gives the raw
   reading. *)
let host_us_per_op ?(scaled = true) rounds =
  median_of
    (fun (r : W.round) ->
      Host.median (List.map (fun (v, k) -> if scaled then v *. k else v) !(r.timers.samples)))
    rounds

let setup_s ?(scaled = true) rounds =
  median_of (fun (r : W.round) -> r.setup_s *. if scaled then r.setup_scale else 1.0) rounds

let report_checks ~attempted ~failed checks =
  Printf.printf "\noutput checks: %d failed of %d attempted (fail_ratio %.6f)\n" failed
    attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter
    (fun c -> Printf.printf "self-check: %-62s %s\n" c.what (if c.ok then "ok" else "FAILED"))
    checks;
  failed = 0 && List.for_all (fun c -> c.ok) checks

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)

let end_to_end w ~seed ~seconds =
  let cells = Faithful.cells ~backend:w.backend ~slowdowns:w.slowdowns in
  let untraced, _ = rounds w ~seed ~seconds ~traced_too:false in
  let first = List.hd untraced in
  let wall_s = float_of_int (Counters.get first.delta "wall_ns") /. 1e9 in
  let attempted = List.fold_left (fun acc (r : W.round) -> acc + r.ops) 0 untraced in
  let failed = List.fold_left (fun acc r -> acc + failures r) 0 untraced in
  Printf.printf "\nfaithful leg (all knobs off) vs the paper, backend %s:\n"
    (Lb.backend_name w.backend);
  List.iter
    (fun (c : Faithful.cell) ->
      Printf.printf "  %-36s measured %12.4f  paper %10.4f  dev %6.3f%%\n" c.name c.measured
        c.paper (Faithful.dev_pct c))
    cells;
  let metrics =
    [
      ("sim_ops_per_s", "op/sim_s", float_of_int first.ops /. wall_s);
      ("sim_lat_p50_us", "sim_us", latency_us first.lat_ns 0.50);
      ("sim_lat_p99_us", "sim_us", latency_us first.lat_ns 0.99);
      ("host_us_per_op", "us", host_us_per_op untraced);
      ("setup_s", "s", setup_s untraced);
      ("host_peak_rss_mb", "MB", Host.peak_rss_mb ());
      ("paper_dev_pct", "%", Faithful.max_dev_pct cells);
    ]
  in
  print_table
    (Printf.sprintf "end-to-end (%d rounds of %d ops; %d latency samples in round 1):"
       (List.length untraced) w.ops (Array.length first.lat_ns))
    (metrics @ [ ("fail_ratio", "ratio", float_of_int failed /. float_of_int attempted) ]);
  Printf.printf
    "  (host times scaled to a %.1f ms reference; unscaled: host_us_per_op %.4f, setup_s \
     %.6f, reference kernel median %.3f ms)\n"
    (Host.nominal_reference_s *. 1e3)
    (host_us_per_op ~scaled:false untraced)
    (setup_s ~scaled:false untraced)
    (median_of (fun (r : W.round) -> Host.nominal_reference_s /. r.scale *. 1e3) untraced);
  let correct = report_checks ~attempted ~failed (round_checks ~untraced ~traced:[]) in
  print_result ~correct ~attempted ~failed metrics;
  correct

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)

let sum_cells (r : W.round) pred =
  List.fold_left (fun acc ((_, cat), ns) -> if pred cat then acc + ns else acc) 0 r.cells

(* Inclusive transfer time: every collapsed stack with a transfer frame. *)
let transfer_inclusive (r : W.round) =
  List.fold_left
    (fun acc (stack, ns) ->
      match String.split_on_char ';' stack with
      | _lane :: frames
        when List.exists (fun f -> String.length f >= 9 && String.sub f 0 9 = "transfer:") frames ->
          acc + ns
      | _ -> acc)
    0 r.stacks

let write_attribution path (r : W.round) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let per_op ns = float_of_int ns /. float_of_int r.ops in
  Printf.fprintf oc "{\"ops\": %d,\n \"clock_ns_per_op\": {%s},\n \"cells_ns_per_op\": [%s],\n \"stacks_ns_per_op\": [%s]}\n"
    r.ops
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "%S: %s" (Clock.category_name c)
              (json_num (per_op (Counters.get r.delta ("clock." ^ Clock.category_name c)))))
          Clock.all_categories))
    (String.concat ",\n   "
       (List.map
          (fun ((scope, cat), ns) ->
            Printf.sprintf "{\"scope\": %S, \"category\": %S, \"ns\": %s}" scope cat
              (json_num (per_op ns)))
          r.cells))
    (String.concat ",\n   "
       (List.map (fun (s, ns) -> Printf.sprintf "[%S, %s]" s (json_num (per_op ns))) r.stacks))

let all_probe_metrics =
  [
    "litterbox.host_ns_per_switch";
    "kernel.host_ns_per_syscall";
    "litterbox.host_ns_per_transfer";
    "golike.host_ns_per_alloc";
    "pylike.host_ns_per_refcount";
  ]

let per_layer w ~seed ~seconds =
  let untraced, traced = rounds w ~seed ~seconds ~traced_too:true in
  let first = List.hd untraced and tfirst = List.hd traced in
  let ops = float_of_int first.ops in
  let attempted =
    List.fold_left (fun acc (r : W.round) -> acc + r.ops) 0 (untraced @ traced)
  in
  let failed = List.fold_left (fun acc r -> acc + failures r) 0 (untraced @ traced) in
  let host_per_op f =
    median_of (fun (r : W.round) -> !(f r.timers) /. ops *. 1e6 *. r.scale) untraced
  in
  let untraced_us = host_us_per_op untraced in
  let traced_us = host_us_per_op traced in
  let sim =
    Counters.layer_metrics ~ops:first.ops ~cores:first.cores first.delta
    @ [
        ("kernel.seccomp_ns_per_op", "ns", float_of_int (sum_cells tfirst (( = ) "seccomp")) /. ops);
        ("golike.sched_ns_per_op", "ns", float_of_int (sum_cells tfirst (( = ) "sched")) /. ops);
        ("litterbox.transfer_incl_ns_per_op", "ns", float_of_int (transfer_inclusive tfirst) /. ops);
      ]
  in
  let host =
    [
      ("golike.kick_host_us_per_op", "us", host_per_op (fun t -> t.W.kick));
      ("kernel.client_host_us_per_op", "us", host_per_op (fun t -> t.W.client));
      ("apps.db_host_us_per_op", "us", host_per_op (fun t -> t.W.db));
    ]
    @ List.map
        (fun m ->
          (m, "ns", first.scale *. Option.value ~default:0.0 (List.assoc_opt m first.probe_ns)))
        all_probe_metrics
    @ [ ("obs.host_overhead_pct", "%", 100.0 *. ((traced_us /. untraced_us) -. 1.0)) ]
  in
  print_table
    (Printf.sprintf "per-layer, simulated (round 1 of %d; identical in every round):"
       (List.length untraced))
    sim;
  print_table
    (Printf.sprintf
       "per-layer, host (medians of %d untraced and %d traced rounds; probes x%d; scaled to a \
        %.1f ms reference):"
       (List.length untraced) (List.length traced) W.probe_k (Host.nominal_reference_s *. 1e3))
    host;
  if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
  let stem = Printf.sprintf ".bench_out/%s-seed%d" w.name seed in
  Host.write_spans (stem ^ ".spans.json");
  write_attribution (stem ^ ".attrib.json") tfirst;
  Printf.printf "\nbenchmark spans (%d recorded, written to %s.spans.json):\n" (Host.span_count ())
    stem;
  List.iter
    (fun (name, (n, h, self, simns)) ->
      Printf.printf "  %-40s n=%-7d host %10.3f ms  self %10.3f ms  sim %14d ns\n" name n
        (h *. 1e3) (self *. 1e3) simns)
    (Host.summary ());
  let correct = report_checks ~attempted ~failed (round_checks ~untraced ~traced) in
  print_result ~correct ~attempted ~failed (sim @ host);
  correct

(* ------------------------------------------------------------------ *)
(* --pin-check                                                         *)

let pin_check w ~seed =
  let r = w.round ~probe:false ~backend:(Some w.backend) ~seed ~ops:w.pin_ops ~traced:false in
  let failed, lat, delta = sig_of r in
  Printf.printf "PIN %s failed=%d lat=%s %s\n" w.name failed
    (String.concat "," (Array.to_list (Array.map string_of_int lat)))
    (String.concat " "
       (Array.to_list (Array.mapi (fun i v -> Printf.sprintf "%s=%d" Counters.names.(i) v) delta)));
  failed = 0

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N (--seconds S --trace 0|1 | --pin-check)";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  let pin = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--pin-check" :: rest -> pin := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  (* The simulator keeps guest pages and copy buffers in the major heap;
     with the default pacing, major-GC timing alone moves bild's host
     time by a third between runs. *)
  Gc.set { (Gc.get ()) with space_overhead = 200 };
  pin_knobs ();
  let ok =
    if !pin then pin_check w ~seed:!seed
    else begin
      Printf.printf "workload %s (seed %d, %ds, trace %d)\n  why: %s\n  clients: %s\n  op: %s\n"
        w.name !seed !seconds !trace w.why w.clients w.op_unit;
      if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
      else per_layer w ~seed:!seed ~seconds:!seconds
    end
  in
  exit (if ok then 0 else 1)
