(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6) on the simulated machine, and checks every
   A/B claim (see [claims]); it exits 1 when a claim fails.

   Set ENCL_BENCH_QUICK=1 to shrink workload sizes (CI mode). *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Scenarios = Encl_apps.Scenarios
module Ab = Encl_apps.Ab
module Legacy = Encl_attack.Legacy
module Attack = Encl_attack.Attack
module Backend = Encl_litterbox.Backend
module Bild = Encl_apps.Bild
module Fasthttp = Encl_apps.Fasthttp
module Plot = Encl_pylike.Plot_experiment
module Pyrt = Encl_pylike.Pyrt

let quick = Sys.getenv_opt "ENCL_BENCH_QUICK" = Some "1"

(* Every backend, from the one canonical list: a backend added to
   [Backend.all] shows up in every table below with no edits here. *)
let backends = Encl_litterbox.Backend.all
let enclosed = List.map Option.some backends
let configs = None :: enclosed

(* Every legacy table runs on the classic single-core machine no matter
   what ENCL_CORES says, so the committed baseline rows never depend on
   the environment; the SMP claims pin their core counts per side. *)
let rcfg_of config =
  match config with
  | None -> { Runtime.baseline with Runtime.cores = 1 }
  | Some b -> { (Runtime.with_backend b) with Runtime.cores = 1 }

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Every scenario the bench runs is sized to measure: a refusal is a
   harness bug. *)
let get = function Ok v -> v | Error e -> failwith ("bench: " ^ e)
let report outcome = snd (get outcome)
let metric = Scenarios.metric

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_results.json)                       *)

module Json = Encl_obs.Export.Json

let results : Json.t list ref = ref []

(* One value the paper reports: its table or section, and the bench row
   (workload, configuration, metric) it sits on. Rows' [paper] fields
   and the printed notes read these, so each value is written once. *)
type cell = {
  source : string;
  workload : string;
  config : Scenarios.config;
  metric : string;
  value : float;
}

let paper_cells =
  let row ?(configs = [ None; Some Lb.Mpk; Some Lb.Vtx ]) source workload metric
      =
    List.map2 (fun config value -> { source; workload; config; metric; value })
      configs
  in
  let python = row ~configs:[ Some Lb.Vtx ] "Section 6.4" "python" in
  List.concat
    [
      row "Table 1" "table1" "call_ns" [ 45.; 86.; 924. ];
      row "Table 1" "table1" "transfer_ns" [ 0.; 1002.; 158. ];
      row "Table 1" "table1" "syscall_ns" [ 387.; 523.; 4126. ];
      row "Table 2" "bild" "ms_per_invert"
        [ 13.25; 13.25 *. 1.12; 13.25 *. 1.05 ];
      row "Table 2" "http" "req_per_sec"
        [ 16991.; 16991. /. 1.02; 16991. /. 1.77 ];
      row "Table 2" "fasthttp" "req_per_sec"
        [ 22867.; 22867. /. 1.04; 22867. /. 2.01 ];
      python "conservative_slowdown" [ 18.0 ];
      python "switches" [ 1e6 ];
      python "init_share_pct" [ 4.3 ];
      python "decoupled_slowdown" [ 1.4 ];
    ]

let cells ~workload ~metric =
  List.filter (fun c -> c.workload = workload && c.metric = metric) paper_cells

(* " [paper SOURCE: V / V / V]" over a row's cells; with [slowdown], the
   enclosed cells show as [slowdown base cell]. *)
let paper_note ?slowdown ~workload ~metric () =
  match cells ~workload ~metric with
  | [] -> ""
  | base :: _ as cs ->
      let show c =
        match slowdown with
        | Some f when c != base -> Printf.sprintf "%.2fx" (f base.value c.value)
        | _ -> Printf.sprintf "%g" c.value
      in
      Printf.sprintf " [paper %s: %s]" base.source
        (String.concat " / " (List.map show cs))

(* One row per (workload, backend, metric), with its paper cell's value
   when the paper reports one. *)
let add_result ~workload ~backend ~metric value =
  let paper =
    List.find_opt
      (fun c -> Scenarios.config_name c.config = backend)
      (cells ~workload ~metric)
  in
  results :=
    Json.Obj
      [
        ("workload", Json.String workload);
        ("backend", Json.String backend);
        ("metric", Json.String metric);
        ("value", Json.Float value);
        ( "paper",
          match paper with Some c -> Json.Float c.value | None -> Json.Null );
      ]
    :: !results

(* One row per metric in [names], valued by [value]. *)
let add_metrics ~workload ~backend value names =
  List.iter
    (fun metric -> add_result ~workload ~backend ~metric (value metric))
    names

let add_row ~workload ~metric values =
  List.iter
    (fun (config, value) ->
      add_result ~workload ~backend:(Scenarios.config_name config) ~metric
        value)
    values

let write_results () =
  let doc =
    Json.Obj
      [ ("quick", Json.Bool quick); ("rows", Json.List (List.rev !results)) ]
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%d rows)\n"
    (List.length !results)

(* ------------------------------------------------------------------ *)
(* Micro-benchmark program (Table 1)                                   *)

let micro_boot config =
  get
    (Runtime.boot (rcfg_of config) ~packages:(Scenarios.table1_packages ())
       ~entry:"main")

let median values =
  let sorted = List.sort compare values in
  List.nth sorted (List.length sorted / 2)

let iters = if quick then 1_000 else 100_000

(* Median simulated ns of [n] calls of [f] on [rt]'s clock. *)
let median_ns rt n f =
  let clock = Runtime.clock rt in
  median
    (List.init n (fun _ ->
         let t0 = Clock.now clock in
         f ();
         Clock.now clock - t0))

(* Time to call and return from an empty enclosure. *)
let micro_call config =
  let rt = micro_boot config in
  median_ns rt iters (fun () ->
      Runtime.with_enclosure rt "enc" (fun () -> ()))

(* Transfer of a 4-page memory section. *)
let micro_transfer config =
  match config with
  | None -> 0 (* no LitterBox: spans never change protection domains *)
  | Some _ ->
      let rt = micro_boot config in
      let lb = Option.get (Runtime.lb rt) in
      let addr = Runtime.syscall_exn rt (K.Mmap { len = 4 * Phys.page_size }) in
      let flip = ref false in
      median_ns rt (min iters 20_000) (fun () ->
          let to_pkg = if !flip then "img" else "lib" in
          flip := not !flip;
          Lb.transfer lb ~addr ~len:(4 * Phys.page_size) ~to_pkg
            ~site:"runtime.mallocgc")

(* getuid(2) in a loop, from inside an enclosure that permits it. *)
let micro_syscall config =
  let rt = micro_boot config in
  let measure () =
    median_ns rt iters (fun () -> ignore (Runtime.syscall rt K.Getuid))
  in
  match config with
  | None -> measure ()
  | Some _ -> Runtime.with_enclosure rt "io" measure

let table1 () =
  section "Table 1: Microbenchmarks (ns, median)";
  let rows =
    [
      ("call", micro_call);
      ("transfer", micro_transfer);
      ("syscall", micro_syscall);
    ]
  in
  Printf.printf "%-10s" "";
  List.iter
    (fun c -> Printf.printf " %10s" (Scenarios.config_name c))
    configs;
  print_newline ();
  List.iter
    (fun (name, f) ->
      let values = List.map f configs in
      add_row ~workload:"table1" ~metric:(name ^ "_ns")
        (List.combine configs (List.map float_of_int values));
      Printf.printf "%-10s" name;
      List.iter (fun v -> Printf.printf " %10d" v) values;
      Printf.printf "%s\n%!"
        (paper_note ~workload:"table1" ~metric:(name ^ "_ns") ()))
    rows;
  Printf.printf
    "(SFI's call ~pays only the trampoline, its transfer only bounds \
     metadata)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: macrobenchmarks                                            *)

(* A req/s row over [configs]: recorded, and printed with each
   backend's slowdown against the baseline, then the paper's cells and
   [note]. *)
let throughput_row ~label ~workload ?(note = "") run =
  let rps = List.map (fun c -> metric (report (run c)) "req_per_sec") configs in
  add_row ~workload ~metric:"req_per_sec" (List.combine configs rps);
  let b = List.hd rps in
  Printf.printf "%-10s %7.0freq/s" label b;
  List.iter
    (fun v -> Printf.printf " %7.0freq/s (%.2fx)" v (b /. v))
    (List.tl rps);
  Printf.printf "%s%s\n%!"
    (paper_note ~workload ~metric:"req_per_sec" ~slowdown:( /. ) ())
    note

(* Workload sizes shared by Table 2 and the A/B claims. *)
let requests = if quick then 200 else 2000
let bild_dim = if quick then 256 else 1024

(* The registry's bild at the bench's image size. *)
let bild : Scenarios.runner =
 fun c ?rcfg ?requests:_ () ->
  Scenarios.bild c ?rcfg ~width:bild_dim ~height:bild_dim
    ~iters:(if quick then 1 else 3) ()

let table2 () =
  section "Table 2: Macrobenchmarks";
  let ms_res =
    List.map
      (fun c ->
        metric (report (bild c ~rcfg:(rcfg_of c) ())) "ns_per_invert" /. 1e6)
      configs
  in
  add_row ~workload:"bild" ~metric:"ms_per_invert"
    (List.combine configs ms_res);
  (match ms_res with
  | b :: rest ->
      Printf.printf "bild       %8.2fms " b;
      List.iter (fun v -> Printf.printf " %8.2fms (%.2fx)" v (v /. b)) rest;
      Printf.printf "%s\n%!"
        (paper_note ~workload:"bild" ~metric:"ms_per_invert"
           ~slowdown:(fun b v -> v /. b) ())
  | [] -> assert false);
  throughput_row ~label:"HTTP" ~workload:"http" (fun c ->
      Scenarios.http c ~rcfg:(rcfg_of c) ~requests ());
  throughput_row ~label:"FastHTTP" ~workload:"fasthttp" (fun c ->
      Scenarios.fasthttp c ~rcfg:(rcfg_of c) ~requests ());
  (* The TCB-information columns of Table 2. *)
  Printf.printf
    "\nBenchmark information (Table 2, right side):\n%-10s %-10s %-14s %-12s\n"
    "App" "#Enclosed" "#Public deps" "enclosures";
  Printf.printf "%-10s %-10d %-14d %s\n" "bild" (1 + Bild.dep_count) 1
    "rcl (secrets:R; sys=none)";
  Printf.printf "%-10s %-10d %-14d %s\n" "HTTP" 0 0
    "handler_enc (assets:R; sys=none)";
  Printf.printf "%-10s %-10d %-14d %s\n" "FastHTTP" (1 + Fasthttp.dep_count) 1
    "fasthttp_srv (; sys=net)"

(* ------------------------------------------------------------------ *)
(* Figure 5: the wiki application                                      *)

let figure5 () =
  section "Figure 5: wiki-like web application (mux + pq + Postgres)";
  let requests = if quick then 120 else 1000 in
  throughput_row ~label:"wiki" ~workload:"wiki"
    ~note:
      "\n(paper: \"the throughput slowdown is similar to the one in the \
       FastHTTP experiment\")"
    (fun c -> Scenarios.wiki c ~rcfg:(rcfg_of c) ~requests ());
  match Scenarios.wiki_check (Some Lb.Vtx) with
  | Ok body ->
      Printf.printf "functional check (POST then GET through both enclosures): %s\n"
        body
  | Error e -> Printf.printf "functional check FAILED: %s\n" e

(* ------------------------------------------------------------------ *)
(* §6.4: Python enclosures                                             *)

let python () =
  section "Section 6.4: Python enclosures (matplotlib plot of secret data)";
  let points = if quick then 25_000 else 250_000 in
  let base = Plot.run ~mode:Pyrt.Conservative ~points () in
  let cons = Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Conservative ~points () in
  let dec = Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Decoupled ~points () in
  let ms ns = float_of_int ns /. 1e6 in
  let slow r = float_of_int r.Plot.total_ns /. float_of_int base.Plot.total_ns in
  add_result ~workload:"python" ~backend:"LB_VTX"
    ~metric:"conservative_slowdown" (slow cons);
  add_result ~workload:"python" ~backend:"LB_VTX" ~metric:"decoupled_slowdown"
    (slow dec);
  let paper metric = (List.hd (cells ~workload:"python" ~metric)).value in
  Printf.printf "%-22s %10s %10s %10s %12s\n" "" "total" "switch" "init" "switches";
  Printf.printf "%-22s %8.1fms %8.1fms %8.1fms %12d\n" "CPython baseline"
    (ms base.Plot.total_ns) (ms base.Plot.switch_ns) (ms base.Plot.init_ns)
    base.Plot.switches;
  Printf.printf
    "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.1fx  [paper ~%gx, ~%gM switches]\n"
    "LB_VTX conservative" (ms cons.Plot.total_ns) (ms cons.Plot.switch_ns)
    (ms cons.Plot.init_ns) cons.Plot.switches (slow cons)
    (paper "conservative_slowdown")
    (paper "switches" /. 1e6);
  Printf.printf "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.2fx [paper ~%gx]\n"
    "LB_VTX decoupled" (ms dec.Plot.total_ns) (ms dec.Plot.switch_ns)
    (ms dec.Plot.init_ns) dec.Plot.switches (slow dec)
    (paper "decoupled_slowdown");
  Printf.printf
    "init share of conservative slowdown: %.1f%% (paper: %g%%); syscall share: %.2f%%\n"
    (100.0
    *. float_of_int cons.Plot.init_ns
    /. float_of_int (cons.Plot.total_ns - base.Plot.total_ns))
    (paper "init_share_pct")
    (100.0
    *. float_of_int (cons.Plot.syscall_ns - base.Plot.syscall_ns)
    /. float_of_int (cons.Plot.total_ns - base.Plot.total_ns));
  (* Beyond the paper: the same conservative port under LB_MPK, whose
     41ns switch pair makes even per-refcount excursions affordable. *)
  let mpk_cons = Plot.run ~backend:Lb.Mpk ~mode:Pyrt.Conservative ~points () in
  Printf.printf
    "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.2fx [extension: not in the paper]\n"
    "LB_MPK conservative" (ms mpk_cons.Plot.total_ns) (ms mpk_cons.Plot.switch_ns)
    (ms mpk_cons.Plot.init_ns) mpk_cons.Plot.switches (slow mpk_cons)

(* ------------------------------------------------------------------ *)
(* §6.5: security                                                      *)

let security () =
  section "Section 6.5: malicious-package attacks";
  Printf.printf "%-14s %-20s %-6s %-8s %-6s\n" "attack" "mitigation" "legit"
    "blocked" "exfil";
  List.iter
    (fun attack ->
      List.iter
        (fun mitigation ->
          let backend =
            match mitigation with Legacy.Unprotected -> None | _ -> Some Lb.Mpk
          in
          let o = Legacy.run ~backend attack mitigation in
          Printf.printf "%-14s %-20s %-6b %-8b %-6d\n%!"
            (Legacy.attack_name attack)
            (Legacy.mitigation_name mitigation)
            o.Legacy.legit_ok o.Legacy.attack_blocked o.Legacy.exfiltrated)
        Legacy.all_mitigations)
    Legacy.all_attacks;
  Printf.printf
    "(ssh-decorator needs mitigation 1 or 2 to keep working while contained, \
     as in the paper)\n"

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)

let ablations () =
  section "Ablations";
  (* 1. Meta-package clustering (paper 5.3). Without it, every package
     needs its own protection key and LB_MPK cannot even initialize the
     FastHTTP program (104 packages). *)
  let main =
    Runtime.package "main" ~imports:[ Fasthttp.pkg ]
      ~functions:[ ("main", 64); ("b", 32) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "srv";
            enc_policy = "; sys=net";
            enc_closure = "b";
            enc_deps = [ Fasthttp.pkg ];
          };
        ]
      ()
  in
  let packages = main :: Fasthttp.packages () in
  let npkgs = List.length packages + 2 (* + litterbox user/super *) in
  (match Runtime.boot (rcfg_of (Some Lb.Mpk)) ~packages ~entry:"main" with
  | Ok rt ->
      let lb = Option.get (Runtime.lb rt) in
      Printf.printf
        "clustering ON:  %d packages fit in %d meta-packages (protection keys)
"
        npkgs
        (Encl_litterbox.Cluster.count (Lb.cluster lb))
  | Error e -> Printf.printf "clustering ON: unexpected failure: %s
" e);
  (match
     Runtime.boot
       { (rcfg_of (Some Lb.Mpk)) with Runtime.clustering = false }
       ~packages ~entry:"main"
   with
  | Ok _ -> Printf.printf "clustering OFF: unexpectedly initialized
"
  | Error e -> Printf.printf "clustering OFF: %s
" e);
  (* 2. The seccomp trusted-PKRU fast path. Charging the full BPF walk on
     every system call erases most of LB_MPK's advantage on
     syscall-heavy servers. Every side runs paper-faithful, with every
     knob off: the verdict cache would skip the cost being ablated. *)
  let requests = if quick then 200 else 1000 in
  let rps rcfg config =
    List.fold_left
      (fun run k () -> Knob.with_value k false run)
      (fun () ->
        metric
          (report (Scenarios.http config ~rcfg ~requests ()))
          "req_per_sec")
      Knob.all ()
  in
  let base = rps (rcfg_of None) None in
  let fast = rps (rcfg_of (Some Lb.Mpk)) (Some Lb.Mpk) in
  let slow_costs =
    { Costs.default with Costs.seccomp_fast = Costs.default.Costs.seccomp_eval }
  in
  let slow =
    rps
      { (rcfg_of (Some Lb.Mpk)) with Runtime.costs = slow_costs }
      (Some Lb.Mpk)
  in
  Printf.printf
    "seccomp fast path ON  (every knob off): HTTP LB_MPK %.0f req/s (%.3fx)\n\
     seccomp fast path OFF (every knob off): HTTP LB_MPK %.0f req/s (%.3fx)\n"
    fast (base /. fast) slow (base /. slow);
  (* 3. TLB locality: LB_MPK switches write PKRU and keep the same page
     table (TLB stays warm); LB_VTX switches move CR3 and flush it. *)
  let tlb_flushes backend =
    let rt = micro_boot (Some backend) in
    let cpu = (Runtime.machine rt).Machine.cpu in
    let f0 = Tlb.flushes (Cpu.tlb cpu) in
    for _ = 1 to 100 do
      Runtime.with_enclosure rt "enc" (fun () -> ())
    done;
    Tlb.flushes (Cpu.tlb cpu) - f0
  in
  Printf.printf
    "TLB flushes across 100 enclosure calls: LB_MPK %d, LB_VTX %d
"
    (tlb_flushes Lb.Mpk) (tlb_flushes Lb.Vtx);
  (* 4. Default-policy annotation burden (paper 3.1): the default view
     needs zero annotations for the packages an enclosure uses; the
     deny-all alternative would require listing every natural
     dependency. *)
  (match Runtime.boot (rcfg_of None) ~packages ~entry:"main" with
  | Error e -> Printf.printf "annotation count: boot failed: %s
" e
  | Ok rt ->
      let g = (Runtime.image rt).Encl_elf.Image.graph in
      let nat = List.length (Encl_pkg.Graph.natural_deps g Fasthttp.pkg) + 1 in
      Printf.printf
        "default policy: the FastHTTP enclosure needs 0 memory annotations;
         an allow-list alternative would enumerate %d packages (and track
         them across upgrades)
"
        nat)

(* ------------------------------------------------------------------ *)
(* A/B claims                                                          *)

(* Failures reported at the end of the run, after every section ran. *)
let failures = ref []
let fail msg = failures := msg :: !failures

(* One A/B claim: [scenario] at [requests] on [backend] along [axis] (A =
   the knob on, the first backend or the first core count; [backend] is
   unused on a backend axis), run through the runner `profile ab` uses.
   It holds when each side passes Runtime.audit, the enforcement
   summaries are identical and every [expect]ation holds
   (METRIC:higher|lower[:R], as `profile ab --expect`). [rows] are the
   bench rows it records from side A, as (workload, metrics). *)
type claim = {
  scenario : string * Scenarios.runner;
  requests : int;
  backend : Scenarios.config;
  axis : Ab.axis;
  expect : string list;
  rows : (string * string list) list;
}

let registered name = (name, List.assoc name Scenarios.registry)
let value side name = Option.get (Ab.metric side name)

let smp_http : Scenarios.runner =
 fun c ?rcfg ?requests () ->
  Scenarios.smp_http c ?rcfg ?requests ~conns:(if quick then 32 else 64) ()

(* Every claim the bench checks, by section. *)
let claims =
  let claim ?(requests = requests) ?(expect = []) ?(rows = []) scenario
      backend axis =
    { scenario; requests; backend; axis; expect; rows }
  in
  (* A knob on and off on each of [configs], with [expect c] and
     [rows c] on config [c]; [on cs v c] is [v] when [c] is one of [cs]. *)
  let knob k scenario configs expect rows =
    List.map
      (fun c -> claim scenario c (Ab.Knob k) ~expect:(expect c) ~rows:(rows c))
      configs
  in
  let on cs v c = if List.mem c cs then v else [] in
  let http = registered "http" in
  let mpk = Some Lb.Mpk and vtx = Some Lb.Vtx and sfi = Some Lb.Sfi in
  [
    ( "Fast path: switch elision and the seccomp verdict cache",
      (* The switch + seccomp share of the clock shrinks. *)
      knob Knob.fastpath http enclosed
        (on [ mpk; vtx ] [ "enforcement_share:lower" ])
        (fun c ->
          ("switch_elision_http", [ "req_per_sec"; "elided_switches" ])
          :: on [ mpk ] [ ("seccomp_cache_hit_rate", [ "hit_rate" ]) ] c) );
    ( "Syscall ring: batched submission (ENCL_SYSRING)",
      (* Fewer kernel crossings; LB_VTX gains >= 15% req/s with fewer VM
         EXITs, LB_MPK gets no slower. *)
      knob Knob.sysring http enclosed
        (fun c ->
          on [ vtx ] [ "req_per_sec:higher:1.15"; "vm_exits:lower" ] c
          @ on [ mpk ] [ "req_per_sec:higher:1.0" ] c
          @ on [ mpk; vtx ] [ "crossings:lower" ] c)
        (fun _ ->
          [ ("sysring_http", [ "req_per_sec"; "vm_exits"; "batch_avg" ]) ]) );
    ( "Zero-copy data plane: zerocopy_http (ENCL_ZEROCOPY)",
      (* >= 10% req/s and fewer ledger bytes copied on every backend. *)
      knob Knob.zerocopy (registered "zerocopy_http") configs
        (on enclosed [ "req_per_sec:higher:1.10"; "bytes_copied:lower" ])
        (fun _ -> [ ("zerocopy_http", [ "req_per_sec"; "bytes_copied" ]) ]) );
    ( "Backends: what a crossing costs against what an access costs",
      (* Table 1's ordering: VT-x spends a larger share of the clock
         switching than MPK. SFI crosses for the price of a trampoline
         call, cheaper than VT-x, and pays per memory access instead,
         dearer than MPK on access-heavy bild. *)
      [
        claim http None (Ab.Backends (vtx, mpk))
          ~expect:[ "switch_share:higher" ];
        claim http None (Ab.Backends (sfi, vtx)) ~expect:[ "switch_ns:lower" ];
        claim ("bild", bild) None (Ab.Backends (sfi, mpk))
          ~expect:[ "access_ns:higher" ];
      ] );
    ( "SMP: smp_http and wiki across simulated cores (makespan req/s)",
      (* Each core count against 1 core; 4 cores serve >= 2.5x. *)
      List.map
        (fun n ->
          claim ("smp_http", smp_http) mpk (Ab.Cores (n, 1))
            ~requests:(if quick then 512 else 4096)
            ~expect:(on [ 4 ] [ "req_per_sec:higher:2.5" ] n)
            ~rows:
              [
                ( Printf.sprintf "smp_http_%dcore" n,
                  [ "req_per_sec"; "steal_count"; "affinity_hit_rate" ] );
              ])
        [ 2; 4; 8; 16 ]
      @ [
          claim (registered "wiki") mpk (Ab.Cores (4, 1))
            ~requests:(if quick then 120 else 400)
            ~rows:[ ("smp_wiki_4core", [ "req_per_sec" ]) ];
        ] );
  ]

(* Run each claim once: print both sides of every metric it checks or
   records, record its rows, keep its failures. Returns each claim with
   its pair. *)
let run_claims () =
  List.concat_map
    (fun (title, claims) ->
      section title;
      List.map
        (fun c ->
          let t =
            get
              (Ab.run ~rcfg:(rcfg_of c.backend) ~requests:c.requests
                 ~expect:c.expect ~scenario:c.scenario ~backend:c.backend
                 c.axis)
          in
          List.iter fail t.Ab.failures;
          (* Each expectation, then each recorded metric none names. *)
          let named =
            List.map (fun e -> List.hd (String.split_on_char ':' e)) c.expect
          in
          let recorded = List.concat_map snd c.rows in
          print_string
            (Ab.render (fst c.scenario) t
               (c.expect @ List.filter (fun m -> not (List.mem m named)) recorded));
          List.iter
            (fun (workload, ms) ->
              add_metrics ~workload ~backend:(Scenarios.config_name c.backend)
                (value t.Ab.a) ms)
            c.rows;
          (c, t))
        claims)
    claims

(* ------------------------------------------------------------------ *)
(* Resilience (availability under the chaos harness)                   *)

let resilience () =
  section "Resilience: availability under deterministic fault injection";
  let requests = if quick then 200 else 500 in
  (* No enclosures to fault in the baseline. *)
  List.iter
    (fun config ->
      let r =
        report (Scenarios.chaos_http config ~rcfg:(rcfg_of config) ~requests ())
      in
      let backend = Scenarios.config_name config in
      Printf.printf "%-8s chaos http  %s\n" backend
        (Scenarios.pp_chaos_result r);
      add_metrics ~workload:"resilience_http" ~backend (metric r)
        [ "availability"; "injected"; "conns_failed" ])
    enclosed;
  let r =
    report
      (Scenarios.chaos_wiki (Some Lb.Mpk) ~rcfg:(rcfg_of (Some Lb.Mpk))
         ~requests:(if quick then 150 else 400) ())
  in
  Printf.printf "%-8s chaos wiki  %s\n" "LB_MPK" (Scenarios.pp_chaos_result r);
  add_metrics ~workload:"resilience_wiki" ~backend:"LB_MPK" (metric r)
    [ "availability"; "reconnects" ]

(* ------------------------------------------------------------------ *)
(* Attack containment (the scored corpus of lib/attack)                *)

let attacks () =
  section "Attack corpus: severity-weighted containment per backend";
  List.iter
    (fun backend ->
      let results =
        List.map
          (fun (a : Attack.t) ->
            let r = a.Attack.run ~backend ~seed:42 in
            (a, r.Attack.outcome))
          Attack.all
      in
      let score = Attack.containment_score results in
      let contained =
        List.length (List.filter (fun (_, o) -> o.Attack.contained) results)
      in
      Printf.printf "%-8s containment %5.1f/100 (%d/%d attacks contained)\n%!"
        (Backend.name backend) score contained (List.length results);
      add_result ~workload:"attack_containment" ~backend:(Backend.name backend)
        ~metric:"containment_score" score)
    Backend.all

(* ------------------------------------------------------------------ *)
(* Policy mining: witness recorder overhead and mined policy width     *)

module Miner = Encl_litterbox.Miner

let policy_mining () =
  section "Policy mining: witness overhead and mined policy width";
  let with_witness flag f = Encl_obs.Obs.with_default ~witness:true flag f in
  (* The recorder charges no simulated time, so witnessed req/s must
     equal the unwitnessed run's: the bench fails otherwise, and the row
     stays 0. *)
  let run witnessed =
    let r =
      with_witness witnessed (fun () ->
          report
            (Scenarios.http (Some Lb.Mpk) ~rcfg:(rcfg_of (Some Lb.Mpk))
               ~requests ()))
    in
    metric r "req_per_sec"
  in
  let off = run false in
  let on_ = run true in
  let pct = (off -. on_) /. off *. 100.0 in
  Printf.printf "%-8s http  witness off %8.0f req/s  on %8.0f req/s  (%.2f%%)\n"
    "LB_MPK" off on_ pct;
  if on_ <> off then
    fail
      (Printf.sprintf "policy_mining: witnessed http %.10g req/s, unwitnessed \
         %.10g: the witness must cost no simulated time" on_ off);
  add_result ~workload:"policy_mining" ~backend:"LB_MPK"
    ~metric:"witness_overhead_pct" pct;
  (* Mined policy width per scenario: total capabilities granted by the
     least-privilege literals the miner recovers from a witnessed run.
     Any widening of a mined policy shows up here as a higher width. *)
  let mined_width (name, requests) =
    let run = List.assoc name Scenarios.registry in
    let rt, _ =
      get
        (with_witness true (fun () ->
             run (Some Lb.Mpk) ~rcfg:(rcfg_of (Some Lb.Mpk)) ~requests ()))
    in
    let lb = Option.get (Runtime.lb rt) in
    let mined = Miner.mine lb in
    let total =
      List.fold_left (fun acc (m : Miner.mined) -> acc + Miner.width m.policy)
        0 mined
    in
    List.iter
      (fun (m : Miner.mined) ->
        Printf.printf "%-8s %-5s %-12s width %d  %s\n" "LB_MPK" name
          m.Miner.enclosure (Miner.width m.Miner.policy) m.Miner.literal)
      mined;
    add_result ~workload:("policy_mining_" ^ name) ~backend:"LB_MPK"
      ~metric:"policy_width" (float_of_int total)
  in
  List.iter mined_width
    [
      ("http", requests);
      ("wiki", if quick then 120 else 400);
      (* pq reads the size as its query count *)
      ("pq", if quick then 80 else 200);
    ]

(* ------------------------------------------------------------------ *)
(* SMP: the rows its claims do not record                              *)

(* smp_http's 1-core base and its headline gate row, the 4-core speedup
   per core, from its 4-vs-1 claim; then smp_pq, whose sides differ in
   workers as well as cores. Printed under the claims' SMP section. *)
let smp pairs =
  let four, one =
    List.find_map
      (fun (c, t) ->
        if fst c.scenario = "smp_http" && c.axis = Ab.Cores (4, 1) then
          Some (t.Ab.a, t.Ab.b)
        else None)
      pairs
    |> Option.get
  in
  add_metrics ~workload:"smp_http_1core" ~backend:"LB_MPK" (value one)
    [ "req_per_sec"; "steal_count"; "affinity_hit_rate" ];
  let efficiency = value four "req_per_sec" /. value one "req_per_sec" /. 4.0 in
  Printf.printf "LB_MPK  smp_http scaling efficiency at 4 cores: %.3f\n%!"
    efficiency;
  add_result ~workload:"smp_http" ~backend:"LB_MPK"
    ~metric:"scaling_efficiency" efficiency;
  let pq ~cores ~workers =
    metric
      (report
         (Scenarios.pq (Some Lb.Mpk) ~rcfg:(rcfg_of (Some Lb.Mpk)) ~cores
            ~workers ~queries:(if quick then 80 else 200) ()))
      "ns_per_query"
  in
  let p1 = pq ~cores:1 ~workers:1 in
  let p4 = pq ~cores:4 ~workers:4 in
  Printf.printf
    "LB_MPK  smp_pq    1 worker %7.0fns/query   4 workers x 4 cores \
     %7.0fns/query (%.2fx)\n%!"
    p1 p4 (p1 /. Float.max 1.0 p4);
  add_result ~workload:"smp_pq_4core" ~backend:"LB_MPK" ~metric:"query_ns" p4

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "Enclosure/LitterBox reproduction benchmarks%s\n"
    (if quick then " (quick mode)" else "");
  table1 ();
  table2 ();
  figure5 ();
  python ();
  security ();
  ablations ();
  smp (run_claims ());
  resilience ();
  attacks ();
  policy_mining ();
  write_results ();
  print_newline ();
  if !failures <> [] then begin
    List.iter (fun f -> prerr_endline ("bench: " ^ f)) (List.rev !failures);
    exit 1
  end
