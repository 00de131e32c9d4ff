(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6) on the simulated machine.

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
   the environment; the smp_http section pins its core count per row. *)
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

(* One row per (workload, backend, metric); [paper] is the value the
   paper reports for that cell, when it reports one. *)
let add_result ~workload ~backend ~metric ?paper value =
  results :=
    Json.Obj
      [
        ("workload", Json.String workload);
        ("backend", Json.String backend);
        ("metric", Json.String metric);
        ("value", Json.Float value);
        ("paper", match paper with Some p -> Json.Float p | None -> Json.Null);
      ]
    :: !results

(* One row per metric in [names], valued by [value]. *)
let add_metrics ~workload ~backend value names =
  List.iter
    (fun metric -> add_result ~workload ~backend ~metric (value metric))
    names

let add_row ~workload ~metric ?(papers = []) values =
  List.iteri
    (fun i (config, value) ->
      add_result ~workload ~backend:(Scenarios.config_name config) ~metric
        ?paper:(List.nth_opt papers i) value)
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
  (* Paper values are positional over [configs]; backends beyond the
     paper's table (LWC, SFI) have no paper cell. *)
  let rows =
    [
      ("call", micro_call, [ 45.; 86.; 924. ]);
      ("transfer", micro_transfer, [ 0.; 1002.; 158. ]);
      ("syscall", micro_syscall, [ 387.; 523.; 4126. ]);
    ]
  in
  Printf.printf "%-10s" "";
  List.iter
    (fun c -> Printf.printf " %10s" (Scenarios.config_name c))
    configs;
  print_newline ();
  List.iter
    (fun (name, f, papers) ->
      let values = List.map f configs in
      add_row ~workload:"table1" ~metric:(name ^ "_ns") ~papers
        (List.combine configs (List.map float_of_int values));
      Printf.printf "%-10s" name;
      List.iter (fun v -> Printf.printf " %10d" v) values;
      Printf.printf "\n%!")
    rows;
  Printf.printf
    "(paper:    call 45/86/924; transfer 0/1002/158; syscall 387/523/4126; \
     SFI's call ~pays only the trampoline, its transfer only bounds \
     metadata)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: macrobenchmarks                                            *)

(* A req/s row over [configs]: recorded, and printed with each
   backend's slowdown against the baseline, then [note]. *)
let throughput_row ~label ~workload ?papers ~note run =
  let rps = List.map (fun c -> metric (report (run c)) "req_per_sec") configs in
  add_row ~workload ~metric:"req_per_sec" ?papers (List.combine configs rps);
  let b = List.hd rps in
  Printf.printf "%-10s %7.0freq/s" label b;
  List.iter
    (fun v -> Printf.printf " %7.0freq/s (%.2fx)" v (b /. v))
    (List.tl rps);
  Printf.printf "%s\n%!" note

let table2 () =
  section "Table 2: Macrobenchmarks";
  let bild_iters = if quick then 1 else 3 in
  let dim = if quick then 256 else 1024 in
  let requests = if quick then 200 else 2000 in
  (* bild *)
  let bild_res =
    List.map
      (fun c ->
        report
          (Scenarios.bild c ~rcfg:(rcfg_of c) ~width:dim ~height:dim
             ~iters:bild_iters ()))
      configs
  in
  let ms_res = List.map (fun r -> metric r "ns_per_invert" /. 1e6) bild_res in
  add_row ~workload:"bild" ~metric:"ms_per_invert"
    ~papers:[ 13.25; 13.25 *. 1.12; 13.25 *. 1.05 ]
    (List.combine configs ms_res);
  (match ms_res with
  | b :: rest ->
      Printf.printf "bild       %8.2fms " b;
      List.iter (fun v -> Printf.printf " %8.2fms (%.2fx)" v (v /. b)) rest;
      Printf.printf "   [paper: 13.25 / 1.12x / 1.05x]\n%!"
  | [] -> assert false);
  throughput_row ~label:"HTTP" ~workload:"http"
    ~papers:[ 16991.; 16991. /. 1.02; 16991. /. 1.77 ]
    ~note:" [paper: 16991 / 1.02x / 1.77x]" (fun c ->
      Scenarios.http c ~rcfg:(rcfg_of c) ~requests ());
  throughput_row ~label:"FastHTTP" ~workload:"fasthttp"
    ~papers:[ 22867.; 22867. /. 1.04; 22867. /. 2.01 ]
    ~note:" [paper: 22867 / 1.04x / 2.01x]" (fun c ->
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
    ~metric:"conservative_slowdown" ~paper:18.0 (slow cons);
  add_result ~workload:"python" ~backend:"LB_VTX" ~metric:"decoupled_slowdown"
    ~paper:1.4 (slow dec);
  Printf.printf "%-22s %10s %10s %10s %12s\n" "" "total" "switch" "init" "switches";
  Printf.printf "%-22s %8.1fms %8.1fms %8.1fms %12d\n" "CPython baseline"
    (ms base.Plot.total_ns) (ms base.Plot.switch_ns) (ms base.Plot.init_ns)
    base.Plot.switches;
  Printf.printf
    "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.1fx  [paper ~18x, ~1M switches]\n"
    "LB_VTX conservative" (ms cons.Plot.total_ns) (ms cons.Plot.switch_ns)
    (ms cons.Plot.init_ns) cons.Plot.switches (slow cons);
  Printf.printf "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.2fx [paper ~1.4x]\n"
    "LB_VTX decoupled" (ms dec.Plot.total_ns) (ms dec.Plot.switch_ns)
    (ms dec.Plot.init_ns) dec.Plot.switches (slow dec);
  Printf.printf
    "init share of conservative slowdown: %.1f%% (paper: 4.3%%); syscall share: %.2f%%\n"
    (100.0
    *. float_of_int cons.Plot.init_ns
    /. float_of_int (cons.Plot.total_ns - base.Plot.total_ns))
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
(* Extensions beyond the paper: LB_LWC (paper Â§8's hardware-free
   suggestion) and LB_SFI (software fault isolation). Their micro and
   macro rows already appear in Tables 1/2 above via [configs]; this
   section says what motivates each one. *)

let extensions () =
  section "Extensions: LB_LWC (no specialized hardware) and LB_SFI (instrumentation)";
  Printf.printf
    "(Table 2's HTTP row: LWC switches cost two kernel crossings but system\n\
    \ calls stay at baseline cost: it beats LB_VTX on syscall-heavy servers\n\
    \ while needing no MPK keys or VT-x. SFI crosses the sandbox for the\n\
    \ price of a trampoline call and instead pays per memory access:\n\
    \ cheapest of all on this switch-heavy server, worst on access-heavy\n\
    \ bild -- the crossover the `profile.exe ab --axis backend:...` lines\n\
    \ in bin/ci.sh pin down.)\n"

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
     syscall-heavy servers. *)
  let requests = if quick then 200 else 1000 in
  let rps rcfg config =
    metric (report (Scenarios.http config ~rcfg ~requests ())) "req_per_sec"
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
    "seccomp fast path ON:  HTTP LB_MPK %.0f req/s (%.3fx)
     seccomp fast path OFF: HTTP LB_MPK %.0f req/s (%.3fx)
"
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
(* Optimization A/B sections                                           *)

(* Both sides of a pair through the A/B runner [profile ab] and the
   tests share: the bench fails whenever the runner does. Knob sides
   run under an explicit setting, so rows never depend on ENCL_*. *)
let ab ?rcfg ~requests scenario ~backend axis =
  match Ab.run ?rcfg ~requests ~scenario ~backend axis with
  | Ok { Ab.a; b; failures = []; _ } -> (a, b)
  | Ok { Ab.failures; _ } ->
      List.iter (fun f -> prerr_endline ("bench: " ^ f)) failures;
      exit 1
  | Error e ->
      prerr_endline ("bench: " ^ e);
      exit 1

let registered name = (name, List.assoc name Scenarios.registry)
let value side name = Option.get (Ab.metric side name)

(* Each knob section runs its scenario with the knob on and off on every
   config it lists and records the knob-on side's metrics, per workload
   (a workload given a config is recorded on that one only). *)
let knob_sections () =
  let requests = if quick then 200 else 2000 in
  List.iter
    (fun (title, knob, scenario, configs, rows) ->
      section title;
      List.iter
        (fun config ->
          let on, off =
            ab ~rcfg:(rcfg_of config) ~requests (registered scenario)
              ~backend:config (Ab.Knob knob)
          in
          let backend = Scenarios.config_name config in
          let rows =
            List.filter
              (fun (_, only, _) -> only = None || only = Some config)
              rows
          in
          let show side =
            List.concat_map (fun (_, _, ms) -> ms) rows
            |> List.map (fun m -> Printf.sprintf "%s %.10g" m (value side m))
            |> String.concat "  "
          in
          Printf.printf "%-8s %-4s on  %s\n%-8s %-4s off %s\n%!" backend
            scenario (show on) "" scenario (show off);
          List.iter
            (fun (workload, _, ms) ->
              add_metrics ~workload ~backend (value on) ms)
            rows)
        configs)
    [
      ( "Fast path: switch elision and the seccomp verdict cache",
        Knob.fastpath, "http", enclosed,
        [
          ("switch_elision_http", None, [ "req_per_sec"; "elided_switches" ]);
          ("seccomp_cache_hit_rate", Some (Some Lb.Mpk), [ "hit_rate" ]);
        ] );
      ( "Syscall ring: batched submission (ENCL_SYSRING)", Knob.sysring, "http",
        enclosed,
        [ ("sysring_http", None, [ "req_per_sec"; "vm_exits"; "batch_avg" ]) ]
      );
      ( "Zero-copy data plane: zerocopy_http (ENCL_ZEROCOPY)", Knob.zerocopy,
        "zerocopy_http", configs,
        [ ("zerocopy_http", None, [ "req_per_sec"; "bytes_copied" ]) ] );
    ]

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
     match the unwitnessed run; the gate keeps this row near zero. *)
  let requests = if quick then 200 else 2000 in
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
(* SMP: the sharded machine's scaling curve                            *)

let smp () =
  section "SMP: smp_http across simulated cores (makespan req/s)";
  let requests = if quick then 512 else 4096 in
  let conns = if quick then 32 else 64 in
  let backend = Some Lb.Mpk in
  let smp_http : Scenarios.runner =
   fun c ?rcfg ?requests () -> Scenarios.smp_http c ?rcfg ?requests ~conns ()
  in
  (* Every core count against the 1-core run: the runner requires the
     same enforcement summary (served requests, workload syscalls,
     faults) on both sides. *)
  let pairs =
    List.map
      (fun cores ->
        ( cores,
          ab ~requests ("smp_http", smp_http) ~backend (Ab.Cores (cores, 1)) ))
      [ 2; 4; 8; 16 ]
  in
  let base = snd (snd (List.hd pairs)) in
  let rps side = value side "req_per_sec" in
  List.iter
    (fun (cores, side) ->
      Printf.printf
        "LB_MPK  smp_http %2d cores %9.0f req/s (%5.2fx)  steals %5.0f  \
         affinity %.3f\n%!"
        cores (rps side) (rps side /. rps base) (value side "steal_count")
        (value side "affinity_hit_rate");
      add_metrics
        ~workload:(Printf.sprintf "smp_http_%dcore" cores)
        ~backend:"LB_MPK" (value side)
        [ "req_per_sec"; "steal_count"; "affinity_hit_rate" ])
    ((1, base) :: List.map (fun (cores, (a, _)) -> (cores, a)) pairs);
  (* The headline gate row: 4-core speedup per core, higher-better. *)
  let efficiency = rps (fst (List.assoc 4 pairs)) /. rps base /. 4.0 in
  Printf.printf "LB_MPK  smp_http scaling efficiency at 4 cores: %.3f\n%!"
    efficiency;
  add_result ~workload:"smp_http" ~backend:"LB_MPK"
    ~metric:"scaling_efficiency" efficiency;
  (* wiki and pq on the sharded machine: the per-connection serving
     fibers (wiki) and the query-splitting workers (pq) spread by work
     stealing; cores are pinned per row so the committed baseline never
     depends on ENCL_CORES. *)
  let rcfg = rcfg_of backend in
  let w4, w1 =
    ab ~rcfg ~requests:(if quick then 120 else 400) (registered "wiki") ~backend
      (Ab.Cores (4, 1))
  in
  Printf.printf
    "LB_MPK  smp_wiki  1 core %8.0f req/s   4 cores %8.0f req/s (%.2fx)\n%!"
    (rps w1) (rps w4) (rps w4 /. rps w1);
  add_result ~workload:"smp_wiki_4core" ~backend:"LB_MPK" ~metric:"req_per_sec"
    (rps w4);
  let queries = if quick then 80 else 200 in
  let pq ~cores ~workers =
    metric (report (Scenarios.pq backend ~rcfg ~cores ~workers ~queries ()))
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
  extensions ();
  ablations ();
  knob_sections ();
  resilience ();
  attacks ();
  policy_mining ();
  smp ();
  write_results ();
  print_newline ()
