(* The four benchmark workloads. A round boots a fresh system from the
   seed's generated inputs, warms it up and drives a fixed number of ops
   through public entry points, so every simulated figure of a round is
   a pure function of (workload, seed, ops). The benchmark times the
   calls it makes into the system and checks every output. *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net
module Vfs = Encl_kernel.Vfs
module Httpd = Encl_apps.Httpd
module Wiki = Encl_apps.Wiki
module Bild = Encl_apps.Bild
module Minidb = Encl_apps.Minidb
module Pyrt = Encl_pylike.Pyrt
module Obs = Encl_obs.Obs
module Attrib = Encl_obs.Attrib

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

(* Host seconds inside the calls of the measured phase, by kind: kicks
   of the scheduler (the database time is a part of it), the external
   client's sends and reads, and direct calls (an invert, a plot job). *)
type timers = {
  kick : float ref;
  client : float ref;
  db : float ref;
  call : float ref;
  samples : (float * float) list ref;
      (** host us per op of each small slice of the measured phase (a
          closed-loop batch, an invert, a chunk of plotted points), with
          the host-speed scale in force when it was taken *)
}

let new_timers () =
  { kick = ref 0.0; client = ref 0.0; db = ref 0.0; call = ref 0.0; samples = ref [] }

let reset tm =
  List.iter (fun r -> r := 0.0) [ tm.kick; tm.client; tm.db; tm.call ];
  tm.samples := []

let measured_s tm = !(tm.kick) +. !(tm.client) +. !(tm.call)

(* Host speed: readings of the reference kernel (see {!Host}), taken
   between timed calls at most every 50 ms of host time. A host time is
   scaled by the latest reading before it. *)
let last_reference = ref Host.nominal_reference_s
let last_reference_at = ref neg_infinity
let references = ref []  (* the current round's readings *)

let take_reference () =
  let r = Host.reference_s () in
  last_reference := r;
  last_reference_at := Host.now ();
  references := r :: !references

let maybe_reference () = if Host.now () -. !last_reference_at >= 0.05 then take_reference ()
let host_scale () = Host.nominal_reference_s /. !last_reference
let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

let sample tm ~ops s =
  tm.samples := (s /. float_of_int ops *. 1e6, host_scale ()) :: !(tm.samples)

(* A host-cost probe run on the booted system after the measured phase:
   [run k] performs [k] operations; [events ~k d] counts the layer
   events they caused, from the counter delta [d]. *)
type probe = { metric : string; run : int -> unit; events : k:int -> Counters.t -> int }

type round = {
  ops : int;
  failed : int;
  lat_ns : int array;  (** simulated latency of each op (each job for python) *)
  delta : Counters.t;  (** simulated counters over the measured phase *)
  cores : int;
  setup_s : float;  (** host: boot, link, init, server start, connect, warm-up *)
  setup_scale : float;  (** host-speed scale from the readings around setup *)
  scale : float;  (** host-speed scale from all the round's readings *)
  timers : timers;
  life_failures : int;  (** enclosure faults + killed fibers, machine lifetime *)
  probe_ns : (string * float) list;  (** host ns per layer event, when probed *)
  cells : ((string * string) * int) list;  (** attribution delta (traced) *)
  stacks : (string * int) list;  (** collapsed-stack delta (traced) *)
  ledger_conserved : bool;  (** [Attrib.conserved] (traced; true otherwise) *)
}

let rcfg ~backend ~cores = { Runtime.backend; costs = Costs.default; clustering = true; cores }

let boot ~backend ~cores packages =
  match Runtime.boot (rcfg ~backend ~cores) ~packages ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith ("boot: " ^ e)

(* The simulated clock of the system being set up, for span stamps. *)
let sim_clock : Clock.t option ref = ref None
let sim () = match !sim_clock with Some c -> Clock.wall c | None -> 0

(* Boot with the observability sink on or off: the sink reads
   [Obs.default_enabled] once, when the machine is created. *)
let with_obs traced f =
  Obs.default_enabled := traced;
  Fun.protect ~finally:(fun () -> Obs.default_enabled := false) f

let delta_assoc before after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (-v)) before;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    after;
  List.sort compare (Hashtbl.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) tbl [])

let probe_k = 2_000

(* Host ns per layer event of each probe, with a benchmark span around
   each. Probes run in the trusted environment: after a kick on a
   sharded machine the live environment is whatever the last fiber
   left installed. *)
let run_probes src probes =
  let was = !Host.recording in
  Host.recording := true;
  Fun.protect ~finally:(fun () -> Host.recording := was) @@ fun () ->
  let trusted f =
    match src.Counters.lb with
    | Some lb when not (Lb.env_matches lb (Lb.trusted_env_ref lb)) -> Lb.with_trusted lb f
    | Some _ | None -> f ()
  in
  trusted @@ fun () ->
  List.map
    (fun p ->
      let before = Counters.snapshot src in
      let acc = ref 0.0 in
      Host.with_span ("probe:" ^ p.metric) ~sim (fun () -> Host.time acc (fun () -> p.run probe_k));
      let events = p.events ~k:probe_k (Counters.diff before (Counters.snapshot src)) in
      (p.metric, !acc *. 1e9 /. float_of_int (max 1 events)))
    probes

(* Run the measured phase [f] (returning per-op latencies and the
   failure count) between two counter snapshots; [from_zero] counts from
   machine creation instead (the python job includes init), and
   [warm_failed] warm-up ops that failed their check count with the
   round's failures. [probe] runs the host-cost probes afterwards. The
   round keeps no reference to the machine, so it can be collected. *)
let measure ?(from_zero = false) ?(warm_failed = 0) ~traced ~probe ~src ~tm ~setup_s ~ops ~cores
    ~probes f =
  let a = Obs.attribution src.Counters.machine.Machine.obs in
  let cells () =
    if traced then List.map (fun (s, c, ns) -> ((s, c), ns)) (Attrib.cells a) else []
  in
  let stacks () = if traced then Attrib.stacks a else [] in
  let cells0, stacks0, before =
    if from_zero then ([], [], Counters.zero ()) else (cells (), stacks (), Counters.snapshot src)
  in
  reset tm;
  take_reference ();
  let setup_scale = Host.nominal_reference_s /. mean !references in
  let lat_ns, failed = Host.with_span "measure" ~sim f in
  take_reference ();
  let scale = Host.nominal_reference_s /. mean !references in
  references := [];
  let after = Counters.snapshot src in
  let cells = delta_assoc cells0 (cells ()) and stacks = delta_assoc stacks0 (stacks ()) in
  let ledger_conserved = (not traced) || Attrib.conserved a in
  let probe_ns = if probe then run_probes src probes else [] in
  {
    ops;
    failed = failed + warm_failed;
    lat_ns;
    delta = Counters.diff before after;
    cores;
    setup_s;
    setup_scale;
    scale;
    timers = tm;
    life_failures = Counters.get after "lb.faults" + Counters.get after "sched.kills";
    probe_ns;
    cells;
    stacks;
    ledger_conserved;
  }

let timed_setup f =
  references := [];
  take_reference ();
  let t0 = Host.now () in
  let v = Host.with_span "setup" ~sim f in
  (v, Host.now () -. t0)

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)

let alnum = "abcdefghijklmnopqrstuvwxyz0123456789"
let token st n = String.init n (fun _ -> alnum.[Random.State.int st (String.length alnum)])

let body_of resp =
  let s = Bytes.to_string resp in
  let rec find i =
    if i + 4 > String.length s then None
    else if String.sub s i 4 = "\r\n\r\n" then Some (String.sub s (i + 4) (String.length s - i - 4))
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Closed-loop client                                                  *)

(* Every connection keeps one request in flight. A batch sends on each
   connection, kicks the scheduler once and reads every response; a
   request's simulated latency runs from its send to the end of the
   kick after which its response is read (makespan clock). *)
let closed_loop rt ~tm ~eps ~ops ~send ~check =
  let clock = Runtime.clock rt in
  let conns = Array.length eps in
  let lat = Array.make ops 0 in
  let failed = ref 0 in
  let i = ref 0 in
  while !i < ops do
    let batch = min conns (ops - !i) in
    maybe_reference ();
    let host0 = measured_s tm in
    let t0 = Clock.wall clock in
    let sent = Array.make batch true in
    let spans =
      Array.init batch (fun k ->
          let sp = Host.op_start (!i + k) ~sim:t0 in
          (try Host.time tm.client (fun () -> send (!i + k) eps.(k))
           with Failure _ -> sent.(k) <- false);
          sp)
    in
    Host.with_span "kick" ~sim (fun () -> Host.time tm.kick (fun () -> Runtime.kick rt));
    let t1 = Clock.wall clock in
    for k = 0 to batch - 1 do
      let resp = Host.time tm.client (fun () -> Httpd.client_read_response rt eps.(k)) in
      Host.op_stop spans.(k) ~sim:t1;
      lat.(!i + k) <- t1 - t0;
      if not (sent.(k) && check (!i + k) resp) then incr failed
    done;
    sample tm ~ops:batch (measured_s tm -. host0);
    i := !i + batch
  done;
  (lat, !failed)

(* [k] calls of [f]; the delta of [counter] counts the layer events. *)
let repeat_probe metric counter f =
  {
    metric;
    run = (fun k -> for _ = 1 to k do f () done);
    events = (fun ~k:_ d -> Counters.get d counter);
  }

(* 4-page spans moved back and forth between two packages. *)
let transfer_probe lb ~mmap ~pkgs:(p1, p2) =
  {
    metric = "litterbox.host_ns_per_transfer";
    run =
      (fun k ->
        let len = 4 * Phys.page_size in
        match mmap len with
        | Error _ -> ()
        | Ok addr ->
            for i = 1 to k do
              Lb.transfer lb ~addr ~len ~to_pkg:(if i land 1 = 0 then p1 else p2)
                ~site:"runtime.mallocgc"
            done);
    events = (fun ~k:_ d -> Counters.get d "lb.transfers");
  }

(* Probes of the Go-like workloads: [enc] is one of the program's
   enclosures, [pkgs] two of its packages. *)
let golike_probes rt ~enc ~pkgs =
  [
    repeat_probe "litterbox.host_ns_per_switch" "lb.switches" (fun () ->
        Runtime.with_enclosure rt enc ignore);
    repeat_probe "kernel.host_ns_per_syscall" "k.syscalls" (fun () ->
        ignore (Runtime.syscall rt K.Getuid));
    repeat_probe "golike.host_ns_per_alloc" "galloc.allocs" (fun () ->
        ignore (Runtime.alloc_in rt ~pkg:(fst pkgs) 64));
  ]
  @
  match Runtime.lb rt with
  | None -> []
  | Some lb -> [ transfer_probe lb ~mmap:(fun len -> Runtime.syscall rt (K.Mmap { len })) ~pkgs ]

(* ------------------------------------------------------------------ *)
(* http_vtx: Table 2 net/http server, handler enclosed                *)

let page_bytes = 13 * 1024
let http_port = 8080

let http_round ~probe ~backend ~seed ~ops ~traced =
  let conns = 8 in
  let st = Random.State.make [| seed |] in
  let page = Bytes.init page_bytes (fun _ -> Char.chr (33 + Random.State.int st 94)) in
  let path () = "/page/" ^ token st (4 + Random.State.int st 61) in
  let warm = Array.init conns (fun _ -> path ()) in
  let paths = Array.init ops (fun _ -> path ()) in
  let page_s = Bytes.to_string page in
  let check _ resp = body_of resp = Some page_s in
  let tm = new_timers () in
  let (rt, eps, warm_failed), setup_s =
    timed_setup (fun () ->
        let main =
          Runtime.package "main"
            ~imports:[ Httpd.pkg; "assets" ]
            ~functions:[ ("main", 512); ("handler_body", 256) ]
            ~enclosures:
              [
                {
                  Encl_elf.Objfile.enc_name = "handler_enc";
                  enc_policy = "assets:R; sys=none";
                  enc_closure = "handler_body";
                  enc_deps = [];
                };
              ]
            ()
        in
        let assets =
          Runtime.package "assets" ~constants:[ ("index_html", page_bytes, Some page) ] ()
        in
        let rt =
          Host.with_span "boot" ~sim (fun () ->
              with_obs traced (fun () -> boot ~backend ~cores:1 (main :: assets :: Httpd.packages ())))
        in
        sim_clock := Some (Runtime.clock rt);
        Httpd.reset_counters ();
        let m = Runtime.machine rt in
        let body = Runtime.global rt ~pkg:"assets" "index_html" in
        let handler ~meth:_ ~path:_ =
          Runtime.with_enclosure rt "handler_enc" (fun () ->
              ignore (Gbuf.get m body 0);
              body)
        in
        Runtime.run_main rt (fun () -> Httpd.serve rt ~port:http_port ~handler);
        Runtime.kick rt;
        let eps = Array.init conns (fun _ -> Httpd.client_connect rt ~port:http_port) in
        Runtime.kick rt;
        let _, warm_failed =
          closed_loop rt ~tm ~eps ~ops:conns
            ~send:(fun i ep -> Httpd.client_get rt ep ~path:warm.(i))
            ~check
        in
        (rt, eps, warm_failed))
  in
  let src = Counters.of_runtime rt in
  measure ~warm_failed ~traced ~probe ~src ~tm ~setup_s ~ops ~cores:1
    ~probes:(golike_probes rt ~enc:"handler_enc" ~pkgs:("main", Httpd.pkg))
    (fun () ->
      closed_loop rt ~tm ~eps ~ops
        ~send:(fun i ep -> Httpd.client_get rt ep ~path:paths.(i))
        ~check)

(* ------------------------------------------------------------------ *)
(* bild_mpk: Table 2 bild invert, image shared read-only               *)

let bild_dim = 512

let bild_round ~probe ~backend ~seed ~ops ~traced =
  let width = bild_dim and height = bild_dim in
  let size = width * height * 4 in
  let st = Random.State.make [| seed |] in
  let input = Bytes.init size (fun _ -> Char.chr (Random.State.int st 256)) in
  (* The reference output, computed independently of the system. *)
  let expected = Bytes.map (fun c -> Char.chr (255 - Char.code c)) input in
  let tm = new_timers () in
  let invert rt image () =
    Runtime.with_enclosure rt "rcl" (fun () -> Bild.invert rt ~src:image ~width ~height)
  in
  let check rt out = Bytes.equal (Gbuf.read_bytes (Runtime.machine rt) out) expected in
  let (rt, image, warm_failed), setup_s =
    timed_setup (fun () ->
        let secrets = Runtime.package "secrets" ~functions:[ ("load_image", 256) ] () in
        let main =
          Runtime.package "main"
            ~imports:[ Bild.pkg; "secrets" ]
            ~functions:[ ("main", 512); ("rcl_body", 256) ]
            ~enclosures:
              [ Bild.enclosure_decl ~name:"rcl" ~policy:"secrets:R; sys=none" ~closure:"rcl_body" ]
            ()
        in
        let rt =
          Host.with_span "boot" ~sim (fun () ->
              with_obs traced (fun () ->
                  boot ~backend ~cores:1 (main :: secrets :: Bild.packages ())))
        in
        sim_clock := Some (Runtime.clock rt);
        let image = Runtime.alloc_in rt ~pkg:"secrets" size in
        Gbuf.write_bytes (Runtime.machine rt) image input;
        (* Warm-up: allocator caches, as in the paper's benchmark. *)
        let warm_failed = if check rt (invert rt image ()) then 0 else 1 in
        (rt, image, warm_failed))
  in
  let src = Counters.of_runtime rt in
  let clock = Runtime.clock rt in
  measure ~warm_failed ~traced ~probe ~src ~tm ~setup_s ~ops ~cores:1
    ~probes:(golike_probes rt ~enc:"rcl" ~pkgs:("main", "secrets"))
    (fun () ->
      let lat = Array.make ops 0 and failed = ref 0 in
      for i = 0 to ops - 1 do
        let t0 = Clock.wall clock in
        let sp = Host.op_start i ~sim:t0 in
        maybe_reference ();
        let host0 = !(tm.call) in
        let out = Host.time tm.call (invert rt image) in
        sample tm ~ops:1 (!(tm.call) -. host0);
        let t1 = Clock.wall clock in
        Host.op_stop sp ~sim:t1;
        lat.(i) <- t1 - t0;
        if not (check rt out) then incr failed
      done;
      (lat, !failed))

(* ------------------------------------------------------------------ *)
(* wiki_mpk_4core: Figure 5 wiki, two enclosures + trusted glue        *)

let wiki_port = 8090
let wiki_pages = 64

type wiki_op = Get of string | Post of string * string

let wiki_round ~probe ~backend ~cores ~seed ~ops ~traced =
  let conns = 4 in
  let st = Random.State.make [| seed |] in
  let page () = token st (8 + Random.State.int st 113) in
  let seeded = Array.init wiki_pages (fun i -> (Printf.sprintf "s%d%s" i (token st 6), page ())) in
  let bodies = Hashtbl.create 256 in
  Array.iter (fun (t, b) -> Hashtbl.replace bodies t b) seeded;
  (* The op sequence: 1% POSTs of new pages; GETs pick any page whose
     creation finished in an earlier batch. *)
  let titles = ref (Array.to_list (Array.map fst seeded)) and ntitles = ref wiki_pages in
  let pending = ref [] in
  let pick () = List.nth !titles (Random.State.int st !ntitles) in
  let gen i =
    if i mod conns = 0 then begin
      titles := !pending @ !titles;
      ntitles := !ntitles + List.length !pending;
      pending := []
    end;
    if Random.State.int st 100 = 0 then begin
      let t = Printf.sprintf "c%d%s" i (token st 6) in
      let b = page () in
      Hashtbl.replace bodies t b;
      pending := t :: !pending;
      Post (t, b)
    end
    else Get (pick ())
  in
  let warm = Array.init conns (fun _ -> Get (pick ())) in
  let seq = Array.init ops gen in
  let html b = "<html><body>" ^ b ^ "</body></html>" in
  let expect = function Get t -> html (Hashtbl.find bodies t) | Post _ -> html "created" in
  let tm = new_timers () in
  let send rt ops i ep =
    match ops.(i) with
    | Get t -> Httpd.client_get rt ep ~path:("/page/" ^ t)
    | Post (t, b) -> (
        let req = Printf.sprintf "POST /page/%s HTTP/1.1\r\nHost: sim\r\n\r\n|%s" t b in
        match Net.send (Runtime.machine rt).Machine.net ep (Bytes.of_string req) with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  let check ops i resp = body_of resp = Some (expect ops.(i)) in
  let (rt, eps, warm_failed), setup_s =
    timed_setup (fun () ->
        let rt =
          Host.with_span "boot" ~sim (fun () ->
              with_obs traced (fun () ->
                  boot ~backend ~cores (Wiki.main_package () :: Wiki.packages ())))
        in
        sim_clock := Some (Runtime.clock rt);
        (* The remote database, registered by the benchmark so its host
           time can be measured. *)
        let db = Minidb.create () in
        let exec sql =
          match Minidb.exec db sql with Ok _ -> () | Error e -> failwith ("minidb: " ^ e)
        in
        exec "CREATE TABLE pages (title, body)";
        Array.iter (fun (t, b) -> exec (Printf.sprintf "INSERT INTO pages VALUES ('%s', '%s')" t b)) seeded;
        let wire = Minidb.wire_server db in
        ignore
          (Net.register_remote (Runtime.machine rt).Machine.net ~ip:Wiki.db_ip ~port:Wiki.db_port
             ~respond:(fun chunk -> Host.time tm.db (fun () -> wire chunk))
             "postgres");
        Wiki.reset_counters ();
        Runtime.run_main rt (fun () -> Wiki.start rt ~port:wiki_port ~enclosed:(backend <> None) ());
        Runtime.kick rt;
        let eps = Array.init conns (fun _ -> Httpd.client_connect rt ~port:wiki_port) in
        Runtime.kick rt;
        let _, warm_failed =
          closed_loop rt ~tm ~eps ~ops:conns ~send:(send rt warm) ~check:(check warm)
        in
        (rt, eps, warm_failed))
  in
  let src = Counters.of_runtime rt in
  measure ~warm_failed ~traced ~probe ~src ~tm ~setup_s ~ops ~cores
    ~probes:(golike_probes rt ~enc:"http_srv" ~pkgs:("main", Encl_apps.Mux.pkg))
    (fun () -> closed_loop rt ~tm ~eps ~ops ~send:(send rt seq) ~check:(check seq))

(* ------------------------------------------------------------------ *)
(* python_vtx: §6.4 conservative CPython plot of secret points         *)

let points = 250_000

(* Points per host-time sample. *)
let chunk = 5_000

(* The plot job of the paper's §6.4 experiment (same per-point and
   render costs as Encl_pylike.Plot_experiment), over seeded points. *)
let per_point_ns = 75
let render_ns = 1_200_000
let plot_policy = "secret:R; sys=io,file"
let matplotlib_deps = [ "numpy"; "cycler"; "dateutil"; "kiwisolver"; "pyparsing"; "pillow" ]

let python_round ~probe ~backend ~seed ~ops ~traced =
  let st = Random.State.make [| seed |] in
  let payloads = Bytes.init (8 * ops) (fun _ -> Char.chr (Random.State.int st 256)) in
  let expected_acc = ref 0 in
  for i = 0 to ops - 1 do
    expected_acc := !expected_acc + Char.code (Bytes.get payloads (8 * i))
  done;
  let ok = function Ok v -> v | Error e -> failwith ("python: " ^ e) in
  let tm = new_timers () in
  let (py, data), setup_s =
    timed_setup (fun () ->
        let py =
          Host.with_span "boot" ~sim (fun () ->
              with_obs traced (fun () -> ok (Pyrt.boot ?backend ~mode:Pyrt.Conservative ())))
        in
        sim_clock := Some (Pyrt.machine py).Machine.clock;
        ok (Pyrt.import_module py ~name:"secret" ~arena_bytes:((ops * 32) + (1 lsl 16)) ());
        let data =
          Array.init ops (fun i ->
              let obj = Pyrt.alloc_obj py ~modul:"secret" ~len:8 in
              Pyrt.write_payload py obj (Bytes.sub payloads (8 * i) 8);
              obj)
        in
        List.iter (fun name -> ok (Pyrt.import_module py ~name ())) matplotlib_deps;
        ok
          (Pyrt.import_module py ~name:"matplotlib" ~imports:matplotlib_deps
             ~arena_bytes:(4 * 1024 * 1024) ());
        (py, data))
  in
  let m = Pyrt.machine py in
  let clock = m.Machine.clock in
  let lb = Pyrt.lb py in
  let syscall call =
    match lb with Some lb -> Lb.syscall lb call | None -> K.syscall m.Machine.kernel call
  in
  let plotted = ref 0 in
  let body () =
    let acc = ref 0 in
    let mark = ref (Host.now ()) in
    for i = 0 to ops - 1 do
      let obj = data.(i) in
      Pyrt.incref py obj;
      acc := !acc + Char.code (Bytes.get (Pyrt.read_payload py obj) 0);
      Clock.consume clock Clock.Compute per_point_ns;
      Pyrt.decref py obj;
      incr plotted;
      if (i + 1) mod chunk = 0 then begin
        sample tm ~ops:chunk (Host.now () -. !mark);
        maybe_reference ();
        mark := Host.now ()
      end
    done;
    let figure = Pyrt.alloc_obj py ~modul:"matplotlib" ~len:65536 in
    Pyrt.write_payload py figure (Bytes.make 65536 'P');
    Clock.consume clock Clock.Compute render_ns;
    let fd =
      match syscall (K.Open { path = "/plot.png"; flags = [ K.O_wronly; K.O_creat ] }) with
      | Ok fd -> fd
      | Error e -> failwith ("open: " ^ K.errno_name e)
    in
    ignore (syscall (K.Write { fd; buf = figure.Pyrt.o_addr + Pyrt.header_bytes; len = 65536 }));
    ignore (syscall (K.Close fd));
    !acc
  in
  let enclosed f =
    match backend with
    | None -> Ok (f ())
    | Some _ ->
        Pyrt.with_enclosure py ~name:"plot_enc" ~owner:"__main__" ~deps:[ "matplotlib" ]
          ~policy:plot_policy f
  in
  let probes =
    [
      repeat_probe "litterbox.host_ns_per_switch" "lb.switches" (fun () ->
          ignore (enclosed ignore));
      repeat_probe "kernel.host_ns_per_syscall" "k.syscalls" (fun () ->
          ignore (syscall K.Getuid));
      {
        (* Refcount updates on a secret object from inside the plotting
           enclosure: the conservative port's excursion path. *)
        metric = "pylike.host_ns_per_refcount";
        run =
          (fun k ->
            ignore
              (enclosed (fun () ->
                   for _ = 1 to k do
                     Pyrt.incref py data.(0);
                     Pyrt.decref py data.(0)
                   done)));
        events = (fun ~k _ -> 2 * k);
      };
    ]
    @
    match lb with
    | None -> []
    | Some lb ->
        [
          transfer_probe lb
            ~mmap:(fun len -> syscall (K.Mmap { len }))
            ~pkgs:("secret", "matplotlib");
        ]
  in
  measure ~from_zero:true ~traced ~probe ~src:(Counters.of_pyrt py) ~tm ~setup_s ~ops
    ~cores:1 ~probes
    (fun () ->
      let sp = Host.op_start 0 ~sim:(Clock.wall clock) in
      let acc = Host.time tm.call (fun () -> enclosed body) in
      Host.op_stop sp ~sim:(Clock.wall clock);
      let good =
        acc = Ok !expected_acc && !plotted = ops && Vfs.exists m.Machine.vfs "/plot.png"
      in
      (* The job's latency is the whole program run, from interpreter
         start: delayed initialization is part of the enclosure's cost. *)
      ([| Clock.now clock |], if good then 0 else ops))
