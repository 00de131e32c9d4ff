(* The enforcement oracle: one program, one op alphabet, one runner and
   one property for every axis that must not change what enforcement
   decides.

   A closure's rights follow from its policy literal alone. So a random
   op sequence must end the same way under any setting of the knobs
   ({!Knob.all}), of obs and the witness recorder, and on any core
   count, as under the reference configuration (every knob off, obs and
   witness off, one core: the paper-faithful build) on the same
   backend. The reference configuration in turn must decide the same
   way on all four backends. Within a backend the comparison is textual:
   results, fault and kill texts, the fault log. Across backends it
   compares outcome classes, since each backend words its faults its
   own way. *)

module Runtime = Encl_golike.Runtime
module Galloc = Encl_golike.Galloc
module Gbuf = Encl_golike.Gbuf
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net
module Sysno = Encl_kernel.Sysno
module Vfs = Encl_kernel.Vfs
module Obs = Encl_obs.Obs
module Witness = Encl_obs.Witness

(* ------------------------------------------------------------------ *)
(* The program *)

let enclosure enc_name enc_policy enc_closure =
  { Encl_elf.Objfile.enc_name; enc_policy; enc_closure; enc_deps = [ "lib" ] }

(* Three enclosures over lib, which imports img. [enc] may make no
   system call. [io] may make any but cannot touch img: a view distinct
   from [enc]'s, so the two get distinct PKRU values under LB_MPK. [zc]
   reads the rx view ring and may use the network and files. lib and img
   each own one global. *)
let packages () =
  [
    Runtime.package "main"
      ~imports:[ "lib"; Runtime.netring_pkg ]
      ~functions:
        [ ("main", 64); ("body", 32); ("io_body", 32); ("zc_body", 32) ]
      ~enclosures:
        [
          enclosure "enc" "; sys=none" "body";
          enclosure "io" "img:U; sys=all" "io_body";
          enclosure "zc" (Runtime.netring_pkg ^ ":R; sys=net,io") "zc_body";
        ]
      ();
    Runtime.package "lib" ~imports:[ "img" ] ~functions:[ ("work", 64) ]
      ~globals:[ ("lib_g", 64, None) ]
      ();
    Runtime.package "img" ~functions:[ ("decode", 64) ]
      ~globals:[ ("img_g", 64, None) ]
      ();
    Runtime.package Runtime.netring_pkg
      ~globals:[ ("ring_anchor", 64, None) ]
      ();
  ]

let enclosures = [ "enc"; "io"; "zc" ]

(* One core unless asked: directed tests assert single-core schedules
   and counter values whatever ENCL_CORES says. *)
let boot ?(cores = 1) backend =
  let rcfg = { (Runtime.with_backend backend) with Runtime.cores } in
  match Runtime.boot rcfg ~packages:(packages ()) ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith ("oracle boot: " ^ e)

let file_len = 512
let slot_payload = 128
let slots = 4

type endpoint = {
  rt : Runtime.t;
  ring : Runtime.netring;
  conn_fd : int;  (** accepted server-side end *)
  client : Net.ep;
  file_fd : int;
  mutable last : (int * Gbuf.t) option;  (** the newest granted span *)
}

(* A booted program with a connected socket, a [slots]-slot rx ring and
   an opened [file_len]-byte file. *)
let setup ?cores backend =
  let rt = boot ?cores backend in
  let m = Runtime.machine rt in
  let check what =
    Result.iter_error (fun e -> failwith (what ^ ": " ^ Vfs.errno_name e))
  in
  check "mkdir" (Vfs.mkdir_p m.Machine.vfs "/srv");
  check "create"
    (Vfs.create_file m.Machine.vfs "/srv/body" (Bytes.make file_len 'b'));
  let file_fd =
    Runtime.syscall_exn rt
      (K.Open { path = "/srv/body"; flags = [ K.O_rdonly ] })
  in
  let ring =
    Runtime.attach_netring rt ~slots
      ~slot_bytes:(slot_payload + K.ring_hdr_bytes) ()
  in
  let srv = Runtime.syscall_exn rt K.Socket in
  ignore (Runtime.syscall_exn rt (K.Bind { fd = srv; port = 7070 }));
  ignore (Runtime.syscall_exn rt (K.Listen srv));
  let client =
    match Net.client_connect m.Machine.net ~port:7070 with
    | Ok ep -> ep
    | Error e -> failwith ("client_connect: " ^ e)
  in
  let conn_fd = Runtime.syscall_exn rt (K.Accept srv) in
  { rt; ring; conn_fd; client; file_fd; last = None }

(* ------------------------------------------------------------------ *)
(* Outcomes and the op alphabet *)

(* What an op ended with: its text, compared within a backend, and its
   class, the part no backend words its own way, compared across
   backends. Fault-family exceptions are outcomes, not errors. *)
type outcome = { text : string; cls : string }

let value v = { text = v; cls = v }
let detailed cls detail = { text = cls ^ ":" ^ detail; cls }

let guard f =
  match f () with
  | o -> o
  | exception Lb.Fault { reason; enclosure } ->
      let enc = Option.value enclosure ~default:"-" in
      { text = "fault:" ^ reason; cls = "fault@" ^ enc }
  | exception Lb.Quarantined { enclosure; _ } ->
      value ("quarantined:" ^ enclosure)
  | exception Cpu.Fault f ->
      let kind = Cpu.access_kind_name f.Cpu.kind in
      detailed (Printf.sprintf "memfault:%s:%x" kind f.Cpu.vaddr) f.Cpu.reason

let of_result = function
  | Ok v -> value (Printf.sprintf "ok:%d" v)
  | Error e -> value ("errno:" ^ K.errno_name e)

type op = { name : string; body : endpoint -> outcome }

let machine ep = Runtime.machine ep.rt

(* Run [f] inside the enclosure [scope], or in trusted code. *)
let from ep scope f =
  if scope = "trusted" then f () else Runtime.with_enclosure ep.rt scope f

let trusted name f = { name; body = (fun ep -> f ep; value "ok") }

let call_empty =
  let body ep = from ep "enc" (fun () -> value "ok") in
  { name = "call_empty"; body }

(* A system call from [scope], direct or through the syscall ring. *)
let call ~batched scope c =
  let sys = if batched then Runtime.syscall_batched else Runtime.syscall in
  let batch = if batched then "batched_" else "" in
  let name = batch ^ Sysno.name (K.sysno_of_call c) ^ "@" ^ scope in
  { name; body = (fun ep -> from ep scope (fun () -> of_result (sys ep.rt c))) }

(* Allowed fire-and-forget calls, drained at the epilog. Denied ones
   stay out: they fault at the call site with the ring off but at the
   drain point with it on. *)
let nowait =
  let body ep =
    from ep "io" (fun () ->
        List.iter (Runtime.syscall_nowait ep.rt) [ K.Getpid; K.Getuid ];
        value "ok")
  in
  { name = "nowait@io"; body }

(* [n] fibers, fiber [i] running [pick i]; outcomes by fiber index, not
   run order. *)
let round kind pick n =
  let body ep =
    let results = Array.make n (value "unscheduled") in
    for i = 0 to n - 1 do
      Runtime.go ep.rt (fun () ->
          results.(i) <- guard (fun () -> (pick i).body ep))
    done;
    Runtime.kick ep.rt;
    let join f =
      kind ^ ":" ^ String.concat "," (Array.to_list (Array.map f results))
    in
    { text = join (fun o -> o.text); cls = join (fun o -> o.cls) }
  in
  { name = Printf.sprintf "%s:%d" kind n; body }

let supervised_denied =
  let body ep =
    let denied = call ~batched:true "enc" K.Getuid in
    let id = Runtime.go_supervised ep.rt (fun () -> ignore (denied.body ep)) in
    Runtime.kick ep.rt;
    match Runtime.fiber_result ep.rt id with
    | Some Sched.Finished -> value "fiber:finished"
    | Some (Sched.Killed reason) -> detailed "fiber:killed" reason
    | None -> value "fiber:running"
  in
  { name = "supervised_denied"; body }

(* The client sends [n] bytes (none for 0), then [zc] receives through
   the rx ring and reads the granted span in place; with [consume] it
   releases the newest granted descriptor. *)
let receive name ~consume n =
  let body ep =
    if n > 0 then
      Result.iter_error
        (fun e -> failwith ("client send: " ^ e))
        (Net.send (machine ep).Machine.net ep.client (Bytes.make n 'q'));
    from ep "zc" (fun () ->
        let got =
          match Runtime.netring_recv ep.rt ep.ring ~fd:ep.conn_fd with
          | Ok (Some (slot, span)) ->
              ep.last <- Some (slot, span);
              Printf.sprintf "granted:%d:%s" slot
                (Gbuf.read_string (machine ep) span)
          | Ok None -> "eof"
          | Error e -> "errno:" ^ K.errno_name e
        in
        match ep.last with
        | Some (slot, _) when consume ->
            Runtime.netring_consume ep.rt slot;
            ep.last <- None;
            value (got ^ ":consumed")
        | _ -> value got)
  in
  { name = (if n > 0 then Printf.sprintf "%s:%d" name n else name); body }

(* Read or write the first byte of [buf] from [scope]. *)
let touch ep scope buf ~write =
  let m = machine ep in
  from ep scope (fun () ->
      if write then (
        Gbuf.set m buf 0 42;
        value "wrote")
      else value (Printf.sprintf "read:%d" (Gbuf.get m buf 0)))

(* The newest granted span, from [zc], which holds it R: a write faults,
   a read does not. *)
let ring_access ~write =
  let body ep =
    match ep.last with
    | None -> value "skipped"
    | Some (_, span) -> touch ep "zc" span ~write
  in
  { name = (if write then "write_ring" else "read_ring"); body }

(* sendfile from the file to the socket: allowed in [zc] only. *)
let sendfile scope len =
  let body ep =
    let c =
      K.Sendfile { out_fd = ep.conn_fd; in_fd = ep.file_fd; off = 0; len }
    in
    from ep scope (fun () -> of_result (Runtime.syscall ep.rt c))
  in
  { name = Printf.sprintf "sendfile@%s:%d" scope len; body }

let global scope pkg write =
  let body ep =
    touch ep scope (Runtime.global ep.rt ~pkg (pkg ^ "_g")) ~write
  in
  let verb = if write then "write" else "read" in
  { name = Printf.sprintf "%s:%s_g@%s" verb pkg scope; body }

(* A run-time registration over [pkg]: the backend reprograms. A second
   one over the same package is refused. Three views keep LB_MPK within
   its key budget. *)
let register pkg =
  let body ep =
    match
      Lb.register_enclosure
        (Option.get (Runtime.lb ep.rt))
        ~name:("late_" ^ pkg) ~owner:"main" ~deps:[ pkg ] ~policy:"; sys=none"
        ~closure_addr:0
    with
    | Ok () -> value "registered"
    | Error e -> detailed "refused" e
  in
  { name = "register:" ^ pkg; body }

(* Closing the connection reclaims held descriptors; it ends every run. *)
let teardown =
  let body ep = of_result (Runtime.syscall ep.rt (K.Close ep.conn_fd)) in
  { name = "teardown"; body }

let alloc pkg len ep = ignore (Galloc.alloc (Runtime.galloc ep.rt) ~pkg len)

let op_gen =
  let open QCheck.Gen in
  (* getuid allowed in io and denied in enc, getpid from trusted. *)
  let calls = [ ("io", K.Getuid); ("enc", K.Getuid); ("trusted", K.Getpid) ] in
  let call_of batched (scope, c) = call ~batched scope c in
  let batched_io _ = call ~batched:true "io" K.Getuid in
  let io_getuid = call ~batched:false "io" K.Getuid in
  let mixed i = if i mod 2 = 0 then io_getuid else call_empty in
  let small pkg = trusted ("alloc:" ^ pkg) (alloc pkg 64) in
  (* Several spans: transfer coalescing. *)
  let large_len = (3 * Galloc.span_bytes) + 100 in
  let large = trusted "alloc_large" (alloc "lib" large_len) in
  let scopes = "trusted" :: enclosures and pkgs = [ "lib"; "img" ] in
  frequency
    [
      (2, return call_empty);
      (10, map2 call_of bool (oneofl calls));
      (1, return nowait);
      (1, map (round "fibers" batched_io) (int_range 1 6));
      (1, map (round "mixed" mixed) (int_range 2 8));
      (1, return supervised_denied);
      (1, map small (oneofl pkgs));
      (1, return large);
      (1, return (trusted "gc" (fun ep -> Runtime.gc ep.rt)));
      (2, map (receive "send_recv" ~consume:true) (int_range 1 slot_payload));
      (1, map (receive "send_hold" ~consume:false) (int_range 1 slot_payload));
      (1, return (receive "recv_empty" ~consume:false 0));
      (2, map2 sendfile (oneofl [ "zc"; "enc" ]) (int_range 1 file_len));
      (1, return (ring_access ~write:true));
      (1, return (ring_access ~write:false));
      (2, map3 global (oneofl scopes) (oneofl pkgs) bool);
      (1, map register (oneofl [ "lib"; "img"; "main" ]));
    ]

(* ------------------------------------------------------------------ *)
(* Configurations and the runner *)

type config = {
  knobs : (Knob.t * bool) list;  (** every knob of {!Knob.all} *)
  obs : bool;
  witness : bool;
  cores : int;
}

let reference =
  let knobs = List.map (fun k -> (k, false)) Knob.all in
  { knobs; obs = false; witness = false; cores = 1 }

let pp_config c =
  let flag name b = Printf.sprintf "%s=%s" name (if b then "on" else "off") in
  String.concat " "
    (List.map (fun (k, b) -> flag k.Knob.name b) c.knobs
    @ [ flag "obs" c.obs; flag "witness" c.witness ]
    @ [ Printf.sprintf "cores=%d" c.cores ])

let with_config c f =
  let f = List.fold_left (fun f (k, b) () -> Knob.with_value k b f) f c.knobs in
  Obs.with_default c.obs @@ fun () ->
  let saved = !Witness.default_enabled in
  Witness.default_enabled := c.witness;
  Fun.protect ~finally:(fun () -> Witness.default_enabled := saved) f

type run = {
  outcomes : outcome list;  (** one per op, then the teardown's *)
  totals : (string * string) list;
      (** fault and kill counts, quarantine state and rx-ring counters *)
  fault_log : string list;
  copied : int;  (** bytes the kernel and the application copied *)
}

(* Run [ops] and the teardown on a fresh machine under [c]. The run must
   pass {!Runtime.audit}, whatever it is compared with, and keep the
   invariants tied to [c]. *)
let run backend c ops =
  with_config c @@ fun () ->
  let ep = setup ~cores:c.cores backend in
  let lb = Option.get (Runtime.lb ep.rt) in
  Lb.set_fault_budget lb 3;
  let outcomes =
    List.map (fun op -> guard (fun () -> op.body ep)) (ops @ [ teardown ])
  in
  let m = machine ep and sched = Runtime.sched ep.rt in
  let kernel = m.Machine.kernel in
  let knob k = List.assq k c.knobs in
  let granted, consumed, reclaimed = K.rxring_counters kernel in
  let problems =
    Runtime.audit ep.rt
    @ List.filter_map
        (fun (what, ok) -> if ok then None else Some what)
        [
          ( "fast path off, yet switches elided",
            knob Knob.fastpath || Lb.switch_elided_count lb = 0 );
          ( "ring off, yet entries submitted",
            knob Knob.sysring || Lb.ring_submitted_count lb = 0 );
          ("the scheduler's core count", Sched.core_count sched = c.cores);
        ]
  in
  if problems <> [] then
    QCheck.Test.fail_reportf "%s under %s: %s" (Lb.backend_name backend)
      (pp_config c) (String.concat "; " problems);
  let quarantined e = string_of_bool (Lb.quarantined lb e) in
  {
    outcomes;
    totals =
      [
        ("faults", string_of_int (Lb.fault_count lb));
        ("kills", string_of_int (Sched.kill_count sched));
        ("quarantined", String.concat "," (List.map quarantined enclosures));
        ( "rx granted/consumed/reclaimed",
          Printf.sprintf "%d/%d/%d" granted consumed reclaimed );
      ];
    fault_log = Lb.fault_log lb;
    copied = K.bytes_copied_count kernel + m.Machine.bytes_copied;
  }

(* ------------------------------------------------------------------ *)
(* The property *)

(* The first difference between two runs of [ops], with both values:
   an op's outcome, else a total ([within] a backend, the fault log
   too). *)
let difference ~within ops a b =
  let show o = if within then o.text else o.cls in
  let named i (op, o) = (Printf.sprintf "op %d (%s)" i op.name, show o) in
  let fields r =
    List.mapi named (List.combine (ops @ [ teardown ]) r.outcomes)
    @ r.totals
    @ if within then [ ("fault log", String.concat "; " r.fault_log) ] else []
  in
  List.find_map
    (fun ((what, x), (_, y)) -> if x = y then None else Some (what, x, y))
    (List.combine (fields a) (fields b))

let agree ~within ops (la, a) (lb, b) =
  match difference ~within ops a b with
  | None -> ()
  | Some (what, x, y) ->
      QCheck.Test.fail_reportf "%s differs:\n  %s: %s\n  %s: %s" what la x lb y

(* Run [ops] under the reference configuration and under [c] on
   [backend], and compare the two. With [across], also run the reference
   on the other three backends and compare classes. *)
let prop ~across (backend, c, ops) =
  let refs =
    List.map
      (fun b -> (b, (Lb.backend_name b ^ " reference", run b reference ops)))
      (if across then Fixtures.all_backends else [ backend ])
  in
  let base = List.assoc backend refs in
  let drawn =
    (Lb.backend_name backend ^ " under " ^ pp_config c, run backend c ops)
  in
  agree ~within:true ops base drawn;
  let copied (_, r) = r.copied in
  if
    copied drawn > copied base
    || ((not (List.assq Knob.zerocopy c.knobs)) && copied drawn <> copied base)
  then
    QCheck.Test.fail_reportf "%s copied %d bytes, the reference %d"
      (fst drawn) (copied drawn) (copied base);
  (match List.map snd refs with
  | first :: rest -> List.iter (agree ~within:false ops first) rest
  | [] -> ());
  true

let config_gen =
  QCheck.Gen.(
    let+ knobs =
      flatten_l (List.map (fun k -> map (fun b -> (k, b)) bool) Knob.all)
    and+ obs = bool
    and+ witness = bool
    and+ cores = int_range 1 6 in
    { knobs; obs; witness; cores })

let case_arb config_gen =
  QCheck.make
    ~shrink:QCheck.Shrink.(triple nil nil list)
    ~print:(fun (backend, c, ops) ->
      Printf.sprintf "%s under %s: %s" (Lb.backend_name backend) (pp_config c)
        (String.concat ", " (List.map (fun op -> op.name) ops)))
    QCheck.Gen.(
      triple
        (oneofl Fixtures.all_backends)
        config_gen
        (list_size (int_range 1 30) op_gen))

let property =
  QCheck.Test.make ~name:"enforcement is a function of the program" ~count:640
    ~long_factor:4 (case_arb config_gen) (prop ~across:true)

(* One axis of the product on its own: the same runner and comparison,
   with configurations drawn from [config_gen] and no cross-backend
   runs. The suites that own an axis register one. *)
let axis ~name ~count config_gen =
  QCheck.Test.make ~name ~count (case_arb config_gen) (prop ~across:false)

(* The reference configuration with knob [k] on. *)
let knob_on k =
  let knobs = List.map (fun (k', b) -> (k', b || k' == k)) reference.knobs in
  { reference with knobs }
