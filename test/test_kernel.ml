(* Tests for the simulated OS: BPF, seccomp, VFS, network, dispatcher. *)

module Sysno = Encl_kernel.Sysno
module Bpf = Encl_kernel.Bpf
module Seccomp = Encl_kernel.Seccomp
module Vfs = Encl_kernel.Vfs
module Net = Encl_kernel.Net
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine

(* ------------------------------------------------------------------ *)
(* Sysno *)

let sysno_tests =
  [
    Alcotest.test_case "numbers are unique" `Quick (fun () ->
        let nums = List.map Sysno.number Sysno.all in
        Alcotest.(check int) "no collisions"
          (List.length nums)
          (List.length (List.sort_uniq compare nums)));
    Alcotest.test_case "of_number inverts number" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (Sysno.name s) true
              (Sysno.of_number (Sysno.number s) = Some s))
          Sysno.all);
    Alcotest.test_case "category names roundtrip" `Quick (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check bool) (Sysno.category_name c) true
              (Sysno.category_of_name (Sysno.category_name c) = Some c))
          Sysno.all_categories);
    Alcotest.test_case "socket ops are net" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (Sysno.name s) true (Sysno.category s = Sysno.Cat_net))
          [ Sysno.Socket; Sysno.Connect; Sysno.Accept; Sysno.Sendto; Sysno.Recvfrom ]);
  ]

(* ------------------------------------------------------------------ *)
(* BPF *)

let data ?(args = [||]) ?(pkru = 0l) nr = Bpf.make_data ~nr ~args ~pkru ()

let bpf_tests =
  [
    Alcotest.test_case "trivial allow" `Quick (fun () ->
        let prog = [| Bpf.Ret Bpf.Allow |] in
        Bpf.validate prog;
        Alcotest.(check bool) "allow" true (Bpf.run prog (data 0) = Bpf.Allow));
    Alcotest.test_case "jeq branches" `Quick (fun () ->
        let prog =
          [|
            Bpf.Ld Bpf.F_nr;
            Bpf.Jeq (42, 0, 1);
            Bpf.Ret Bpf.Allow;
            Bpf.Ret Bpf.Kill;
          |]
        in
        Bpf.validate prog;
        Alcotest.(check bool) "42 allowed" true (Bpf.run prog (data 42) = Bpf.Allow);
        Alcotest.(check bool) "43 killed" true (Bpf.run prog (data 43) = Bpf.Kill));
    Alcotest.test_case "pkru field visible" `Quick (fun () ->
        let prog =
          [|
            Bpf.Ld Bpf.F_pkru;
            Bpf.Jeq (0x55, 0, 1);
            Bpf.Ret Bpf.Allow;
            Bpf.Ret Bpf.Kill;
          |]
        in
        Alcotest.(check bool) "match" true (Bpf.run prog (data ~pkru:0x55l 0) = Bpf.Allow);
        Alcotest.(check bool) "no match" true (Bpf.run prog (data ~pkru:0l 0) = Bpf.Kill));
    Alcotest.test_case "validator rejects backward jumps" `Quick (fun () ->
        match Bpf.validate [| Bpf.Jmp (-1); Bpf.Ret Bpf.Allow |] with
        | exception Bpf.Bad_program _ -> ()
        | () -> Alcotest.fail "backward jump accepted");
    Alcotest.test_case "validator rejects fallthrough" `Quick (fun () ->
        match Bpf.validate [| Bpf.Ld Bpf.F_nr |] with
        | exception Bpf.Bad_program _ -> ()
        | () -> Alcotest.fail "fallthrough accepted");
    Alcotest.test_case "validator rejects empty" `Quick (fun () ->
        match Bpf.validate [||] with
        | exception Bpf.Bad_program _ -> ()
        | () -> Alcotest.fail "empty accepted");
    Alcotest.test_case "alu ops" `Quick (fun () ->
        let prog =
          [|
            Bpf.Ld (Bpf.F_arg 0);
            Bpf.Alu_and 0xF0;
            Bpf.Alu_rsh 4;
            Bpf.Jeq (0xA, 0, 1);
            Bpf.Ret Bpf.Allow;
            Bpf.Ret Bpf.Kill;
          |]
        in
        Alcotest.(check bool) "0xA5 -> allow" true
          (Bpf.run prog (data ~args:[| 0xA5 |] 0) = Bpf.Allow));
    Alcotest.test_case "run_count counts" `Quick (fun () ->
        let prog = [| Bpf.Ld Bpf.F_nr; Bpf.Ret Bpf.Allow |] in
        Alcotest.(check bool) "2 steps" true (snd (Bpf.run_count prog (data 0)) = 2));
  ]

(* ------------------------------------------------------------------ *)
(* Seccomp (compiler + dispatch) *)

let seccomp_tests =
  let pkru_a = 0x10l and pkru_b = 0x44l in
  let filter =
    Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access ]
      [
        { Seccomp.pkru = pkru_a; rules = [ Seccomp.rule Sysno.Getuid ] };
        {
          Seccomp.pkru = pkru_b;
          rules =
            [
              Seccomp.rule Sysno.Sendto;
              Seccomp.rule ~arg0:[ 101; 102 ] Sysno.Connect;
            ];
        };
      ]
  in
  let check nr ?(args = [||]) pkru expected =
    Alcotest.(check bool) "action" true
      (Bpf.run filter (Bpf.make_data ~nr:(Sysno.number nr) ~args ~pkru ()) = expected)
  in
  [
    Alcotest.test_case "trusted pkru allowed everything" `Quick (fun () ->
        check Sysno.Open Mpk.pkru_all_access Bpf.Allow;
        check Sysno.Socket Mpk.pkru_all_access Bpf.Allow);
    Alcotest.test_case "env whitelist enforced" `Quick (fun () ->
        check Sysno.Getuid pkru_a Bpf.Allow;
        check Sysno.Open pkru_a Bpf.Kill;
        check Sysno.Sendto pkru_b Bpf.Allow;
        check Sysno.Getuid pkru_b Bpf.Kill);
    Alcotest.test_case "unknown pkru killed" `Quick (fun () ->
        check Sysno.Getuid 0x99l Bpf.Kill);
    Alcotest.test_case "connect arg0 list" `Quick (fun () ->
        check Sysno.Connect ~args:[| 101 |] pkru_b Bpf.Allow;
        check Sysno.Connect ~args:[| 102 |] pkru_b Bpf.Allow;
        check Sysno.Connect ~args:[| 666 |] pkru_b Bpf.Kill);
    Alcotest.test_case "trusted branch decides fast" `Quick (fun () ->
        let _, steps =
          Bpf.run_count filter
            (Bpf.make_data ~nr:(Sysno.number Sysno.Open) ~pkru:Mpk.pkru_all_access ())
        in
        Alcotest.(check bool) "<= 4 steps" true (steps <= 4));
    Alcotest.test_case "install validates" `Quick (fun () ->
        let s = Seccomp.create () in
        Alcotest.(check bool) "bad prog refused" true
          (Result.is_error (Seccomp.install s [| Bpf.Ld Bpf.F_nr |]));
        Alcotest.(check bool) "not installed" false (Seccomp.installed s));
    Alcotest.test_case "assembler rejects unknown label" `Quick (fun () ->
        match Seccomp.Asm.assemble [ Seccomp.Asm.Jmp_lbl "nowhere" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "unknown label accepted");
  ]

(* Property: the compiled seccomp program agrees with a reference
   evaluator on random (env, syscall) pairs. *)
let seccomp_props =
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair (int_range 0 3)
          (pair (int_range 0 (List.length Sysno.all - 1)) (int_range 0 200)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compiled filter = reference semantics" ~count:300 gen
         (fun (env_idx, (sys_idx, arg0)) ->
           let sysno = List.nth Sysno.all sys_idx in
           let envs =
             [
               (0x04l, [ Seccomp.rule Sysno.Getuid; Seccomp.rule Sysno.Read ]);
               (0x10l, List.map (fun s -> Seccomp.rule s) Sysno.all);
               (0x40l, [ Seccomp.rule ~arg0:[ 7; 9 ] Sysno.Connect ]);
               (0x44l, []);
             ]
           in
           let prog =
             Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access ]
               (List.map (fun (pkru, rules) -> { Seccomp.pkru; rules }) envs)
           in
           let pkru, rules = List.nth envs env_idx in
           let reference =
             List.exists
               (fun (r : Seccomp.rule) ->
                 r.Seccomp.sysno = sysno
                 && match r.Seccomp.arg0_allowed with
                    | None -> true
                    | Some ips -> List.mem arg0 ips)
               rules
           in
           let actual =
             Bpf.run prog
               (Bpf.make_data ~nr:(Sysno.number sysno) ~args:[| arg0 |] ~pkru ())
             = Bpf.Allow
           in
           actual = reference));
  ]

(* The reference verdict cache: per-core polymorphic tables keyed by a
   (PKRU, nr, arg0) record, flushed on [install] and [invalidate]. The
   int-hashed cache in [Seccomp] is checked against it. *)
module Verdict_model = struct
  type key = { pkru : int; nr : int; arg0 : int }

  type t = {
    mutable prog : Bpf.program option;
    mutable caches : (key, Bpf.action) Hashtbl.t array;
    mutable invalidations : int;
  }

  let create () =
    { prog = None; caches = [| Hashtbl.create 128 |]; invalidations = 0 }

  let cache_for t core =
    if core >= Array.length t.caches then begin
      let n = Array.length t.caches in
      t.caches <-
        Array.init
          (max (core + 1) (2 * n))
          (fun i -> if i < n then t.caches.(i) else Hashtbl.create 128)
    end;
    t.caches.(core)

  let invalidate t =
    Array.iter (fun cache -> if Hashtbl.length cache > 0 then Hashtbl.reset cache) t.caches;
    t.invalidations <- t.invalidations + 1

  let install t prog =
    t.prog <- Some prog;
    if Defense.enabled Defense.Cache_epoch then invalidate t

  let check_memo ~core t (data : Bpf.data) =
    match t.prog with
    | None -> (Bpf.Allow, Seccomp.Evaluated 0)
    | Some prog ->
        if not (Fastpath.enabled ()) then
          let action, steps = Bpf.run_count prog data in
          (action, Seccomp.Evaluated steps)
        else
          let cache = cache_for t core in
          let key =
            {
              pkru = Int32.to_int (Int32.logand data.Bpf.pkru 0xffffffffl) land 0xffffffff;
              nr = data.Bpf.nr;
              arg0 = data.Bpf.args.(0);
            }
          in
          match Hashtbl.find_opt cache key with
          | Some action -> (action, Seccomp.Hit)
          | None ->
              let action, steps = Bpf.run_count prog data in
              Hashtbl.replace cache key action;
              (action, Seccomp.Evaluated steps)
end

type verdict_op =
  | Install of int
  | Invalidate
  | Check of { core : int; pkru : int32; nr : int; arg0 : int }

(* Two filters that disagree, so a verdict surviving an install shows.
   PKRUs with the sign bit set and per-argument rules are in both. *)
let verdict_programs =
  let env pkru rules = { Seccomp.pkru; rules } in
  [|
    Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access ]
      [
        env 0x10l [ Seccomp.rule Sysno.Getuid; Seccomp.rule Sysno.Read ];
        env 0x80000010l
          [ Seccomp.rule Sysno.Sendto; Seccomp.rule ~arg0:[ 101; 102 ] Sysno.Connect ];
        env (-4l) [ Seccomp.rule ~arg0:[ 7 ] Sysno.Read ];
      ];
    Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access ]
      [
        env 0x10l [ Seccomp.rule ~arg0:[ 101 ] Sysno.Connect ];
        env 0x80000010l [ Seccomp.rule Sysno.Getuid ];
      ];
  |]

let verdict_arb =
  let open QCheck.Gen in
  let pkru =
    frequency
      [
        (4, oneofl [ Mpk.pkru_all_access; 0x10l; 0x80000010l; -4l; Int32.min_int; -1l ]);
        (1, int32);
      ]
  in
  let nr =
    frequency
      [
        (4, map Sysno.number (oneofl [ Sysno.Getuid; Sysno.Read; Sysno.Sendto; Sysno.Connect ]));
        (1, int_range 0 400);
      ]
  in
  let arg0 =
    frequency
      [
        (4, oneofl [ 7; 101; 102; 666 ]);
        (2, oneofl [ (1 lsl 32) + 7; (1 lsl 32) + 101; -1; -(1 lsl 32) + 101; min_int; max_int ]);
        (1, int);
      ]
  in
  let op =
    frequency
      [
        (1, map (fun i -> Install i) (int_range 0 1));
        (1, return Invalidate);
        ( 12,
          map2
            (fun (core, pkru) (nr, arg0) -> Check { core; pkru; nr; arg0 })
            (pair (int_range 0 3) pkru) (pair nr arg0) );
      ]
  in
  let print = function
    | Install i -> Printf.sprintf "install %d" i
    | Invalidate -> "invalidate"
    | Check { core; pkru; nr; arg0 } ->
        Printf.sprintf "check core=%d pkru=%ld nr=%d arg0=%d" core pkru nr arg0
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 0 120) op)

let verdict_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int-hashed verdict cache matches the polymorphic model"
         ~count:300 verdict_arb (fun ops ->
           Fastpath.with_flag true @@ fun () ->
           let s = Seccomp.create () and m = Verdict_model.create () in
           List.for_all
             (fun op ->
               let same_step =
                 match op with
                 | Install i ->
                     let prog = verdict_programs.(i) in
                     Verdict_model.install m prog;
                     Seccomp.install s prog = Ok ()
                 | Invalidate ->
                     Verdict_model.invalidate m;
                     Seccomp.invalidate s;
                     true
                 | Check { core; pkru; nr; arg0 } ->
                     let data = Bpf.make_data ~nr ~args:[| arg0 |] ~pkru () in
                     Seccomp.check_memo ~core s data = Verdict_model.check_memo ~core m data
               in
               same_step
               && Seccomp.invalidation_count s = m.Verdict_model.invalidations)
             ops));
  ]

(* ------------------------------------------------------------------ *)
(* VFS *)

let vfs_tests =
  [
    Alcotest.test_case "create, read back" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "create" true
          (Result.is_ok (Vfs.create_file fs "/a.txt" (Bytes.of_string "hello")));
        Alcotest.(check bytes) "contents" (Bytes.of_string "hello")
          (Result.get_ok (Vfs.read_file fs "/a.txt")));
    Alcotest.test_case "mkdir_p and nested files" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "mkdir_p" true (Result.is_ok (Vfs.mkdir_p fs "/x/y/z"));
        Alcotest.(check bool) "file" true
          (Result.is_ok (Vfs.create_file fs "/x/y/z/f" (Bytes.of_string "deep")));
        Alcotest.(check bool) "exists" true (Vfs.exists fs "/x/y/z/f"));
    Alcotest.test_case "missing path is ENOENT" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "enoent" true (Vfs.read_file fs "/nope" = Error Vfs.Enoent));
    Alcotest.test_case "write_at grows" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/f" Bytes.empty);
        ignore (Vfs.write_at fs "/f" ~off:4 (Bytes.of_string "abcd"));
        let s = Result.get_ok (Vfs.stat fs "/f") in
        Alcotest.(check int) "size" 8 s.Vfs.size);
    Alcotest.test_case "append" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/f" (Bytes.of_string "ab"));
        ignore (Vfs.append fs "/f" (Bytes.of_string "cd"));
        Alcotest.(check bytes) "abcd" (Bytes.of_string "abcd")
          (Result.get_ok (Vfs.read_file fs "/f")));
    Alcotest.test_case "read_at windows" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/f" (Bytes.of_string "0123456789"));
        Alcotest.(check bytes) "mid" (Bytes.of_string "345")
          (Result.get_ok (Vfs.read_at fs "/f" ~off:3 ~len:3));
        Alcotest.(check bytes) "tail clamp" (Bytes.of_string "89")
          (Result.get_ok (Vfs.read_at fs "/f" ~off:8 ~len:10)));
    Alcotest.test_case "unlink and rmdir rules" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.mkdir fs "/d");
        ignore (Vfs.create_file fs "/d/f" Bytes.empty);
        Alcotest.(check bool) "rmdir non-empty" true (Vfs.rmdir fs "/d" = Error Vfs.Einval);
        Alcotest.(check bool) "unlink dir fails" true (Vfs.unlink fs "/d" = Error Vfs.Eisdir);
        Alcotest.(check bool) "unlink file" true (Result.is_ok (Vfs.unlink fs "/d/f"));
        Alcotest.(check bool) "rmdir empty" true (Result.is_ok (Vfs.rmdir fs "/d")));
    Alcotest.test_case "readdir sorted" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/b" Bytes.empty);
        ignore (Vfs.create_file fs "/a" Bytes.empty);
        ignore (Vfs.mkdir fs "/c");
        Alcotest.(check (list string)) "entries" [ "a"; "b"; "c" ]
          (Result.get_ok (Vfs.readdir fs "/")));
    Alcotest.test_case "relative paths rejected" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "einval" true (Vfs.read_file fs "nope" = Error Vfs.Einval));
  ]

(* ------------------------------------------------------------------ *)
(* Net *)

let net_tests =
  [
    Alcotest.test_case "addr parsing" `Quick (fun () ->
        Alcotest.(check int) "loopback" Net.loopback (Net.addr_of_string "127.0.0.1");
        Alcotest.(check string) "roundtrip" "10.1.2.3"
          (Net.string_of_addr (Net.addr_of_string "10.1.2.3"));
        match Net.addr_of_string "999.1.1.1" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "bad addr accepted");
    Alcotest.test_case "listen / client_connect / stream" `Quick (fun () ->
        let net = Net.create () in
        let l = Result.get_ok (Net.listen net ~port:80) in
        let client = Result.get_ok (Net.client_connect net ~port:80) in
        let server = Option.get (Net.accept net l) in
        ignore (Net.send net client (Bytes.of_string "ping"));
        (match Net.recv net server 16 with
        | Net.Data d -> Alcotest.(check bytes) "ping" (Bytes.of_string "ping") d
        | _ -> Alcotest.fail "no data");
        ignore (Net.send net server (Bytes.of_string "pong"));
        match Net.recv net client 16 with
        | Net.Data d -> Alcotest.(check bytes) "pong" (Bytes.of_string "pong") d
        | _ -> Alcotest.fail "no reply");
    Alcotest.test_case "recv would-block then eof" `Quick (fun () ->
        let net = Net.create () in
        let l = Result.get_ok (Net.listen net ~port:81) in
        let client = Result.get_ok (Net.client_connect net ~port:81) in
        let server = Option.get (Net.accept net l) in
        Alcotest.(check bool) "would block" true (Net.recv net server 4 = Net.Would_block);
        Net.close_ep net client;
        Alcotest.(check bool) "eof" true (Net.recv net server 4 = Net.Eof));
    Alcotest.test_case "remote host records and responds" `Quick (fun () ->
        let net = Net.create () in
        let r =
          Net.register_remote net ~ip:(Net.addr_of_string "9.9.9.9") ~port:443
            ~respond:(fun b -> [ Bytes.of_string ("ack:" ^ Bytes.to_string b) ])
            "collector"
        in
        let ep = Result.get_ok (Net.connect net ~ip:(Net.addr_of_string "9.9.9.9") ~port:443) in
        ignore (Net.send net ep (Bytes.of_string "secret"));
        Alcotest.(check bytes) "recorded" (Bytes.of_string "secret") (Net.remote_received r);
        match Net.recv net ep 64 with
        | Net.Data d -> Alcotest.(check bytes) "ack" (Bytes.of_string "ack:secret") d
        | _ -> Alcotest.fail "no ack");
    Alcotest.test_case "connect refused without listener or route" `Quick (fun () ->
        let net = Net.create () in
        Alcotest.(check bool) "loopback refused" true
          (Result.is_error (Net.connect net ~ip:Net.loopback ~port:9));
        Alcotest.(check bool) "no route" true
          (Result.is_error (Net.connect net ~ip:(Net.addr_of_string "8.8.8.8") ~port:9)));
    Alcotest.test_case "readable peek is non-consuming" `Quick (fun () ->
        let net = Net.create () in
        let l = Result.get_ok (Net.listen net ~port:82) in
        let client = Result.get_ok (Net.client_connect net ~port:82) in
        let server = Option.get (Net.accept net l) in
        Alcotest.(check bool) "idle" false (Net.readable net server);
        ignore (Net.send net client (Bytes.of_string "x"));
        Alcotest.(check bool) "readable" true (Net.readable net server);
        Alcotest.(check bool) "still there" true (Net.recv net server 1 <> Net.Would_block));
  ]

(* The reference socket buffer: [push] copies what it is sent and [pop]
   assembles its answer in a [Buffer]. The owning, copy-once store in
   [Net] is checked against it. *)
module Bytebuf_model = struct
  type t = { chunks : Bytes.t Queue.t; mutable offset : int; mutable size : int }

  let create () = { chunks = Queue.create (); offset = 0; size = 0 }

  let push t data =
    if Bytes.length data > 0 then begin
      Queue.push (Bytes.copy data) t.chunks;
      t.size <- t.size + Bytes.length data
    end

  let pop t n =
    let out = Buffer.create (min n t.size) in
    let remaining = ref (min n t.size) in
    while !remaining > 0 do
      let chunk = Queue.peek t.chunks in
      let avail = Bytes.length chunk - t.offset in
      let take = min avail !remaining in
      Buffer.add_subbytes out chunk t.offset take;
      remaining := !remaining - take;
      if take = avail then begin
        ignore (Queue.pop t.chunks);
        t.offset <- 0
      end
      else t.offset <- t.offset + take
    done;
    t.size <- t.size - Buffer.length out;
    Buffer.to_bytes out
end

(* How many bytes a [recv] asks for, relative to what is buffered. *)
type recv_n = Neg | Zero | One | Size_minus | Size | Size_plus | Big | Rand of int

type stream_op = Send of int | Recv of recv_n

let stream_arb =
  let open QCheck.Gen in
  let recv_n =
    frequency
      [
        (1, return Neg); (1, return Zero); (1, return One); (2, return Size_minus);
        (2, return Size); (1, return Size_plus); (1, return Big);
        (3, map (fun n -> Rand n) (int_range 0 30_000));
      ]
  in
  let op =
    frequency
      [
        (2, map (fun n -> Send n) (frequency [ (3, int_range 0 20_000); (1, int_range 0 8) ]));
        (3, map (fun n -> Recv n) recv_n);
      ]
  in
  let print_op = function
    | Send n -> Printf.sprintf "send %d" n
    | Recv Neg -> "recv -1"
    | Recv Zero -> "recv 0"
    | Recv One -> "recv 1"
    | Recv Size_minus -> "recv size-1"
    | Recv Size -> "recv size"
    | Recv Size_plus -> "recv size+1"
    | Recv Big -> "recv 65536"
    | Recv (Rand n) -> Printf.sprintf "recv %d" n
  in
  QCheck.make
    ~print:(fun (before, after) ->
      String.concat "; " (List.map print_op before)
      ^ "; close; " ^ String.concat "; " (List.map print_op after))
    (pair (list_size (int_range 0 40) op) (list_size (int_range 0 10) op))

let net_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"copy-once stream matches the copying model" ~count:300
         stream_arb (fun (before, after) ->
           let net = Net.create () in
           let l = Result.get_ok (Net.listen net ~port:80) in
           let client = Result.get_ok (Net.client_connect net ~port:80) in
           let server = Option.get (Net.accept net l) in
           let model = Bytebuf_model.create () and closed = ref false in
           let sends = ref 0 in
           let step op =
             match op with
             | Send n ->
                 incr sends;
                 let data = Bytes.init n (fun i -> Char.chr ((!sends * 37 + i) land 0xff)) in
                 let want =
                   if !closed then "error"
                   else begin
                     Bytebuf_model.push model data;
                     Printf.sprintf "ok %d" n
                   end
                 in
                 let got =
                   match Net.send net client data with
                   | Ok k -> Printf.sprintf "ok %d" k
                   | Error _ -> "error"
                 in
                 got = want
             | Recv r ->
                 let size = model.Bytebuf_model.size in
                 let n =
                   match r with
                   | Neg -> -1
                   | Zero -> 0
                   | One -> 1
                   | Size_minus -> size - 1
                   | Size -> size
                   | Size_plus -> size + 1
                   | Big -> 65_536
                   | Rand n -> n
                 in
                 let want =
                   if size > 0 then "data " ^ Bytes.to_string (Bytebuf_model.pop model n)
                   else if !closed then "eof"
                   else "would block"
                 in
                 let got =
                   match Net.recv net server n with
                   | Net.Data d ->
                       let s = "data " ^ Bytes.to_string d in
                       (* The bytes are the caller's: scribbling on them
                          must not reach anything still buffered. *)
                       Bytes.fill d 0 (Bytes.length d) '!';
                       s
                   | Net.Would_block -> "would block"
                   | Net.Eof -> "eof"
                 in
                 got = want
           in
           let readable () =
             Net.readable net server = (model.Bytebuf_model.size > 0 || !closed)
           in
           List.for_all (fun op -> step op && readable ()) before
           && begin
                Net.close_ep net client;
                closed := true;
                readable ()
              end
           && List.for_all (fun op -> step op && readable ()) after));
  ]

(* ------------------------------------------------------------------ *)
(* Kernel dispatcher *)

let kernel_fixture () = Machine.create ()

let map_buf m =
  Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false }

(* A guest socket accepted on [port], and the external client's end. *)
let guest_conn m ~port =
  let k = m.Machine.kernel in
  let fd = Result.get_ok (K.syscall k K.Socket) in
  ignore (K.syscall k (K.Bind { fd; port }));
  ignore (K.syscall k (K.Listen fd));
  let client = Result.get_ok (Net.client_connect m.Machine.net ~port) in
  (Result.get_ok (K.syscall k (K.Accept fd)), client)

(* Every call that takes a length or a duration, over a live read-write
   file, a live socket holding data and a mapped 4 KiB buffer, so only
   the length can make them fail. *)
let length_calls m =
  let k = m.Machine.kernel in
  ignore (Vfs.create_file m.Machine.vfs "/len" (Bytes.make 8192 'f'));
  let file = Result.get_ok (K.syscall k (K.Open { path = "/len"; flags = [ K.O_rdwr ] })) in
  let sock, client = guest_conn m ~port:7070 in
  ignore (Net.send m.Machine.net client (Bytes.of_string "queued"));
  let buf = map_buf m in
  let calls len =
    [
      ("read file", K.Read { fd = file; buf; len });
      ("read socket", K.Read { fd = sock; buf; len });
      ("write file", K.Write { fd = file; buf; len });
      ("write socket", K.Write { fd = sock; buf; len });
      ("send", K.Send { fd = sock; buf; len });
      ("recv", K.Recv { fd = sock; buf; len });
      ("getrandom", K.Getrandom { buf; len });
      ("sendfile", K.Sendfile { out_fd = sock; in_fd = file; off = 0; len });
      ("nanosleep", K.Nanosleep len);
      ("mmap", K.Mmap { len });
      ("munmap", K.Munmap { addr = buf; len });
      ("pkey_mprotect", K.Pkey_mprotect { addr = buf; len; key = 1 });
    ]
  in
  (sock, client, buf, calls)

let kernel_tests =
  [
    Alcotest.test_case "identity syscalls" `Quick (fun () ->
        let m = kernel_fixture () in
        Alcotest.(check bool) "getuid" true (K.syscall m.Machine.kernel K.Getuid = Ok 1000);
        Alcotest.(check bool) "getpid" true (K.syscall m.Machine.kernel K.Getpid = Ok 4217));
    Alcotest.test_case "file io via syscalls + user buffers" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        ignore (Vfs.create_file m.Machine.vfs "/data" (Bytes.of_string "content!"));
        let fd = Result.get_ok (K.syscall k (K.Open { path = "/data"; flags = [ K.O_rdonly ] })) in
        let n = Result.get_ok (K.syscall k (K.Read { fd; buf; len = 64 })) in
        Alcotest.(check int) "read len" 8 n;
        let got = Cpu.read_bytes m.Machine.cpu ~addr:buf ~len:n in
        Alcotest.(check bytes) "content" (Bytes.of_string "content!") got;
        Alcotest.(check bool) "close" true (K.syscall k (K.Close fd) = Ok 0);
        Alcotest.(check bool) "read after close" true
          (K.syscall k (K.Read { fd; buf; len = 4 }) = Error K.Ebadf));
    Alcotest.test_case "open flags" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        Alcotest.(check bool) "missing, no creat" true
          (K.syscall k (K.Open { path = "/nope"; flags = [ K.O_rdonly ] }) = Error K.Enoent);
        Alcotest.(check bool) "creat" true
          (Result.is_ok (K.syscall k (K.Open { path = "/new"; flags = [ K.O_wronly; K.O_creat ] })));
        Alcotest.(check bool) "created" true (Vfs.exists m.Machine.vfs "/new"));
    Alcotest.test_case "mmap returns fresh writable memory" `Quick (fun () ->
        let m = kernel_fixture () in
        let addr = Result.get_ok (K.syscall m.Machine.kernel (K.Mmap { len = 8192 })) in
        Cpu.write8 m.Machine.cpu addr 7;
        Alcotest.(check int) "rw" 7 (Cpu.read8 m.Machine.cpu addr);
        Alcotest.(check bool) "munmap" true
          (K.syscall m.Machine.kernel (K.Munmap { addr; len = 8192 }) = Ok 0));
    Alcotest.test_case "a failed munmap leaves the range mapped" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        (* One mapped page; the page after it is not mapped. *)
        let addr = Result.get_ok (K.syscall k (K.Mmap { len = 4096 })) in
        Cpu.write8 m.Machine.cpu addr 7;
        let frames = Phys.page_count m.Machine.phys in
        Alcotest.(check bool) "einval" true
          (K.syscall k (K.Munmap { addr; len = 8192 }) = Error K.Einval);
        Alcotest.(check bool) "still mapped" true
          (Encl_kernel.Mm.is_mapped m.Machine.mm ~addr);
        Alcotest.(check int) "no frame freed" frames (Phys.page_count m.Machine.phys);
        Alcotest.(check int) "contents kept" 7 (Cpu.read8 m.Machine.cpu addr));
    Alcotest.test_case "a failed pkey_mprotect retags nothing" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let addr = Result.get_ok (K.syscall k (K.Mmap { len = 4096 })) in
        let pkey () =
          (Option.get (Pagetable.walk m.Machine.trusted_pt ~vpn:(addr / Phys.page_size)))
            .Pte.pkey
        in
        let before = pkey () in
        Alcotest.(check bool) "einval" true
          (K.syscall k (K.Pkey_mprotect { addr; len = 8192; key = 3 }) = Error K.Einval);
        Alcotest.(check int) "key unchanged" before (pkey ()));
    Alcotest.test_case "socket lifecycle via syscalls" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let fd = Result.get_ok (K.syscall k K.Socket) in
        Alcotest.(check bool) "bind" true (K.syscall k (K.Bind { fd; port = 1234 }) = Ok 0);
        Alcotest.(check bool) "listen" true (K.syscall k (K.Listen fd) = Ok 0);
        Alcotest.(check bool) "accept empty" true (K.syscall k (K.Accept fd) = Error K.Eagain);
        ignore (Result.get_ok (Net.client_connect m.Machine.net ~port:1234));
        Alcotest.(check bool) "pending" true (K.listener_pending k fd);
        Alcotest.(check bool) "accept" true (Result.is_ok (K.syscall k (K.Accept fd))));
    Alcotest.test_case "listen before bind fails" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let fd = Result.get_ok (K.syscall k K.Socket) in
        Alcotest.(check bool) "einval" true (K.syscall k (K.Listen fd) = Error K.Einval));
    Alcotest.test_case "trace counts syscalls" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        ignore (K.syscall k K.Getuid);
        ignore (K.syscall k K.Getuid);
        ignore (K.syscall k K.Getpid);
        Alcotest.(check int) "total" 3 (K.syscall_count k);
        Alcotest.(check int) "getuid" 2 (K.count_for k Sysno.Getuid));
    Alcotest.test_case "seccomp kill raises" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let prog = Seccomp.compile ~trusted_pkrus:[ 0x7777l ] [] in
        Alcotest.(check bool) "installed" true (Result.is_ok (K.install_seccomp k prog));
        (* current env has pkru 0 (all access), which is unknown. *)
        match K.syscall k K.Getuid with
        | exception K.Syscall_killed _ -> ()
        | _ -> Alcotest.fail "expected kill");
    Alcotest.test_case "pipe moves bytes between fds" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let rd = Result.get_ok (K.syscall k K.Pipe) in
        let wr = rd + 1 in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        Cpu.write_bytes m.Machine.cpu ~addr:buf (Bytes.of_string "through the pipe");
        let n = Result.get_ok (K.syscall k (K.Write { fd = wr; buf; len = 16 })) in
        Alcotest.(check int) "written" 16 n;
        let buf2 = buf + 1024 in
        let n2 = Result.get_ok (K.syscall k (K.Read { fd = rd; buf = buf2; len = 64 })) in
        Alcotest.(check int) "read" 16 n2;
        Alcotest.(check bytes) "payload" (Bytes.of_string "through the pipe")
          (Cpu.read_bytes m.Machine.cpu ~addr:buf2 ~len:16));
    Alcotest.test_case "dup shares the file offset" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        ignore (Vfs.create_file m.Machine.vfs "/f" (Bytes.of_string "abcdef"));
        let fd = Result.get_ok (K.syscall k (K.Open { path = "/f"; flags = [ K.O_rdonly ] })) in
        let fd2 = Result.get_ok (K.syscall k (K.Dup fd)) in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        ignore (Result.get_ok (K.syscall k (K.Read { fd; buf; len = 3 })));
        let n = Result.get_ok (K.syscall k (K.Read { fd = fd2; buf; len = 3 })) in
        Alcotest.(check int) "continued" 3 n;
        Alcotest.(check bytes) "second half" (Bytes.of_string "def")
          (Cpu.read_bytes m.Machine.cpu ~addr:buf ~len:3));
    Alcotest.test_case "lseek whence semantics" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        ignore (Vfs.create_file m.Machine.vfs "/f" (Bytes.of_string "0123456789"));
        let fd = Result.get_ok (K.syscall k (K.Open { path = "/f"; flags = [ K.O_rdonly ] })) in
        Alcotest.(check bool) "SET" true (K.syscall k (K.Lseek { fd; off = 4; whence = 0 }) = Ok 4);
        Alcotest.(check bool) "CUR" true (K.syscall k (K.Lseek { fd; off = 2; whence = 1 }) = Ok 6);
        Alcotest.(check bool) "END" true (K.syscall k (K.Lseek { fd; off = -1; whence = 2 }) = Ok 9);
        Alcotest.(check bool) "negative" true (K.syscall k (K.Lseek { fd; off = -99; whence = 0 }) = Error K.Einval);
        Alcotest.(check bool) "fstat" true (K.syscall k (K.Fstat fd) = Ok 10));
    Alcotest.test_case "getcwd copies the path" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        Alcotest.(check bool) "ok" true (K.syscall k (K.Getcwd { buf; len = 64 }) = Ok 2);
        Alcotest.(check int) "slash" (Char.code '/') (Cpu.read8 m.Machine.cpu buf));
    Alcotest.test_case "nanosleep advances simulated time" `Quick (fun () ->
        let m = kernel_fixture () in
        let t0 = Clock.now m.Machine.clock in
        ignore (K.syscall m.Machine.kernel (K.Nanosleep 5000));
        Alcotest.(check bool) "advanced" true (Clock.now m.Machine.clock - t0 >= 5000));
    Alcotest.test_case "a sleep past the clock's horizon is EINVAL" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel and clock = m.Machine.clock in
        let sleep ns = K.syscall k (K.Nanosleep ns) in
        Alcotest.(check bool) "max_int" true (sleep max_int = Error K.Einval);
        let t0 = Clock.now clock in
        Alcotest.(check bool) "one past" true
          (sleep (Clock.horizon - t0 + 1) = Error K.Einval);
        (* The refused calls paid only their trap: time moved a little,
           forward. *)
        let t1 = Clock.now clock in
        Alcotest.(check bool) "not wrapped" true (t1 >= t0 && t1 < 1 lsl 20);
        (* Up to the horizon, after this call's own trap, is granted. *)
        let trap = Clock.now clock in
        ignore (sleep 0);
        let trap = Clock.now clock - trap in
        Alcotest.(check bool) "to the horizon" true
          (sleep (Clock.horizon - Clock.now clock - trap) = Ok 0);
        Alcotest.(check int) "at the horizon" Clock.horizon (Clock.now clock);
        Alcotest.(check bool) "then nothing more" true (sleep 1 = Error K.Einval));
    Alcotest.test_case "negative lengths are EINVAL" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let sock, client, buf, calls = length_calls m in
        List.iter
          (fun len ->
            List.iter
              (fun (name, call) ->
                let what = Printf.sprintf "%s len %d" name len in
                match K.syscall k call with
                | r -> Alcotest.(check bool) what true (r = Error K.Einval)
                | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
              (calls len))
          [ -1; -100_000 ];
        (* Nothing moved: the data is still queued, the buffer still
           mapped, and the peer got nothing. *)
        Alcotest.(check bool) "data still queued" true
          (K.syscall k (K.Recv { fd = sock; buf; len = 64 }) = Ok 6);
        Alcotest.(check bool) "buffer mapped" true (Encl_kernel.Mm.is_mapped m.Machine.mm ~addr:buf);
        Alcotest.(check bool) "peer got nothing" true
          (Net.recv m.Machine.net client 64 = Net.Would_block));
    Alcotest.test_case "send snapshots guest memory" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let sock, client = guest_conn m ~port:7071 in
        let buf = map_buf m in
        Cpu.write_bytes m.Machine.cpu ~addr:buf (Bytes.of_string "original bytes");
        Alcotest.(check bool) "sent" true (K.syscall k (K.Send { fd = sock; buf; len = 14 }) = Ok 14);
        Cpu.write_bytes m.Machine.cpu ~addr:buf (Bytes.of_string "OVERWRITTEN!!!");
        match Net.recv m.Machine.net client 64 with
        | Net.Data d -> Alcotest.(check string) "peer reads the original" "original bytes" (Bytes.to_string d)
        | _ -> Alcotest.fail "no data");
    Alcotest.test_case "an mmap past the address space is ENOMEM, cursor kept" `Quick
      (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let mmap len = K.syscall k (K.Mmap { len }) in
        let addr = Result.get_ok (mmap 4096) in
        let frames = Phys.page_count m.Machine.phys in
        List.iter
          (fun len ->
            match mmap len with
            | r -> Alcotest.(check bool) (Printf.sprintf "len %d" len) true (r = Error K.Enomem)
            | exception e -> Alcotest.failf "len %d raised %s" len (Printexc.to_string e))
          [ 1 lsl 48; max_int ];
        Alcotest.(check int) "no frame allocated" frames (Phys.page_count m.Machine.phys);
        Alcotest.(check bool) "the next map follows the last one" true
          (mmap 4096 = Ok (addr + 4096)));
    Alcotest.test_case "munmap and pkey_mprotect of max_int bytes are EINVAL" `Quick
      (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let addr = Result.get_ok (K.syscall k (K.Mmap { len = 4096 })) in
        List.iter
          (fun (what, call) ->
            match K.syscall k call with
            | r -> Alcotest.(check bool) what true (r = Error K.Einval)
            | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
          [
            ("munmap", K.Munmap { addr; len = max_int });
            ("pkey_mprotect", K.Pkey_mprotect { addr; len = max_int; key = 1 });
          ];
        Alcotest.(check bool) "still mapped" true (Encl_kernel.Mm.is_mapped m.Machine.mm ~addr));
  ]

(* The reference syscall bookkeeping: a polymorphic table from syscall to
   count, and a running total. The kernel's array is checked against it. *)
module Counts_model = struct
  type t = { counts : (Sysno.t, int) Hashtbl.t; mutable total : int }

  let create () = { counts = Hashtbl.create 64; total = 0 }

  let record t nr =
    t.total <- t.total + 1;
    Hashtbl.replace t.counts nr (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts nr))

  let count_for t nr = Option.value ~default:0 (Hashtbl.find_opt t.counts nr)

  let trace t =
    Hashtbl.fold (fun nr n acc -> (nr, n) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> compare (Sysno.number a) (Sysno.number b))
end

(* Calls that are cheap and harmless on a bare machine, over many
   syscall numbers; fd 99 is never open. *)
let cheap_calls =
  [|
    K.Getuid; K.Getpid; K.Gettimeofday; K.Clock_gettime; K.Sched_yield; K.Futex;
    K.Epoll_wait; K.Epoll_ctl 99; K.Setsockopt 99; K.Close 99; K.Dup 99; K.Fstat 99;
    K.Lseek { fd = 99; off = 0; whence = 0 }; K.Stat "/nope"; K.Unlink "/nope";
    K.Readdir "/nope"; K.Open { path = "/nope"; flags = [] };
    K.Chmod { path = "/nope"; mode = 0 }; K.Read { fd = 99; buf = 0; len = 1 };
    K.Write { fd = 99; buf = 0; len = 1 }; K.Send { fd = 99; buf = 0; len = 1 };
    K.Recv { fd = 99; buf = 0; len = 1 }; K.Recv_ring { fd = 99 };
    K.Sendfile { out_fd = 99; in_fd = 99; off = 0; len = 1 }; K.Socket;
    K.Connect { fd = 99; ip = 0; port = 1 }; K.Bind { fd = 99; port = 1 }; K.Listen 99;
    K.Accept 99; K.Nanosleep 0; K.Getcwd { buf = 0; len = 0 }; K.Pkey_free 99;
  |]

type count_op = Call of int | Exit

let count_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (12, map (fun i -> Call i) (int_range 0 (Array.length cheap_calls - 1)));
        (1, return Exit);
      ]
  in
  let print = function
    | Call i -> Sysno.name (K.sysno_of_call cheap_calls.(i))
    | Exit -> "exit"
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 0 150) op)

(* All twelve [length_calls], at lengths from -2^20 to max_int: past one
   page every page check runs, past 2^48 a range passes the end of the
   address space, and max_int wraps any address sum. An mmap between one
   page and the end of the address space really maps that many pages, so
   mmap draws only small and past-the-end lengths. A nanosleep also
   draws durations around the clock's horizon, where a sleep stops
   being granted. *)
let hostile_arb =
  let open QCheck.Gen in
  let nanosleep = 8 and mmap = 9 in
  let small = frequency [ (1, int_range (-(1 lsl 20)) (-1)); (1, int_range 0 8192) ] in
  let large = oneof [ oneofl [ 4097; 1 lsl 32 ]; int_range 4097 (1 lsl 48) ] in
  let past_end = oneof [ oneofl [ 1 lsl 48; max_int ]; int_range (1 lsl 48) max_int ] in
  let horizon =
    map (fun d -> Clock.horizon + d) (int_range (-(1 lsl 20)) (1 lsl 20))
  in
  let len i =
    if i = mmap then frequency [ (2, small); (1, past_end) ]
    else if i = nanosleep then
      frequency [ (2, small); (1, large); (1, past_end); (2, horizon) ]
    else frequency [ (2, small); (1, large); (1, past_end) ]
  in
  QCheck.make
    ~print:QCheck.Print.(list (pair int int))
    (list_size (int_range 1 16)
       (int_range 0 11 >>= fun i -> map (fun l -> (i, l)) (len i)))

let kernel_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"syscall tallies match the polymorphic model" ~count:200
         count_arb (fun ops ->
           let k = (kernel_fixture ()).Machine.kernel in
           let model = Counts_model.create () in
           let agree () =
             K.trace k = Counts_model.trace model
             && K.syscall_count k = model.Counts_model.total
             && List.for_all (fun nr -> K.count_for k nr = Counts_model.count_for model nr) Sysno.all
           in
           agree ()
           && List.for_all
                (fun op ->
                  (match op with
                  | Call i ->
                      Counts_model.record model (K.sysno_of_call cheap_calls.(i));
                      ignore (K.syscall k cheap_calls.(i))
                  | Exit -> (
                      Counts_model.record model Sysno.Exit;
                      match K.exit_program k 0 with _ -> () | exception K.Exited _ -> ()));
                  agree ())
                ops));
    (* A result, or the range's memory fault: [Cpu.Fault] is the kernel's
       answer to a user range with an unmapped page. Simulated time only
       moves forward and never wraps negative, whatever a call asks
       for. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hostile lengths return a result, never raise" ~count:100
         hostile_arb (fun calls ->
           let m = kernel_fixture () in
           let _, _, _, make = length_calls m in
           let clock = m.Machine.clock in
           List.for_all
             (fun (i, len) ->
               let _, call = List.nth (make len) i in
               let before = Clock.now clock in
               let answered =
                 match K.syscall m.Machine.kernel call with
                 | Ok _ | Error _ -> true
                 | exception Cpu.Fault _ -> true
                 | exception _ -> false
               in
               answered && Clock.now clock >= before && Clock.now clock >= 0)
             calls));
  ]

let mm_tests =
  [
    Alcotest.test_case "map/unmap roundtrip across page tables" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let second = Pagetable.clone m.Machine.trusted_pt ~name:"second" in
        Encl_kernel.Mm.add_pt mm second;
        let addr = Encl_kernel.Mm.map mm ~len:8192 ~perms:{ Pte.r = true; w = true; x = false } in
        Alcotest.(check bool) "mapped" true (Encl_kernel.Mm.is_mapped mm ~addr);
        Alcotest.(check bool) "in both tables" true
          (Pagetable.walk second ~vpn:(addr / Phys.page_size) <> None);
        Encl_kernel.Mm.unmap mm ~addr ~len:8192;
        Alcotest.(check bool) "gone" false (Encl_kernel.Mm.is_mapped mm ~addr);
        Alcotest.(check bool) "gone from clone" true
          (Pagetable.walk second ~vpn:(addr / Phys.page_size) = None));
    Alcotest.test_case "per-table protect" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let second = Pagetable.clone m.Machine.trusted_pt ~name:"second2" in
        Encl_kernel.Mm.add_pt mm second;
        let addr = Encl_kernel.Mm.map mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        Encl_kernel.Mm.protect mm ~pt:second ~addr ~len:4096
          { Pte.r = true; w = false; x = false };
        let vpn = addr / Phys.page_size in
        let trusted_pte = Option.get (Pagetable.walk m.Machine.trusted_pt ~vpn) in
        let second_pte = Option.get (Pagetable.walk second ~vpn) in
        Alcotest.(check bool) "trusted still writable" true trusted_pte.Pte.perms.Pte.w;
        Alcotest.(check bool) "second read-only" false second_pte.Pte.perms.Pte.w);
    Alcotest.test_case "page_span arithmetic" `Quick (fun () ->
        Alcotest.(check (pair int int)) "exact page" (0, 0)
          (Encl_kernel.Mm.page_span ~addr:0 ~len:4096);
        Alcotest.(check (pair int int)) "straddle" (0, 1)
          (Encl_kernel.Mm.page_span ~addr:4000 ~len:200);
        Alcotest.(check (pair int int)) "zero len counts one" (2, 2)
          (Encl_kernel.Mm.page_span ~addr:8192 ~len:0);
        Alcotest.(check (pair int int)) "the page below 0" (-1, -1)
          (Encl_kernel.Mm.page_span ~addr:(-4096) ~len:4096);
        Alcotest.(check (pair int int)) "a byte below 0" (-1, -1)
          (Encl_kernel.Mm.page_span ~addr:(-1) ~len:1);
        Alcotest.(check (pair int int)) "straddling 0" (-1, 0)
          (Encl_kernel.Mm.page_span ~addr:(-1) ~len:2);
        Alcotest.(check (pair int int)) "max_int does not wrap"
          (1, 1 + (max_int asr 12))
          (Encl_kernel.Mm.page_span ~addr:4097 ~len:max_int));
    Alcotest.test_case "double map rejected" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let addr = Encl_kernel.Mm.map mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        match Encl_kernel.Mm.map_at mm ~addr ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "double map accepted");
    Alcotest.test_case "a map over a mapped page changes nothing" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let rw = { Pte.r = true; w = true; x = false } in
        let page = Phys.page_size in
        (* A 3-page hole with only its middle page mapped. *)
        let addr = Encl_kernel.Mm.map mm ~len:(3 * page) ~perms:rw in
        Encl_kernel.Mm.unmap mm ~addr ~len:(3 * page);
        Encl_kernel.Mm.map_at mm ~addr:(addr + page) ~len:page ~perms:rw;
        let frames = Phys.page_count (Encl_kernel.Mm.phys mm) in
        (match Encl_kernel.Mm.map_at mm ~addr ~len:(3 * page) ~perms:rw with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "map over a mapped page accepted");
        Alcotest.(check bool) "first page still unmapped" false
          (Encl_kernel.Mm.is_mapped mm ~addr);
        Alcotest.(check bool) "first page absent from the page table" true
          (Pagetable.walk m.Machine.trusted_pt ~vpn:(addr / page) = None);
        Alcotest.(check int) "no frame allocated" frames
          (Phys.page_count (Encl_kernel.Mm.phys mm)));
    Alcotest.test_case "a map below address 0 is refused and changes nothing" `Quick
      (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let page = Phys.page_size in
        let frames = Phys.page_count (Encl_kernel.Mm.phys mm) in
        (* Pages -1 and 0 by the span's arithmetic: page 0 is in range
           and unmapped, so only the up-front range check refuses it. *)
        (match
           Encl_kernel.Mm.map_at mm ~addr:(-page) ~len:(2 * page)
             ~perms:{ Pte.r = true; w = true; x = false }
         with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "map below address 0 accepted");
        List.iter
          (fun vpn ->
            Alcotest.(check bool) "no frame owned" false
              (Encl_kernel.Mm.is_mapped mm ~addr:(vpn * page));
            Alcotest.(check bool) "absent from the page table" true
              (Pagetable.walk m.Machine.trusted_pt ~vpn = None))
          [ -1; 0 ];
        Alcotest.(check int) "no frame allocated" frames
          (Phys.page_count (Encl_kernel.Mm.phys mm)));
    Alcotest.test_case "an address below 0 is not on page 0" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        Encl_kernel.Mm.map_at mm ~addr:0 ~len:Phys.page_size
          ~perms:{ Pte.r = true; w = true; x = false };
        Alcotest.(check bool) "page 0 mapped" true (Encl_kernel.Mm.is_mapped mm ~addr:0);
        Alcotest.(check bool) "address -1 is on page -1" false
          (Encl_kernel.Mm.is_mapped mm ~addr:(-1)));
  ]

let () =
  Alcotest.run "kernel"
    [
      ("sysno", sysno_tests);
      ("bpf", bpf_tests);
      ("seccomp", seccomp_tests @ seccomp_props @ verdict_props);
      ("mm", mm_tests);
      ("vfs", vfs_tests);
      ("net", net_tests @ net_props);
      ("kernel", kernel_tests @ kernel_props);
    ]
