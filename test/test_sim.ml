(* Tests for the simulated hardware: physical memory, page tables, MPK,
   the CPU/MMU, and the VT-x model. *)

let perms_rw = { Pte.r = true; w = true; x = false }
let perms_r = { Pte.r = true; w = false; x = false }
let perms_rx = { Pte.r = true; w = false; x = true }

let phys_tests =
  [
    Alcotest.test_case "alloc zeroed, write, read" `Quick (fun () ->
        let p = Phys.create () in
        let ppn = Phys.alloc_page p in
        Alcotest.(check int) "zeroed" 0 (Phys.read8 p ~ppn ~off:0);
        Phys.write8 p ~ppn ~off:17 0xAB;
        Alcotest.(check int) "readback" 0xAB (Phys.read8 p ~ppn ~off:17));
    Alcotest.test_case "many pages, distinct frames" `Quick (fun () ->
        let p = Phys.create () in
        let pages = List.init 200 (fun _ -> Phys.alloc_page p) in
        List.iteri (fun i ppn -> Phys.write8 p ~ppn ~off:0 (i land 0xff)) pages;
        List.iteri
          (fun i ppn ->
            Alcotest.(check int) "frame isolated" (i land 0xff) (Phys.read8 p ~ppn ~off:0))
          pages;
        Alcotest.(check int) "count" 200 (Phys.page_count p));
    Alcotest.test_case "free then realloc reuses and rezeroes" `Quick (fun () ->
        let p = Phys.create () in
        let ppn = Phys.alloc_page p in
        Phys.write8 p ~ppn ~off:0 1;
        Phys.free_page p ppn;
        let ppn2 = Phys.alloc_page p in
        Alcotest.(check int) "reused" ppn ppn2;
        Alcotest.(check int) "zeroed again" 0 (Phys.read8 p ~ppn:ppn2 ~off:0));
    Alcotest.test_case "double free rejected" `Quick (fun () ->
        let p = Phys.create () in
        let ppn = Phys.alloc_page p in
        Phys.free_page p ppn;
        match Phys.free_page p ppn with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "double free accepted");
    Alcotest.test_case "int64 roundtrip" `Quick (fun () ->
        let p = Phys.create () in
        let ppn = Phys.alloc_page p in
        Phys.write64 p ~ppn ~off:8 0x1122334455667788L;
        Alcotest.(check int64) "readback" 0x1122334455667788L (Phys.read64 p ~ppn ~off:8));
  ]

let pagetable_tests =
  [
    Alcotest.test_case "map / walk / unmap" `Quick (fun () ->
        let pt = Pagetable.create ~name:"t" in
        Pagetable.map pt ~vpn:5 (Pte.make ~ppn:1 ~perms:perms_rw);
        Alcotest.(check bool) "mapped" true (Pagetable.walk pt ~vpn:5 <> None);
        Pagetable.unmap pt ~vpn:5;
        Alcotest.(check bool) "unmapped" true (Pagetable.walk pt ~vpn:5 = None));
    Alcotest.test_case "double map rejected" `Quick (fun () ->
        let pt = Pagetable.create ~name:"t" in
        Pagetable.map pt ~vpn:5 (Pte.make ~ppn:1 ~perms:perms_rw);
        match Pagetable.map pt ~vpn:5 (Pte.make ~ppn:2 ~perms:perms_rw) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "double map accepted");
    Alcotest.test_case "clone is deep for entries" `Quick (fun () ->
        let pt = Pagetable.create ~name:"orig" in
        Pagetable.map pt ~vpn:1 (Pte.make ~ppn:9 ~perms:perms_rw);
        let c = Pagetable.clone pt ~name:"clone" in
        Pagetable.protect c ~vpn:1 perms_r;
        let orig = Option.get (Pagetable.walk pt ~vpn:1) in
        Alcotest.(check bool) "original untouched" true orig.Pte.perms.Pte.w;
        let cl = Option.get (Pagetable.walk c ~vpn:1) in
        Alcotest.(check bool) "clone changed" false cl.Pte.perms.Pte.w;
        Alcotest.(check int) "same frame" orig.Pte.ppn cl.Pte.ppn);
    Alcotest.test_case "present-bit toggling" `Quick (fun () ->
        let pt = Pagetable.create ~name:"t" in
        Pagetable.map pt ~vpn:3 (Pte.make ~ppn:0 ~perms:perms_rw);
        Pagetable.set_present pt ~vpn:3 false;
        let pte = Option.get (Pagetable.walk pt ~vpn:3) in
        Alcotest.(check bool) "not present" false pte.Pte.present);
    Alcotest.test_case "pkey range validated" `Quick (fun () ->
        let pt = Pagetable.create ~name:"t" in
        Pagetable.map pt ~vpn:3 (Pte.make ~ppn:0 ~perms:perms_rw);
        match Pagetable.set_pkey pt ~vpn:3 16 with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "key 16 accepted");
  ]

let mpk_tests =
  [
    Alcotest.test_case "all-access allows everything" `Quick (fun () ->
        for key = 0 to 15 do
          Alcotest.(check bool) "read" true (Mpk.allows Mpk.pkru_all_access ~key ~write:false);
          Alcotest.(check bool) "write" true (Mpk.allows Mpk.pkru_all_access ~key ~write:true)
        done);
    Alcotest.test_case "deny-all blocks everything" `Quick (fun () ->
        for key = 0 to 15 do
          Alcotest.(check bool) "read" false (Mpk.allows Mpk.pkru_deny_all ~key ~write:false)
        done);
    Alcotest.test_case "read-only key semantics" `Quick (fun () ->
        let pkru = Mpk.set_key Mpk.pkru_all_access ~key:3 Mpk.Read_only in
        Alcotest.(check bool) "read ok" true (Mpk.allows pkru ~key:3 ~write:false);
        Alcotest.(check bool) "write denied" false (Mpk.allows pkru ~key:3 ~write:true);
        Alcotest.(check bool) "other keys fine" true (Mpk.allows pkru ~key:4 ~write:true));
    Alcotest.test_case "allocator hands out 15 keys then fails" `Quick (fun () ->
        let a = Mpk.allocator () in
        let rec grab n = if n = 0 then [] else Result.get_ok (Mpk.pkey_alloc a) :: grab (n - 1) in
        let keys = grab 15 in
        Alcotest.(check int) "15 distinct" 15 (List.length (List.sort_uniq compare keys));
        Alcotest.(check bool) "16th fails" true (Result.is_error (Mpk.pkey_alloc a));
        Alcotest.(check bool) "free+realloc" true
          (Result.is_ok (Mpk.pkey_free a (List.hd keys))
          && Result.is_ok (Mpk.pkey_alloc a)));
  ]

let mpk_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"set_key/key_rights roundtrip" ~count:500
         QCheck.(pair (int_range 0 15) (int_range 0 2))
         (fun (key, r) ->
           let rights =
             match r with 0 -> Mpk.No_access | 1 -> Mpk.Read_only | _ -> Mpk.Read_write
           in
           let pkru = Mpk.set_key Mpk.pkru_all_access ~key rights in
           Mpk.key_rights pkru ~key = rights));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"set_key leaves other keys alone" ~count:500
         QCheck.(pair (int_range 0 15) (int_range 0 15))
         (fun (a, b) ->
           QCheck.assume (a <> b);
           let pkru = Mpk.set_key Mpk.pkru_all_access ~key:a Mpk.No_access in
           Mpk.key_rights pkru ~key:b = Mpk.Read_write));
  ]

(* A small machine for CPU tests: two pages, one RW with key 1, one RX. *)
let cpu_fixture () =
  let phys = Phys.create () in
  let clock = Clock.create () in
  let pt = Pagetable.create ~name:"t" in
  let data_ppn = Phys.alloc_page phys in
  let text_ppn = Phys.alloc_page phys in
  Pagetable.map pt ~vpn:0 (Pte.make ~ppn:data_ppn ~perms:perms_rw);
  Pagetable.map pt ~vpn:1 (Pte.make ~ppn:text_ppn ~perms:perms_rx);
  Pagetable.set_pkey pt ~vpn:0 1;
  let cpu = Cpu.create ~phys ~clock (Cpu.trusted_env pt) in
  (cpu, pt)

let expect_fault f =
  match f () with
  | exception Cpu.Fault _ -> ()
  | _ -> Alcotest.fail "expected Cpu.Fault"

let cpu_tests =
  [
    Alcotest.test_case "trusted env reads and writes" `Quick (fun () ->
        let cpu, _ = cpu_fixture () in
        Cpu.write8 cpu 100 42;
        Alcotest.(check int) "rw" 42 (Cpu.read8 cpu 100));
    Alcotest.test_case "write to rx page faults" `Quick (fun () ->
        let cpu, _ = cpu_fixture () in
        expect_fault (fun () -> Cpu.write8 cpu Phys.page_size 1));
    Alcotest.test_case "exec on data page faults" `Quick (fun () ->
        let cpu, _ = cpu_fixture () in
        expect_fault (fun () -> Cpu.fetch cpu ~addr:16));
    Alcotest.test_case "unmapped access faults" `Quick (fun () ->
        let cpu, _ = cpu_fixture () in
        expect_fault (fun () -> Cpu.read8 cpu (10 * Phys.page_size)));
    Alcotest.test_case "PKRU denies data access by key" `Quick (fun () ->
        let cpu, pt = cpu_fixture () in
        let pkru = Mpk.set_key Mpk.pkru_all_access ~key:1 Mpk.No_access in
        Cpu.set_env cpu { Cpu.label = "restricted"; pt; pkru; exec_ok = None; sfi = None };
        expect_fault (fun () -> Cpu.read8 cpu 0));
    Alcotest.test_case "PKRU read-only key allows reads only" `Quick (fun () ->
        let cpu, pt = cpu_fixture () in
        Cpu.write8 cpu 0 7;
        let pkru = Mpk.set_key Mpk.pkru_all_access ~key:1 Mpk.Read_only in
        Cpu.set_env cpu { Cpu.label = "ro"; pt; pkru; exec_ok = None; sfi = None };
        Alcotest.(check int) "read ok" 7 (Cpu.read8 cpu 0);
        expect_fault (fun () -> Cpu.write8 cpu 0 9));
    Alcotest.test_case "PKRU does not police fetches; exec_ok does" `Quick
      (fun () ->
        let cpu, pt = cpu_fixture () in
        let pkru = Mpk.pkru_deny_all in
        Cpu.set_env cpu { Cpu.label = "x"; pt; pkru; exec_ok = None; sfi = None };
        (* fetch from the RX page still succeeds under deny-all PKRU *)
        Cpu.fetch cpu ~addr:Phys.page_size;
        Cpu.set_env cpu
          { Cpu.label = "x2"; pt; pkru = Mpk.pkru_all_access; exec_ok = Some (fun ~vpn:_ -> false); sfi = None };
        expect_fault (fun () -> Cpu.fetch cpu ~addr:Phys.page_size));
    Alcotest.test_case "non-present page faults" `Quick (fun () ->
        let cpu, pt = cpu_fixture () in
        Pagetable.set_present pt ~vpn:0 false;
        expect_fault (fun () -> Cpu.read8 cpu 0));
    Alcotest.test_case "page-crossing bulk rw" `Quick (fun () ->
        let phys = Phys.create () in
        let clock = Clock.create () in
        let pt = Pagetable.create ~name:"t" in
        Pagetable.map pt ~vpn:0 (Pte.make ~ppn:(Phys.alloc_page phys) ~perms:perms_rw);
        Pagetable.map pt ~vpn:1 (Pte.make ~ppn:(Phys.alloc_page phys) ~perms:perms_rw);
        let cpu = Cpu.create ~phys ~clock (Cpu.trusted_env pt) in
        let data = Bytes.init 100 (fun i -> Char.chr (i mod 256)) in
        let addr = Phys.page_size - 50 in
        Cpu.write_bytes cpu ~addr data;
        Alcotest.(check bytes) "roundtrip across pages" data
          (Cpu.read_bytes cpu ~addr ~len:100));
    Alcotest.test_case "page-crossing int64" `Quick (fun () ->
        let phys = Phys.create () in
        let clock = Clock.create () in
        let pt = Pagetable.create ~name:"t" in
        Pagetable.map pt ~vpn:0 (Pte.make ~ppn:(Phys.alloc_page phys) ~perms:perms_rw);
        Pagetable.map pt ~vpn:1 (Pte.make ~ppn:(Phys.alloc_page phys) ~perms:perms_rw);
        let cpu = Cpu.create ~phys ~clock (Cpu.trusted_env pt) in
        let addr = Phys.page_size - 3 in
        Cpu.write64 cpu addr 0x0102030405060708L;
        Alcotest.(check int64) "straddling i64" 0x0102030405060708L (Cpu.read64 cpu addr));
  ]

let misc_tests =
  [
    Alcotest.test_case "Cpu.check validates whole ranges" `Quick (fun () ->
        let cpu, _ = cpu_fixture () in
        (* Page 0 is RW, page 1 is RX: a write crossing into page 1 must
           fault even though it starts on a writable page. *)
        Cpu.check cpu Cpu.Read ~addr:0 ~len:Phys.page_size;
        expect_fault (fun () ->
            Cpu.check cpu Cpu.Write ~addr:(Phys.page_size - 8) ~len:16);
        (* Zero-length checks are no-ops even on unmapped memory. *)
        Cpu.check cpu Cpu.Write ~addr:(100 * Phys.page_size) ~len:0);
    Alcotest.test_case "pretty printers do not explode" `Quick (fun () ->
        let c = Clock.create () in
        Clock.consume c Clock.Switch 5;
        ignore (Format.asprintf "%a" Clock.pp_breakdown c);
        ignore (Format.asprintf "%a" Costs.pp Costs.default);
        let pt = Pagetable.create ~name:"pp" in
        Pagetable.map pt ~vpn:1 (Pte.make ~ppn:0 ~perms:perms_rw);
        ignore (Format.asprintf "%a" Pagetable.pp pt);
        ignore (Format.asprintf "%a" Mpk.pp_pkru Mpk.pkru_deny_all));
    Alcotest.test_case "costs calibration identities (Table 1)" `Quick (fun () ->
        let c = Costs.default in
        Alcotest.(check int) "MPK call" 86
          (c.Costs.closure_call + c.Costs.mpk_prolog + c.Costs.mpk_epilog);
        Alcotest.(check int) "VTX call" 924
          (c.Costs.closure_call + c.Costs.vtx_guest_syscall + c.Costs.vtx_guest_sysret);
        Alcotest.(check int) "MPK syscall" 523 (c.Costs.syscall_base + c.Costs.seccomp_eval);
        Alcotest.(check int) "VTX syscall" 4126
          (c.Costs.syscall_base + c.Costs.vmexit_roundtrip);
        Alcotest.(check int) "VTX transfer (4p)" 158
          (c.Costs.vtx_transfer_base + (4 * c.Costs.vtx_transfer_page)));
  ]

let clock_tests =
  [
    Alcotest.test_case "consume advances and tallies" `Quick (fun () ->
        let c = Clock.create () in
        Clock.consume c Clock.Switch 100;
        Clock.consume c Clock.Syscall 50;
        Clock.consume c Clock.Switch 10;
        Alcotest.(check int) "now" 160 (Clock.now c);
        Alcotest.(check int) "switch" 110 (Clock.spent c Clock.Switch);
        Alcotest.(check int) "syscall" 50 (Clock.spent c Clock.Syscall));
    Alcotest.test_case "span measurement" `Quick (fun () ->
        let c = Clock.create () in
        let s = Clock.start c in
        Clock.consume c Clock.Compute 42;
        Alcotest.(check int) "elapsed" 42 (Clock.elapsed c s));
    Alcotest.test_case "reset" `Quick (fun () ->
        let c = Clock.create () in
        Clock.consume c Clock.Compute 42;
        Clock.reset c;
        Alcotest.(check int) "zero" 0 (Clock.now c));
  ]

let tlb_tests =
  [
    Alcotest.test_case "hit after miss" `Quick (fun () ->
        let tlb = Tlb.create () in
        Alcotest.(check bool) "miss first" false (Tlb.access tlb ~space:0 ~vpn:1);
        Alcotest.(check bool) "hit second" true (Tlb.access tlb ~space:0 ~vpn:1);
        Alcotest.(check int) "counts" 1 (Tlb.hits tlb);
        Alcotest.(check int) "counts" 1 (Tlb.misses tlb));
    Alcotest.test_case "spaces are distinct" `Quick (fun () ->
        let tlb = Tlb.create () in
        ignore (Tlb.access tlb ~space:0 ~vpn:1);
        Alcotest.(check bool) "other space misses" false
          (Tlb.access tlb ~space:1 ~vpn:1));
    Alcotest.test_case "flush drops everything" `Quick (fun () ->
        let tlb = Tlb.create () in
        ignore (Tlb.access tlb ~space:0 ~vpn:1);
        Tlb.flush tlb;
        Alcotest.(check int) "empty" 0 (Tlb.occupancy tlb);
        Alcotest.(check bool) "miss again" false (Tlb.access tlb ~space:0 ~vpn:1));
    Alcotest.test_case "FIFO eviction bounds occupancy" `Quick (fun () ->
        let tlb = Tlb.create ~capacity:4 () in
        for vpn = 0 to 9 do
          ignore (Tlb.access tlb ~space:0 ~vpn)
        done;
        Alcotest.(check int) "capacity respected" 4 (Tlb.occupancy tlb);
        (* Oldest entries were evicted. *)
        Alcotest.(check bool) "vpn 0 gone" false (Tlb.access tlb ~space:0 ~vpn:0);
        Alcotest.(check bool) "vpn 9 present" true (Tlb.access tlb ~space:0 ~vpn:9));
    Alcotest.test_case "same-pagetable env switch keeps the TLB warm" `Quick
      (fun () ->
        let cpu, pt = cpu_fixture () in
        ignore (Cpu.read8 cpu 0);
        let f0 = Tlb.flushes (Cpu.tlb cpu) in
        (* MPK-style switch: same page table, different PKRU. *)
        Cpu.set_env cpu
          { Cpu.label = "mpk-env"; pt; pkru = Mpk.pkru_all_access; exec_ok = None; sfi = None };
        Alcotest.(check int) "no flush" f0 (Tlb.flushes (Cpu.tlb cpu));
        Alcotest.(check bool) "still warm" true
          (Tlb.access (Cpu.tlb cpu) ~space:(Pagetable.id pt) ~vpn:0));
    Alcotest.test_case "CR3-style env switch flushes" `Quick (fun () ->
        let cpu, _pt = cpu_fixture () in
        ignore (Cpu.read8 cpu 0);
        let other = Pagetable.create ~name:"other" in
        Pagetable.map other ~vpn:0
          (Pte.make ~ppn:0 ~perms:{ Pte.r = true; w = true; x = false });
        let f0 = Tlb.flushes (Cpu.tlb cpu) in
        Cpu.set_env cpu (Cpu.trusted_env other);
        Alcotest.(check int) "flushed" (f0 + 1) (Tlb.flushes (Cpu.tlb cpu)));
    Alcotest.test_case "same-named page tables are distinct spaces" `Quick
      (fun () ->
        (* Identity is the table, not its label: a CR3 move between two
           tables that share a name flushes, and the second table never
           hits the first one's translations. *)
        let cpu, pt = cpu_fixture () in
        let twin = Pagetable.clone pt ~name:(Pagetable.name pt) in
        ignore (Cpu.read8 cpu 0);
        let tlb = Cpu.tlb cpu in
        let f0 = Tlb.flushes tlb and h0 = Tlb.hits tlb in
        Cpu.set_env cpu (Cpu.trusted_env twin);
        Alcotest.(check int) "flushed" (f0 + 1) (Tlb.flushes tlb);
        ignore (Cpu.read8 cpu 0);
        Alcotest.(check int) "no hit on the other table" h0 (Tlb.hits tlb));
    Alcotest.test_case "access below -4096 misses once, then faults" `Quick
      (fun () ->
        let cpu, _ = cpu_fixture () in
        let tlb = Cpu.tlb cpu in
        let h0 = Tlb.hits tlb and m0 = Tlb.misses tlb in
        (match Cpu.read8 cpu (-4097) with
        | exception Cpu.Fault f ->
            Alcotest.(check string) "reason" "page not mapped" f.Cpu.reason
        | _ -> Alcotest.fail "expected Cpu.Fault");
        Alcotest.(check int) "one miss" (m0 + 1) (Tlb.misses tlb);
        Alcotest.(check int) "no hit" h0 (Tlb.hits tlb));
  ]

(* The reference TLB: the original Hashtbl + Queue model, kept as the
   oracle the int-keyed TLB is checked against. *)
module Tlb_model = struct
  type t = {
    capacity : int;
    entries : (int * int, unit) Hashtbl.t;
    fifo : (int * int) Queue.t;
    mutable hits : int;
    mutable misses : int;
    mutable flushes : int;
  }

  let create ~capacity =
    {
      capacity;
      entries = Hashtbl.create 2048;
      fifo = Queue.create ();
      hits = 0;
      misses = 0;
      flushes = 0;
    }

  let access t ~space ~vpn =
    let key = (space, vpn) in
    if Hashtbl.mem t.entries key then begin
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      if Hashtbl.length t.entries >= t.capacity then begin
        let victim = Queue.pop t.fifo in
        Hashtbl.remove t.entries victim
      end;
      Hashtbl.replace t.entries key ();
      Queue.push key t.fifo;
      false
    end

  let flush t =
    Hashtbl.reset t.entries;
    Queue.clear t.fifo;
    t.flushes <- t.flushes + 1
end

type tlb_op = Access of int * int | Flush

let tlb_op_arb =
  let open QCheck.Gen in
  (* Small vpns so that hits and evictions happen, shifted by multiples
     of 2^36 and mirrored below zero: pairs that a bare
     [space * 2^36 + vpn] key would conflate. The last space is outside
     the int key's space range. *)
  let space = oneofl [ 0; 1; 2; (1 lsl 26) + 1 ] in
  let vpn =
    map2
      (fun v shift -> v + (shift * (1 lsl 36)))
      (int_range (-6) 9)
      (frequencyl [ (6, 0); (1, 1); (1, -1); (1, 2); (1, 1 lsl 14) ])
  in
  let op =
    frequency
      [ (12, map2 (fun s v -> Access (s, v)) space vpn); (1, return Flush) ]
  in
  let print = function
    | Access (s, v) -> Printf.sprintf "access %d %d" s v
    | Flush -> "flush"
  in
  QCheck.make
    ~print:QCheck.Print.(pair int (list print))
    (pair (oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 1024 ]) (list_size (int_range 0 300) op))

let tlb_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int-keyed TLB matches the reference model"
         ~count:400 tlb_op_arb (fun (capacity, ops) ->
           let tlb = Tlb.create ~capacity () in
           let model = Tlb_model.create ~capacity in
           List.for_all
             (fun op ->
               let same_result =
                 match op with
                 | Access (space, vpn) ->
                     Tlb.access tlb ~space ~vpn = Tlb_model.access model ~space ~vpn
                 | Flush ->
                     Tlb.flush tlb;
                     Tlb_model.flush model;
                     true
               in
               same_result
               && Tlb.hits tlb = model.hits
               && Tlb.misses tlb = model.misses
               && Tlb.flushes tlb = model.flushes
               && Tlb.occupancy tlb = Hashtbl.length model.entries)
             ops));
  ]

let vtx_tests =
  [
    Alcotest.test_case "creation consumes kvm setup" `Quick (fun () ->
        let clock = Clock.create () in
        let pt = Pagetable.create ~name:"t" in
        let _ = Vtx.create ~clock ~costs:Costs.default ~trusted_pt:pt in
        Alcotest.(check int) "init cost" Costs.default.Costs.kvm_setup
          (Clock.spent clock Clock.Init));
    Alcotest.test_case "guest syscall switches CR3 and costs" `Quick (fun () ->
        let clock = Clock.create () in
        let pt = Pagetable.create ~name:"trusted" in
        let pt2 = Pagetable.create ~name:"enc" in
        let vtx = Vtx.create ~clock ~costs:Costs.default ~trusted_pt:pt in
        Vtx.enter_vm vtx;
        let t0 = Clock.now clock in
        (match Vtx.guest_syscall vtx ~validate:(fun () -> true) ~target:pt2 with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check int) "cost" Costs.default.Costs.vtx_guest_syscall
          (Clock.now clock - t0);
        Alcotest.(check string) "cr3" "enc" (Pagetable.name (Vtx.cr3 vtx)));
    Alcotest.test_case "rejected transition keeps CR3" `Quick (fun () ->
        let clock = Clock.create () in
        let pt = Pagetable.create ~name:"trusted" in
        let pt2 = Pagetable.create ~name:"enc" in
        let vtx = Vtx.create ~clock ~costs:Costs.default ~trusted_pt:pt in
        Vtx.enter_vm vtx;
        Alcotest.(check bool) "refused" true
          (Result.is_error (Vtx.guest_syscall vtx ~validate:(fun () -> false) ~target:pt2));
        Alcotest.(check string) "cr3 unchanged" "trusted" (Pagetable.name (Vtx.cr3 vtx)));
    Alcotest.test_case "hypercall runs in root mode and counts" `Quick (fun () ->
        let clock = Clock.create () in
        let pt = Pagetable.create ~name:"trusted" in
        let vtx = Vtx.create ~clock ~costs:Costs.default ~trusted_pt:pt in
        Vtx.enter_vm vtx;
        let seen_mode = ref Vtx.Non_root in
        Vtx.hypercall vtx (fun () -> seen_mode := Vtx.mode vtx);
        Alcotest.(check bool) "was root" true (!seen_mode = Vtx.Root);
        Alcotest.(check bool) "back in guest" true (Vtx.mode vtx = Vtx.Non_root);
        Alcotest.(check int) "one exit" 1 (Vtx.vmexits vtx));
  ]

let () =
  Alcotest.run "sim"
    [
      ("phys", phys_tests);
      ("pagetable", pagetable_tests);
      ("mpk", mpk_tests @ mpk_props);
      ("cpu", cpu_tests);
      ("tlb", tlb_tests @ tlb_props);
      ("misc", misc_tests);
      ("clock", clock_tests);
      ("vtx", vtx_tests);
    ]
