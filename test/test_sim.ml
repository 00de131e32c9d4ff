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
    Alcotest.test_case "untouched frames reject out-of-frame offsets" `Quick (fun () ->
        let p = Phys.create () in
        let ppn = Phys.alloc_page p in
        let rejects name f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail (name ^ " accepted")
        in
        rejects "read8 -1" (fun () -> ignore (Phys.read8 p ~ppn ~off:(-1)));
        rejects "read8 4096" (fun () -> ignore (Phys.read8 p ~ppn ~off:4096));
        rejects "read64 4089" (fun () -> ignore (Phys.read64 p ~ppn ~off:4089));
        rejects "write8 -1" (fun () -> Phys.write8 p ~ppn ~off:(-1) 1);
        rejects "write8 4096" (fun () -> Phys.write8 p ~ppn ~off:4096 1);
        rejects "write64 4089" (fun () -> Phys.write64 p ~ppn ~off:4089 1L);
        rejects "blit_of_bytes past the end" (fun () ->
            Phys.blit_of_bytes p ~ppn ~off:4090 (Bytes.make 8 'x') 0 8);
        Alcotest.(check int) "still zero" 0 (Phys.read8 p ~ppn ~off:4095));
  ]

(* The reference store: one zeroed [Bytes] per frame, made at allocation,
   and copies that move bytes. The shared-frame store is checked against
   it. *)
module Phys_model = struct
  type t = {
    mutable frames : Bytes.t option array;
    mutable next : int;
    mutable free : int list;
    mutable live : int;
  }

  let create () = { frames = Array.make 64 None; next = 0; free = []; live = 0 }

  let grow t =
    let frames = Array.make (2 * Array.length t.frames) None in
    Array.blit t.frames 0 frames 0 (Array.length t.frames);
    t.frames <- frames

  let alloc_page t =
    t.live <- t.live + 1;
    match t.free with
    | ppn :: rest ->
        t.free <- rest;
        t.frames.(ppn) <- Some (Bytes.make Phys.page_size '\000');
        ppn
    | [] ->
        if t.next >= Array.length t.frames then grow t;
        let ppn = t.next in
        t.next <- ppn + 1;
        t.frames.(ppn) <- Some (Bytes.make Phys.page_size '\000');
        ppn

  let frame t ppn =
    if ppn < 0 || ppn >= t.next then
      invalid_arg (Printf.sprintf "Phys: bad ppn %d" ppn);
    match t.frames.(ppn) with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "Phys: ppn %d is free" ppn)

  let free_page t ppn =
    ignore (frame t ppn);
    t.frames.(ppn) <- None;
    t.free <- ppn :: t.free;
    t.live <- t.live - 1

  let read8 t ~ppn ~off = Char.code (Bytes.get (frame t ppn) off)
  let write8 t ~ppn ~off v = Bytes.set (frame t ppn) off (Char.chr (v land 0xff))
  let read64 t ~ppn ~off = Bytes.get_int64_le (frame t ppn) off
  let write64 t ~ppn ~off v = Bytes.set_int64_le (frame t ppn) off v

  let blit_to_bytes t ~ppn ~off dst dst_off len =
    Bytes.blit (frame t ppn) off dst dst_off len

  let blit_of_bytes t ~ppn ~off src src_off len =
    Bytes.blit src src_off (frame t ppn) off len

  (* These two check their frames in the order the store does, so a bad
     pair of PPNs raises the same message. *)
  let share_page t ~src ~dst =
    let s = frame t src in
    Bytes.blit s 0 (frame t dst) 0 Phys.page_size

  let blit t ~src ~src_off ~dst ~dst_off len =
    let d = frame t dst in
    Bytes.blit (frame t src) src_off d dst_off len
end

type phys_op =
  | Alloc
  | Free of int
  | Read8 of int * int
  | Write8 of int * int * int
  | Read64 of int * int
  | Write64 of int * int * int64
  | Blit_to of int * int * int * int  (** ppn, off, dst_off, len *)
  | Blit_of of int * int * int * int  (** ppn, off, src_off, len *)
  | Share of int * int  (** src, dst *)
  | Blit of (int * int) * (int * int) * int  (** (src, off), (dst, off), len *)

let phys_op_arb =
  let open QCheck.Gen in
  (* Mostly live or freed PPNs, some never allocated; offsets and lengths
     mostly in range, with the frame's edges and beyond. *)
  let ppn = frequency [ (8, int_range 0 7); (1, oneofl [ -1; 12; max_int ]) ] in
  let off =
    frequency
      [
        (6, int_range 0 4095);
        (3, oneofl [ -1; 0; 4088; 4089; 4095; 4096 ]);
        (1, int_range (-9) 4105);
      ]
  in
  let len = frequency [ (6, int_range 0 24); (1, oneofl [ -1; 25; 4096 ]) ] in
  let op =
    frequency
      [
        (3, return Alloc);
        (1, map (fun p -> Free p) ppn);
        (3, map2 (fun p o -> Read8 (p, o)) ppn off);
        (3, map3 (fun p o v -> Write8 (p, o, v)) ppn off (int_range (-300) 300));
        (2, map2 (fun p o -> Read64 (p, o)) ppn off);
        (2, map3 (fun p o v -> Write64 (p, o, v)) ppn off ui64);
        (2, map3 (fun (p, o) d l -> Blit_to (p, o, d, l)) (pair ppn off) (int_range 0 8) len);
        (2, map3 (fun (p, o) d l -> Blit_of (p, o, d, l)) (pair ppn off) (int_range 0 8) len);
        (2, map2 (fun s d -> Share (s, d)) ppn ppn);
        (2, map3 (fun s d l -> Blit (s, d, l)) (pair ppn off) (pair ppn off) len);
      ]
  in
  let print = function
    | Alloc -> "alloc"
    | Free p -> Printf.sprintf "free %d" p
    | Read8 (p, o) -> Printf.sprintf "read8 %d %d" p o
    | Write8 (p, o, v) -> Printf.sprintf "write8 %d %d %d" p o v
    | Read64 (p, o) -> Printf.sprintf "read64 %d %d" p o
    | Write64 (p, o, v) -> Printf.sprintf "write64 %d %d %Ld" p o v
    | Blit_to (p, o, d, l) -> Printf.sprintf "blit_to %d %d %d %d" p o d l
    | Blit_of (p, o, d, l) -> Printf.sprintf "blit_of %d %d %d %d" p o d l
    | Share (s, d) -> Printf.sprintf "share %d %d" s d
    | Blit ((s, so), (d, dof), l) -> Printf.sprintf "blit %d %d %d %d %d" s so d dof l
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 0 200) op)

(* What one operation returned, or the exception it raised, as text:
   constructor and message must both match, and a fault prints as the
   simulator prints it. *)
let outcome f =
  match f () with
  | s -> s
  | exception Cpu.Fault fault -> Format.asprintf "%a" Cpu.pp_fault fault
  | exception e -> "raised " ^ Printexc.to_string e

let both f g = (outcome f, outcome g)

(* Source bytes for [Blit_of]; a 32-byte window, so offsets 0-8 and
   lengths up to 24 fit and the rest are rejected by [Bytes.blit]. *)
let blit_src = Bytes.init 32 (fun i -> Char.chr (0x41 + i))

let phys_step p m op =
  match op with
  | Alloc ->
      both
        (fun () -> string_of_int (Phys.alloc_page p))
        (fun () -> string_of_int (Phys_model.alloc_page m))
  | Free ppn ->
      both (fun () -> Phys.free_page p ppn; "") (fun () -> Phys_model.free_page m ppn; "")
  | Read8 (ppn, off) ->
      both
        (fun () -> string_of_int (Phys.read8 p ~ppn ~off))
        (fun () -> string_of_int (Phys_model.read8 m ~ppn ~off))
  | Write8 (ppn, off, v) ->
      both
        (fun () -> Phys.write8 p ~ppn ~off v; "")
        (fun () -> Phys_model.write8 m ~ppn ~off v; "")
  | Read64 (ppn, off) ->
      both
        (fun () -> Int64.to_string (Phys.read64 p ~ppn ~off))
        (fun () -> Int64.to_string (Phys_model.read64 m ~ppn ~off))
  | Write64 (ppn, off, v) ->
      both
        (fun () -> Phys.write64 p ~ppn ~off v; "")
        (fun () -> Phys_model.write64 m ~ppn ~off v; "")
  | Blit_to (ppn, off, dst_off, len) ->
      let out blit () =
        let dst = Bytes.make 32 '.' in
        blit dst;
        Bytes.to_string dst
      in
      both
        (out (fun dst -> Phys.blit_to_bytes p ~ppn ~off dst dst_off len))
        (out (fun dst -> Phys_model.blit_to_bytes m ~ppn ~off dst dst_off len))
  | Blit_of (ppn, off, src_off, len) ->
      both
        (fun () -> Phys.blit_of_bytes p ~ppn ~off blit_src src_off len; "")
        (fun () -> Phys_model.blit_of_bytes m ~ppn ~off blit_src src_off len; "")
  | Share (src, dst) ->
      both
        (fun () -> Phys.share_page p ~src ~dst; "")
        (fun () -> Phys_model.share_page m ~src ~dst; "")
  | Blit ((src, src_off), (dst, dst_off), len) ->
      both
        (fun () -> Phys.blit p ~src ~src_off ~dst ~dst_off len; "")
        (fun () -> Phys_model.blit m ~src ~src_off ~dst ~dst_off len; "")

let phys_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"demand-zero store matches the eager model" ~count:500
         phys_op_arb (fun ops ->
           let p = Phys.create () and m = Phys_model.create () in
           let page read =
             let b = Bytes.create Phys.page_size in
             outcome (fun () -> read b; Bytes.to_string b)
           in
           List.for_all
             (fun op ->
               let got, want = phys_step p m op in
               got = want && Phys.page_count p = m.Phys_model.live)
             ops
           (* Every frame, live or freed, ends byte-identical. *)
           && List.for_all
                (fun ppn ->
                  page (fun b -> Phys.blit_to_bytes p ~ppn ~off:0 b 0 Phys.page_size)
                  = page (fun b ->
                        Phys_model.blit_to_bytes m ~ppn ~off:0 b 0 Phys.page_size))
                (List.init (m.Phys_model.next + 1) Fun.id)));
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

(* The reference page table: the Hashtbl the radix vpn map replaced,
   with the out-of-range contract spelled out. Messages match the real
   table's, so outcomes compare as text. *)
module Pt_model = struct
  type t = { name : string; entries : (int, Pte.t) Hashtbl.t }

  let create name = { name; entries = Hashtbl.create 16 }
  let copy (p : Pte.t) =
    { Pte.ppn = p.ppn; present = p.present; perms = p.perms; pkey = p.pkey }

  let not_mapped t vpn =
    invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d not mapped" t.name vpn)

  let map t ~vpn pte =
    if Hashtbl.mem t.entries vpn then
      invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d already mapped" t.name vpn);
    if vpn < 0 || vpn >= 1 lsl 36 then
      invalid_arg (Printf.sprintf "Vpn_map.add: vpn %d outside [0, 2^36)" vpn);
    Hashtbl.replace t.entries vpn pte

  let unmap t ~vpn =
    if not (Hashtbl.mem t.entries vpn) then not_mapped t vpn;
    Hashtbl.remove t.entries vpn

  let walk t ~vpn = Hashtbl.find_opt t.entries vpn
  let get t vpn = match walk t ~vpn with Some p -> p | None -> not_mapped t vpn
  let protect t ~vpn perms = (get t vpn).Pte.perms <- perms
  let set_present t ~vpn present = (get t vpn).Pte.present <- present

  let set_pkey t ~vpn pkey =
    if pkey < 0 || pkey > 15 then invalid_arg "Pagetable.set_pkey: key out of range";
    (get t vpn).Pte.pkey <- pkey

  let clone t ~name =
    let c = create name in
    Hashtbl.iter (fun vpn p -> Hashtbl.replace c.entries vpn (copy p)) t.entries;
    c

  let pp ppf t =
    let entries =
      Hashtbl.fold (fun vpn p acc -> (vpn, p) :: acc) t.entries [] |> List.sort compare
    in
    Format.fprintf ppf "@[<v>pagetable %s (%d entries)" t.name (List.length entries);
    List.iter (fun (vpn, p) -> Format.fprintf ppf "@ %#x -> %a" vpn Pte.pp p) entries;
    Format.fprintf ppf "@]"
end

type pt_op =
  | Pt_map of int * int * Pte.perms  (** table, vpn, perms *)
  | Pt_unmap of int * int
  | Pt_walk of int * int
  | Pt_protect of int * int * Pte.perms
  | Pt_set_present of int * int * bool
  | Pt_set_pkey of int * int * int
  | Pt_clone of int * int  (** source table, slot the clone replaces *)
  | Pt_pp of int

let pt_tables = 3

let pt_perms_gen =
  QCheck.Gen.(map3 (fun r w x -> { Pte.r; w; x }) bool bool bool)

let perms_text p =
  Format.asprintf "%a" Pte.pp { Pte.ppn = 0; present = true; perms = p; pkey = 0 }

(* Vpns around leaf boundaries (leaves hold 256), 0, and outside
   [0, 2^36): negative, 2^36 and above. In-range vpns stay below 2^20,
   so no directory grows past a few thousand leaves. *)
let pt_vpn_gen =
  QCheck.Gen.(
    frequency
      [
        (8, oneofl [ 0; 1; 255; 256; 257; 511; 512; 513; 767; 768; 4095; 4096 ]);
        (2, int_range 0 3000);
        (1, oneofl [ (1 lsl 20) - 1; 1 lsl 20 ]);
        ( 2,
          oneofl
            [ -1; -511; -512; -513; min_int; 1 lsl 36; (1 lsl 36) + 1; (1 lsl 36) + 512; max_int ]
        );
      ])

let pt_op_arb =
  let open QCheck.Gen in
  let tbl = int_range 0 (pt_tables - 1) in
  let op =
    frequency
      [
        (6, map3 (fun t v p -> Pt_map (t, v, p)) tbl pt_vpn_gen pt_perms_gen);
        (3, map2 (fun t v -> Pt_unmap (t, v)) tbl pt_vpn_gen);
        (5, map2 (fun t v -> Pt_walk (t, v)) tbl pt_vpn_gen);
        (2, map3 (fun t v p -> Pt_protect (t, v, p)) tbl pt_vpn_gen pt_perms_gen);
        (2, map3 (fun t v b -> Pt_set_present (t, v, b)) tbl pt_vpn_gen bool);
        (2, map3 (fun t v k -> Pt_set_pkey (t, v, k)) tbl pt_vpn_gen (int_range (-1) 16));
        (1, map2 (fun s d -> Pt_clone (s, d)) tbl tbl);
        (1, map (fun t -> Pt_pp t) tbl);
      ]
  in
  let print = function
    | Pt_map (t, v, p) -> Printf.sprintf "map %d %d %s" t v (perms_text p)
    | Pt_unmap (t, v) -> Printf.sprintf "unmap %d %d" t v
    | Pt_walk (t, v) -> Printf.sprintf "walk %d %d" t v
    | Pt_protect (t, v, p) -> Printf.sprintf "protect %d %d %s" t v (perms_text p)
    | Pt_set_present (t, v, b) -> Printf.sprintf "set_present %d %d %b" t v b
    | Pt_set_pkey (t, v, k) -> Printf.sprintf "set_pkey %d %d %d" t v k
    | Pt_clone (s, d) -> Printf.sprintf "clone %d -> %d" s d
    | Pt_pp t -> Printf.sprintf "pp %d" t
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 0 200) op)

let pagetable_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"radix page table matches the Hashtbl model" ~count:300
         ~long_factor:4 pt_op_arb (fun ops ->
           let names = Array.init pt_tables (Printf.sprintf "pt%d") in
           let real = Array.map (fun name -> Pagetable.create ~name) names in
           let model = Array.map Pt_model.create names in
           let pte = function
             | Some p -> Format.asprintf "%a" Pte.pp p
             | None -> "unmapped"
           in
           let step n op =
             (* Each map gets a distinct frame, so pp and walk show which
                map a surviving entry came from. *)
             match op with
             | Pt_map (t, vpn, perms) ->
                 both
                   (fun () -> Pagetable.map real.(t) ~vpn (Pte.make ~ppn:n ~perms); "")
                   (fun () -> Pt_model.map model.(t) ~vpn (Pte.make ~ppn:n ~perms); "")
             | Pt_unmap (t, vpn) ->
                 both
                   (fun () -> Pagetable.unmap real.(t) ~vpn; "")
                   (fun () -> Pt_model.unmap model.(t) ~vpn; "")
             | Pt_walk (t, vpn) ->
                 both
                   (fun () -> pte (Pagetable.walk real.(t) ~vpn))
                   (fun () -> pte (Pt_model.walk model.(t) ~vpn))
             | Pt_protect (t, vpn, perms) ->
                 both
                   (fun () -> Pagetable.protect real.(t) ~vpn perms; "")
                   (fun () -> Pt_model.protect model.(t) ~vpn perms; "")
             | Pt_set_present (t, vpn, b) ->
                 both
                   (fun () -> Pagetable.set_present real.(t) ~vpn b; "")
                   (fun () -> Pt_model.set_present model.(t) ~vpn b; "")
             | Pt_set_pkey (t, vpn, k) ->
                 both
                   (fun () -> Pagetable.set_pkey real.(t) ~vpn k; "")
                   (fun () -> Pt_model.set_pkey model.(t) ~vpn k; "")
             | Pt_clone (s, d) ->
                 real.(d) <- Pagetable.clone real.(s) ~name:names.(d);
                 model.(d) <- Pt_model.clone model.(s) ~name:names.(d);
                 ("", "")
             | Pt_pp t ->
                 both
                   (fun () -> Format.asprintf "%a" Pagetable.pp real.(t))
                   (fun () -> Format.asprintf "%a" Pt_model.pp model.(t))
           in
           List.iteri
             (fun n op ->
               let got, want = step n op in
               if got <> want then
                 QCheck.Test.fail_reportf "op %d: got %S, want %S" n got want)
             ops;
           (* Every table ends with the model's entries, in order. *)
           Array.for_all2
                (fun r m ->
                  Format.asprintf "%a" Pagetable.pp r = Format.asprintf "%a" Pt_model.pp m)
                real model));
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
    Alcotest.test_case "untrusted_label tests the enc: prefix" `Quick (fun () ->
        List.iter
          (fun (label, want) ->
            Alcotest.(check bool) (Printf.sprintf "%S" label) want (Cpu.untrusted_label label))
          [ ("", false); ("enc", false); ("enc:", false); ("enc:x", true); ("trusted", false) ]);
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
    Alcotest.test_case "negative addresses fault, never reach page 0" `Quick (fun () ->
        (* Page 0 is mapped read-write: an address just below it must
           land on the unmapped page -1, not on page 0. *)
        let cpu, _ = cpu_fixture () in
        expect_fault (fun () -> Cpu.read8 cpu (-1));
        expect_fault (fun () -> Cpu.write8 cpu (-1) 1);
        expect_fault (fun () -> Cpu.read64 cpu (-8));
        expect_fault (fun () -> Cpu.read_bytes cpu ~addr:(-8) ~len:16);
        expect_fault (fun () -> Cpu.copy cpu ~src:(-8) ~dst:16 ~len:16 ~note:ignore));
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
    Alcotest.test_case "checks of mapped pages allocate nothing" `Quick (fun () ->
        (* TLB hits, misses, CR3 flushes and page walks, once the
           written frame has its own storage. *)
        let cpu, pt = cpu_fixture () in
        let envs = [| Cpu.trusted_env pt; Cpu.trusted_env (Pagetable.clone pt ~name:"c") |] in
        Cpu.write8 cpu 0 1;
        let rounds = 1000 in
        let before = Gc.minor_words () in
        for i = 1 to rounds do
          Cpu.set_env cpu envs.(i land 1);
          Cpu.write8 cpu 8 (Cpu.read8 cpu 0);
          Cpu.fetch cpu ~addr:Phys.page_size;
          Cpu.check cpu Cpu.Read ~addr:0 ~len:(2 * Phys.page_size)
        done;
        (* Less than one word a round: nothing per access, whatever the
           measurement itself boxes. *)
        let words = Gc.minor_words () -. before in
        if words >= float rounds then
          Alcotest.failf "%.0f minor words in %d rounds" words rounds);
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
    Alcotest.test_case "a negative or overflowing charge is refused" `Quick
      (fun () ->
        let c = Clock.create () in
        Clock.consume c Clock.Other (max_int - 10);
        let refused ns =
          match Clock.consume c Clock.Other ns with
          | () -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "negative" true (refused (-1));
        Alcotest.(check bool) "past max_int" true (refused 11);
        Alcotest.(check bool) "max_int itself" false (refused 10);
        Alcotest.(check int) "only the granted charges" max_int (Clock.now c);
        Alcotest.(check int) "lane" max_int (Clock.lane_ns c 0));
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

(* Dense windows of vpns over a few spaces, with flushes rare: the
   open-addressed set runs full (capacity 1 and 3 fill 4 and 16 slots
   to a quarter), so each miss deletes in a full table, and runs of
   resident keys wrap around the end of the slot array. *)
let tlb_load_arb =
  let open QCheck.Gen in
  let gen =
    oneofl [ 1; 3; 1024 ] >>= fun capacity ->
    int_range 2 3 >>= fun spaces ->
    int_range 0 3000 >>= fun lo ->
    int_range lo 3000 >>= fun hi ->
    let op =
      frequency
        [
          ( 400,
            map2 (fun s v -> Access (s, v)) (int_range 0 (spaces - 1)) (int_range lo hi) );
          (1, return Flush);
        ]
    in
    map (fun ops -> (capacity, ops)) (list_size (int_range 0 5000) op)
  in
  let print = function
    | Access (s, v) -> Printf.sprintf "access %d %d" s v
    | Flush -> "flush"
  in
  QCheck.make ~print:QCheck.Print.(pair int (list print)) gen

let tlb_matches_model (capacity, ops) =
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
    ops

let tlb_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int-keyed TLB matches the reference model"
         ~count:400 tlb_op_arb tlb_matches_model);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"a full TLB matches the reference model" ~count:60
         ~long_factor:4 tlb_load_arb tlb_matches_model);
  ]

(* The MMU model: every access walks a Hashtbl page table ([Pt_model])
   and counts in a reference TLB per core ([Tlb_model]), over a store of
   one [Bytes] per frame. [Cpu] is checked against it. *)
module Mmu_model = struct
  type env = { label : string; table : int; pkru : Mpk.pkru }

  type t = {
    tables : Pt_model.t array;
    frames : (int, Bytes.t) Hashtbl.t;
    tlbs : Tlb_model.t array;  (** one per core *)
    mutable lane : int;
    mutable env : env;
  }

  let frame m ppn = Hashtbl.find m.frames ppn
  let tlb m = m.tlbs.(m.lane)

  let set_env m env =
    if env.table <> m.env.table then Tlb_model.flush (tlb m);
    m.env <- env

  let check_page m kind addr =
    let vpn = addr asr Phys.page_shift in
    ignore (Tlb_model.access (tlb m) ~space:m.env.table ~vpn);
    let fault reason =
      raise (Cpu.Fault { Cpu.kind; vaddr = addr; env = m.env.label; reason })
    in
    match Pt_model.walk m.tables.(m.env.table) ~vpn with
    | None -> fault "page not mapped"
    | Some pte ->
        if not pte.Pte.present then fault "page not present";
        let write = kind = Cpu.Write in
        if write && not pte.Pte.perms.Pte.w then fault "no write permission";
        if (not write) && not pte.Pte.perms.Pte.r then fault "no read permission";
        if not (Mpk.allows m.env.pkru ~key:pte.Pte.pkey ~write) then
          fault
            (Printf.sprintf "protection key %d denies %s" pte.Pte.pkey
               (Cpu.access_kind_name kind));
        pte

  let page_off addr = addr land (Phys.page_size - 1)

  let check m kind ~addr ~len =
    if len < 0 then invalid_arg "Cpu.check: negative length";
    if len > 0 then begin
      for vpn = addr asr Phys.page_shift to (addr + len - 1) asr Phys.page_shift do
        ignore (check_page m kind (vpn lsl Phys.page_shift))
      done;
      ignore (check_page m kind addr)
    end

  (* After [check]: byte [addr] through the current table. *)
  let byte m addr =
    let pte = Option.get (Pt_model.walk m.tables.(m.env.table) ~vpn:(addr asr Phys.page_shift)) in
    (frame m pte.Pte.ppn, page_off addr)

  let read8 m addr =
    let pte = check_page m Cpu.Read addr in
    Char.code (Bytes.get (frame m pte.Pte.ppn) (page_off addr))

  let write8 m addr v =
    let pte = check_page m Cpu.Write addr in
    Bytes.set (frame m pte.Pte.ppn) (page_off addr) (Char.chr (v land 0xff))

  let write64 m addr v =
    if page_off addr <= Phys.page_size - 8 then begin
      let pte = check_page m Cpu.Write addr in
      ignore (check_page m Cpu.Write (addr + 7));
      Bytes.set_int64_le (frame m pte.Pte.ppn) (page_off addr) v
    end
    else
      for i = 0 to 7 do
        write8 m (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
      done

  let read_bytes m ~addr ~len =
    check m Cpu.Read ~addr ~len;
    Bytes.init len (fun i ->
        let b, off = byte m (addr + i) in
        Bytes.get b off)

  let copy m ~src ~dst ~len =
    check m Cpu.Read ~addr:src ~len;
    check m Cpu.Write ~addr:dst ~len;
    let data =
      Bytes.init len (fun i ->
          let b, off = byte m (src + i) in
          Bytes.get b off)
    in
    Bytes.iteri
      (fun i c ->
        let b, off = byte m (dst + i) in
        Bytes.set b off c)
      data
end

type mmu_op =
  | Mmu_map of int * int * Pte.perms * int  (** table, vpn, perms, key *)
  | Mmu_unmap of int * int
  | Mmu_protect of int * int * Pte.perms
  | Mmu_set_pkey of int * int * int
  | Mmu_set_present of int * int * bool
  | Mmu_set_env of int  (** index into [mmu_envs] *)
  | Mmu_lane of int
  | Mmu_read8 of int
  | Mmu_write64 of int * int64
  | Mmu_read_bytes of int * int
  | Mmu_copy of int * int * int  (** src, dst, len *)

let mmu_lanes = 3

(* Table 0 is the one the machine boots on, table 1 a clone of it taken
   after the initial maps (sharing its frames), table 2 a fresh one. The
   keys: 1 is read-only and 2 inaccessible under the second PKRU. *)
let mmu_envs =
  List.concat_map
    (fun table ->
      [
        ("all", Mpk.pkru_all_access);
        ( "k1ro-k2none",
          Mpk.set_key (Mpk.set_key Mpk.pkru_all_access ~key:1 Mpk.Read_only) ~key:2
            Mpk.No_access );
      ]
      |> List.map (fun (name, pkru) ->
             { Mmu_model.label = Printf.sprintf "t%d/%s" table name; table; pkru }))
    [ 0; 1; 2 ]
  |> Array.of_list

let mmu_arb =
  let open QCheck.Gen in
  let tbl = int_range 0 2 and vpn = int_range 0 6 in
  let key = int_range 0 2 in
  let addr =
    frequency
      [
        ( 8,
          map2
            (fun vpn off -> (vpn * Phys.page_size) + off)
            (int_range 0 6)
            (oneof [ oneofl [ 0; 1; 7; 4088; 4089; 4095 ]; int_range 0 4095 ]) );
        (1, oneofl [ -1; -8; -4096; -4097 ]);
      ]
  in
  let len = frequency [ (8, oneofl [ 0; 1; 8; 100; 4096; 5000; 9000 ]); (1, return (-1)) ] in
  let op =
    frequency
      [
        (2, map2 (fun (t, v) (p, k) -> Mmu_map (t, v, p, k)) (pair tbl vpn) (pair pt_perms_gen key));
        (1, map2 (fun t v -> Mmu_unmap (t, v)) tbl vpn);
        (1, map3 (fun t v p -> Mmu_protect (t, v, p)) tbl vpn pt_perms_gen);
        (1, map3 (fun t v k -> Mmu_set_pkey (t, v, k)) tbl vpn key);
        (1, map3 (fun t v b -> Mmu_set_present (t, v, b)) tbl vpn (frequencyl [ (3, true); (1, false) ]));
        (2, map (fun i -> Mmu_set_env i) (int_range 0 (Array.length mmu_envs - 1)));
        (1, map (fun l -> Mmu_lane l) (int_range 0 (mmu_lanes - 1)));
        (4, map (fun a -> Mmu_read8 a) addr);
        (3, map2 (fun a v -> Mmu_write64 (a, v)) addr ui64);
        (2, map2 (fun a l -> Mmu_read_bytes (a, l)) addr len);
        (2, map3 (fun s d l -> Mmu_copy (s, d, l)) addr addr len);
      ]
  in
  let init = list_size (int_range 0 7) (triple vpn pt_perms_gen key) in
  let print_init (v, p, k) = Printf.sprintf "map 0 %d %s key %d" v (perms_text p) k in
  let print = function
    | Mmu_map (t, v, p, k) -> Printf.sprintf "map %d %d %s key %d" t v (perms_text p) k
    | Mmu_unmap (t, v) -> Printf.sprintf "unmap %d %d" t v
    | Mmu_protect (t, v, p) -> Printf.sprintf "protect %d %d %s" t v (perms_text p)
    | Mmu_set_pkey (t, v, k) -> Printf.sprintf "set_pkey %d %d %d" t v k
    | Mmu_set_present (t, v, b) -> Printf.sprintf "set_present %d %d %b" t v b
    | Mmu_set_env i -> Printf.sprintf "set_env %s" mmu_envs.(i).Mmu_model.label
    | Mmu_lane l -> Printf.sprintf "lane %d" l
    | Mmu_read8 a -> Printf.sprintf "read8 %#x" a
    | Mmu_write64 (a, v) -> Printf.sprintf "write64 %#x %Ld" a v
    | Mmu_read_bytes (a, l) -> Printf.sprintf "read_bytes %#x %d" a l
    | Mmu_copy (s, d, l) -> Printf.sprintf "copy %#x -> %#x %d" s d l
  in
  QCheck.make
    ~print:QCheck.Print.(pair (list print_init) (list print))
    (pair init (list_size (int_range 0 150) op))

let mmu_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"the MMU matches the walk-every-access model"
         ~count:300 ~long_factor:4 mmu_arb (fun (init, ops) ->
           let phys = Phys.create () and clock = Clock.create () in
           let tables = [| Pagetable.create ~name:"t0"; Pagetable.create ~name:"t1";
                           Pagetable.create ~name:"t2" |] in
           let m =
             {
               Mmu_model.tables = Array.map Pt_model.create [| "t0"; "t1"; "t2" |];
               frames = Hashtbl.create 16;
               tlbs = Array.init mmu_lanes (fun _ -> Tlb_model.create ~capacity:1024);
               lane = 0;
               env = { Mmu_model.label = "trusted"; table = 0; pkru = Mpk.pkru_all_access };
             }
           in
           (* One fresh frame behind both sides' entry. *)
           let map t ~vpn perms key =
             let ppn = Phys.alloc_page phys in
             Hashtbl.replace m.frames ppn (Bytes.make Phys.page_size '\000');
             both
               (fun () ->
                 Pagetable.map tables.(t) ~vpn (Pte.make ~ppn ~perms);
                 Pagetable.set_pkey tables.(t) ~vpn key;
                 "")
               (fun () ->
                 Pt_model.map m.tables.(t) ~vpn (Pte.make ~ppn ~perms);
                 Pt_model.set_pkey m.tables.(t) ~vpn key;
                 "")
           in
           List.iter (fun (vpn, perms, key) -> ignore (map 0 ~vpn perms key)) init;
           tables.(1) <- Pagetable.clone tables.(0) ~name:"t1";
           m.tables.(1) <- Pt_model.clone m.tables.(0) ~name:"t1";
           let cpu = Cpu.create ~phys ~clock (Cpu.trusted_env tables.(0)) in
           let step = function
             | Mmu_map (t, vpn, perms, key) -> map t ~vpn perms key
             | Mmu_unmap (t, vpn) ->
                 both
                   (fun () -> Pagetable.unmap tables.(t) ~vpn; "")
                   (fun () -> Pt_model.unmap m.tables.(t) ~vpn; "")
             | Mmu_protect (t, vpn, perms) ->
                 both
                   (fun () -> Pagetable.protect tables.(t) ~vpn perms; "")
                   (fun () -> Pt_model.protect m.tables.(t) ~vpn perms; "")
             | Mmu_set_pkey (t, vpn, key) ->
                 both
                   (fun () -> Pagetable.set_pkey tables.(t) ~vpn key; "")
                   (fun () -> Pt_model.set_pkey m.tables.(t) ~vpn key; "")
             | Mmu_set_present (t, vpn, b) ->
                 both
                   (fun () -> Pagetable.set_present tables.(t) ~vpn b; "")
                   (fun () -> Pt_model.set_present m.tables.(t) ~vpn b; "")
             | Mmu_set_env i ->
                 let e = mmu_envs.(i) in
                 both
                   (fun () ->
                     Cpu.set_env cpu
                       { Cpu.label = e.Mmu_model.label; pt = tables.(e.Mmu_model.table);
                         pkru = e.Mmu_model.pkru; exec_ok = None; sfi = None };
                     "")
                   (fun () -> Mmu_model.set_env m e; "")
             | Mmu_lane l ->
                 Clock.set_lane clock l;
                 m.lane <- l;
                 ("", "")
             | Mmu_read8 addr ->
                 both
                   (fun () -> string_of_int (Cpu.read8 cpu addr))
                   (fun () -> string_of_int (Mmu_model.read8 m addr))
             | Mmu_write64 (addr, v) ->
                 both (fun () -> Cpu.write64 cpu addr v; "") (fun () -> Mmu_model.write64 m addr v; "")
             | Mmu_read_bytes (addr, len) ->
                 both
                   (fun () -> Bytes.to_string (Cpu.read_bytes cpu ~addr ~len))
                   (fun () -> Bytes.to_string (Mmu_model.read_bytes m ~addr ~len))
             | Mmu_copy (src, dst, len) ->
                 both
                   (fun () -> Cpu.copy cpu ~src ~dst ~len ~note:ignore; "")
                   (fun () -> Mmu_model.copy m ~src ~dst ~len; "")
           in
           (* Every core's TLB counts, read without moving the lane. *)
           let tlb_counts () =
             let lane = Clock.lane clock in
             let real =
               List.init mmu_lanes (fun l ->
                   Clock.set_lane clock l;
                   let tlb = Cpu.tlb cpu in
                   (Tlb.hits tlb, Tlb.misses tlb, Tlb.flushes tlb, Tlb.occupancy tlb))
             in
             Clock.set_lane clock lane;
             let model =
               Array.to_list m.tlbs
               |> List.map (fun (t : Tlb_model.t) ->
                      (t.hits, t.misses, t.flushes, Hashtbl.length t.entries))
             in
             (real, model)
           in
           List.iteri
             (fun n op ->
               let got, want = step op in
               if got <> want then
                 QCheck.Test.fail_reportf "op %d: got %S, want %S" n got want;
               let real, model = tlb_counts () in
               if real <> model then QCheck.Test.fail_reportf "op %d: TLB counts differ" n)
             ops;
           (* Every frame ends byte-identical. *)
           Hashtbl.fold
             (fun ppn b ok ->
               let got = Bytes.create Phys.page_size in
               Phys.blit_to_bytes phys ~ppn ~off:0 got 0 Phys.page_size;
               ok && Bytes.equal got b)
             m.frames true));
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
        Vtx.hypercall vtx (fun () -> seen_mode := Vtx.mode vtx) ();
        Alcotest.(check bool) "was root" true (!seen_mode = Vtx.Root);
        Alcotest.(check bool) "back in guest" true (Vtx.mode vtx = Vtx.Non_root);
        Alcotest.(check int) "one exit" 1 (Vtx.vmexits vtx);
        (match Vtx.hypercall vtx (fun () -> raise Exit) () with
        | () -> Alcotest.fail "the body's exception was lost"
        | exception Exit -> ());
        Alcotest.(check bool) "back in guest after a raise" true
          (Vtx.mode vtx = Vtx.Non_root));
  ]

(* ------------------------------------------------------------------ *)
(* Knobs *)

let knob_tests =
  [
    Alcotest.test_case "the knob registry is the CI product's three flags"
      `Quick (fun () ->
        (* bin/ci.sh's enforcement-pin loop runs every combination of
           exactly these variables: a knob added to Knob.all without
           joining that loop fails here. *)
        Alcotest.(check (list string)) "env names"
          [ "ENCL_FASTPATH"; "ENCL_SYSRING"; "ENCL_ZEROCOPY" ]
          (List.map (fun (k : Knob.t) -> k.Knob.env) Knob.all);
        Alcotest.(check (list bool)) "all default on" [ true; true; true ]
          (List.map (fun (k : Knob.t) -> k.Knob.default) Knob.all));
    Alcotest.test_case "views read and restore their knob" `Quick (fun () ->
        List.iter
          (fun (k, enabled, with_flag) ->
            let before = k.Knob.value in
            Knob.with_value k (not before) (fun () ->
                Alcotest.(check bool) (k.Knob.name ^ " view") (not before)
                  (enabled ()));
            Alcotest.(check bool) (k.Knob.name ^ " restored") before (enabled ());
            (try with_flag (not before) (fun () -> failwith "boom")
             with Failure _ -> ());
            Alcotest.(check bool) (k.Knob.name ^ " restored after raise") before
              k.Knob.value;
            Alcotest.(check bool) "found by name" true
              (match Knob.find k.Knob.name with Some k' -> k' == k | None -> false))
          [
            (Knob.fastpath, Fastpath.enabled, Fastpath.with_flag);
            (Knob.sysring, Sysring.enabled, Sysring.with_flag);
            (Knob.zerocopy, Zerocopy.enabled, Zerocopy.with_flag);
          ]);
  ]

let () =
  Alcotest.run "sim"
    [
      ("knob", knob_tests);
      ("phys", phys_tests @ phys_props);
      ("pagetable", pagetable_tests @ pagetable_props);
      ("mpk", mpk_tests @ mpk_props);
      ("cpu", cpu_tests @ mmu_props);
      ("tlb", tlb_tests @ tlb_props);
      ("misc", misc_tests);
      ("clock", clock_tests);
      ("vtx", vtx_tests);
    ]
