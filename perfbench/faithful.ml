(* The paper-faithful leg: every optimization knob off, measured against
   the paper's cells for a workload's backend — its Table 1 row, the
   Table 2 slowdowns the paper reports for that backend and, for the
   python workload, the §6.4 conservative slowdown. Inputs are fixed
   (seed 0), so the cells only move when the cost model or a workload's
   code does. *)

module Runtime = Encl_golike.Runtime
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel

type cell = { name : string; measured : float; paper : float }

let all_off f =
  Fastpath.with_flag false (fun () ->
      Sysring.with_flag false (fun () -> Zerocopy.with_flag false f))

(* Relative deviation from the paper, in percent. *)
let dev_pct c = 100.0 *. Float.abs ((c.measured /. c.paper) -. 1.0)
let max_dev_pct cells = List.fold_left (fun acc c -> Float.max acc (dev_pct c)) 0.0 cells

(* ------------------------------------------------------------------ *)
(* Table 1: an empty enclosure call, a 4-page transfer, getuid(2)      *)

let micro_packages () =
  [
    Runtime.package "main" ~imports:[ "libFx" ]
      ~functions:[ ("main", 128); ("empty_body", 64); ("io_body", 64) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "empty";
            enc_policy = "; sys=none";
            enc_closure = "empty_body";
            enc_deps = [ "libFx" ];
          };
          {
            (* A view distinct from "empty", so the two enclosures get
               distinct PKRU values under LB_MPK. *)
            Encl_elf.Objfile.enc_name = "io_enc";
            enc_policy = "img:U; sys=all";
            enc_closure = "io_body";
            enc_deps = [ "libFx" ];
          };
        ]
      ();
    Runtime.package "libFx" ~imports:[ "img" ] ~functions:[ ("invert", 256) ] ();
    Runtime.package "img" ~functions:[ ("decode", 128) ] ();
  ]

let iters = 1_000

(* Median simulated ns of [f] over [iters] calls. *)
let median_ns rt f =
  let clock = Runtime.clock rt in
  let samples =
    List.init iters (fun _ ->
        let t0 = Clock.now clock in
        f ();
        float_of_int (Clock.now clock - t0))
  in
  Host.median samples

let micro_boot backend = Workloads.boot ~backend ~cores:1 (micro_packages ())

let micro_call backend =
  let rt = micro_boot backend in
  median_ns rt (fun () -> Runtime.with_enclosure rt "empty" (fun () -> ()))

let micro_transfer backend =
  let rt = micro_boot backend in
  match Runtime.lb rt with
  | None -> 0.0
  | Some lb ->
      let len = 4 * Phys.page_size in
      let addr = Runtime.syscall_exn rt (K.Mmap { len }) in
      let flip = ref false in
      median_ns rt (fun () ->
          flip := not !flip;
          Lb.transfer lb ~addr ~len ~to_pkg:(if !flip then "libFx" else "img")
            ~site:"runtime.mallocgc")

let micro_syscall backend =
  let rt = micro_boot backend in
  let measure () = median_ns rt (fun () -> ignore (Runtime.syscall rt K.Getuid)) in
  match backend with None -> measure () | Some _ -> Runtime.with_enclosure rt "io_enc" measure

let table1 backend =
  let call, transfer, syscall =
    match backend with
    | Lb.Mpk -> (86.0, 1002.0, 523.0)
    | Lb.Vtx -> (924.0, 158.0, 4126.0)
    | Lb.Lwc | Lb.Sfi -> invalid_arg "table1: the paper reports LB_MPK and LB_VTX only"
  in
  let b = Some backend and n = Lb.backend_name backend in
  [
    { name = "table1.call_ns." ^ n; measured = micro_call b; paper = call };
    { name = "table1.transfer_ns." ^ n; measured = micro_transfer b; paper = transfer };
    { name = "table1.syscall_ns." ^ n; measured = micro_syscall b; paper = syscall };
  ]

(* ------------------------------------------------------------------ *)
(* Slowdowns against the unprotected baseline                          *)

let cpu_ns (r : Workloads.round) = float_of_int (Counters.get r.delta "cpu_ns")

let slowdown ~name ~paper round backend =
  let base = round None and enc = round (Some backend) in
  { name; measured = cpu_ns enc /. cpu_ns base; paper }

(* Table 2 http row: 2000 requests over 8 connections. *)
let http backend ~paper () =
  slowdown ~name:("table2.http_slowdown." ^ Lb.backend_name backend) ~paper
    (fun backend -> Workloads.http_round ~probe:false ~backend ~seed:0 ~ops:2000 ~traced:false)
    backend

let http_vtx = http Lb.Vtx ~paper:1.77
let http_mpk = http Lb.Mpk ~paper:1.02

(* Table 2 bild row: steady-state inverts of the workload's image. *)
let bild_mpk () =
  slowdown ~name:"table2.bild_slowdown.LB_MPK" ~paper:1.12
    (fun backend -> Workloads.bild_round ~probe:false ~backend ~seed:0 ~ops:2 ~traced:false)
    Lb.Mpk

(* §6.4: the conservative port's whole program run, init included. *)
let python_vtx () =
  slowdown ~name:"s6.4.conservative_slowdown.LB_VTX" ~paper:18.0
    (fun backend ->
      Workloads.python_round ~probe:false ~backend ~seed:0 ~ops:Workloads.points ~traced:false)
    Lb.Vtx

let cells ~backend ~slowdowns = all_off (fun () -> table1 backend @ List.map (fun f -> f ()) slowdowns)
