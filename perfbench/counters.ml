(* Simulated counters: one snapshot reads every counter the system
   exposes (clock categories, LitterBox, kernel, scheduler, allocator,
   CPython-like runtime); the measured phase is the difference of two
   snapshots. Everything here is a deterministic function of the
   workload's inputs. *)

module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Galloc = Encl_golike.Galloc
module Pyrt = Encl_pylike.Pyrt

(* The booted system a snapshot reads: the machine plus whichever
   runtime layers the workload has. *)
type src = {
  machine : Machine.t;
  lb : Lb.t option;
  sched : Sched.t option;
  galloc : Galloc.t option;
  py : Pyrt.t option;
}

let of_runtime rt =
  {
    machine = Runtime.machine rt;
    lb = Runtime.lb rt;
    sched = Some (Runtime.sched rt);
    galloc = Some (Runtime.galloc rt);
    py = None;
  }

let of_pyrt py =
  { machine = Pyrt.machine py; lb = Pyrt.lb py; sched = None; galloc = None; py = Some py }

let clock s = s.machine.Machine.clock
let kernel s = s.machine.Machine.kernel
let lb f s = match s.lb with Some lb -> f lb | None -> 0
let sched f s = match s.sched with Some t -> f t | None -> 0

let readers : (string * (src -> int)) list =
  [ ("cpu_ns", fun s -> Clock.now (clock s)); ("wall_ns", fun s -> Clock.wall (clock s)) ]
  @ List.map
      (fun c -> ("clock." ^ Clock.category_name c, fun s -> Clock.spent (clock s) c))
      Clock.all_categories
  @ [
      ("lb.switches", lb Lb.switch_count);
      ("lb.switch_elided", lb Lb.switch_elided_count);
      ("lb.transfers", lb Lb.transfer_count);
      ("lb.transfer_coalesced", lb Lb.transfer_coalesced_count);
      ("lb.faults", lb Lb.fault_count);
      ("lb.ring_drained", lb Lb.ring_drained_count);
      ("lb.ring_batches", lb Lb.ring_batches_count);
      ("lb.vmexits", lb Lb.vmexit_count);
      ("k.syscalls", fun s -> K.syscall_count (kernel s));
      ("k.bytes_copied", fun s -> K.bytes_copied_count (kernel s));
      ("k.seccomp_hits", fun s -> fst (K.seccomp_cache_stats (kernel s)));
      ("k.seccomp_misses", fun s -> snd (K.seccomp_cache_stats (kernel s)));
      ("sched.switches", sched Sched.switch_count);
      ("sched.steals", sched Sched.steal_count);
      ("sched.affinity_hits", sched Sched.affinity_hit_count);
      ("sched.kills", sched Sched.kill_count);
      ("galloc.allocs", fun s -> match s.galloc with Some g -> Galloc.alloc_count g | None -> 0);
      ("app.bytes_copied", fun s -> s.machine.Machine.bytes_copied);
      ("py.trusted_switches", fun s -> match s.py with Some p -> Pyrt.trusted_switches p | None -> 0);
    ]

let names = Array.of_list (List.map fst readers)
let index = Hashtbl.create 64
let () = Array.iteri (fun i n -> Hashtbl.replace index n i) names

type t = int array

let zero () : t = Array.make (Array.length names) 0
let snapshot src : t = Array.of_list (List.map (fun (_, f) -> f src) readers)
let diff (a : t) (b : t) : t = Array.mapi (fun i v -> v - a.(i)) b
let get (d : t) name = d.(Hashtbl.find index name)

(* Clock-category deltas sum exactly to simulated CPU time. *)
let conserved d =
  List.fold_left
    (fun acc c -> acc + get d ("clock." ^ Clock.category_name c))
    0 Clock.all_categories
  = get d "cpu_ns"

let category_metric = function
  | Clock.Switch -> "litterbox.switch_ns_per_op"
  | Syscall -> "kernel.syscall_ns_per_op"
  | Transfer -> "litterbox.transfer_ns_per_op"
  | Access -> "litterbox.access_ns_per_op"
  | Compute -> "apps.compute_ns_per_op"
  | Alloc -> "golike.alloc_ns_per_op"
  | Gc -> "golike.gc_ns_per_op"
  | Init -> "litterbox.init_ns_per_op"
  | Io -> "kernel.io_ns_per_op"
  | Other -> "sim.other_ns_per_op"

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The simulated per-layer metrics of one measured phase: [(name, unit,
   value)]. Ratios with an empty denominator read 0. *)
let layer_metrics ~ops ~cores d =
  let per name = ratio (get d name) ops in
  List.map
    (fun c -> (category_metric c, "ns", per ("clock." ^ Clock.category_name c)))
    Clock.all_categories
  @ [
      ("sim.cpu_ns_per_op", "ns", per "cpu_ns");
      ("kernel.syscalls_per_op", "count", per "k.syscalls");
      ( "kernel.seccomp_hit_rate",
        "ratio",
        ratio (get d "k.seccomp_hits") (get d "k.seccomp_hits" + get d "k.seccomp_misses") );
      ("kernel.bytes_copied_per_op", "B", per "k.bytes_copied");
      ("litterbox.switches_per_op", "count", per "lb.switches");
      ("litterbox.switch_elided_ratio", "ratio", ratio (get d "lb.switch_elided") (get d "lb.switches"));
      ("pylike.trusted_switches_per_op", "count", per "py.trusted_switches");
      ("litterbox.vmexits_per_op", "count", per "lb.vmexits");
      ("litterbox.ring_batch_avg", "count", ratio (get d "lb.ring_drained") (get d "lb.ring_batches"));
      ("litterbox.transfers_per_op", "count", per "lb.transfers");
      ( "litterbox.transfer_coalesced_ratio",
        "ratio",
        ratio (get d "lb.transfer_coalesced") (get d "lb.transfers") );
      ("golike.allocs_per_op", "count", per "galloc.allocs");
      ("apps.bytes_copied_per_op", "B", per "app.bytes_copied");
      ("golike.sched_switches_per_op", "count", per "sched.switches");
      ("golike.steals_per_op", "count", per "sched.steals");
      ( "golike.affinity_hit_rate",
        "ratio",
        ratio (get d "sched.affinity_hits") (get d "sched.affinity_hits" + get d "sched.switches") );
      ( "golike.core_idle_ratio",
        "ratio",
        1.0 -. ratio (get d "cpu_ns") (cores * get d "wall_ns") );
      ("litterbox.faults", "count", float_of_int (get d "lb.faults"));
      ("golike.kills", "count", float_of_int (get d "sched.kills"));
    ]
