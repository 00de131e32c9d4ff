(** Typed observability events.

    One event per LitterBox crossing (prolog/epilog/execute/transfer),
    system call, fault, GC pass, or arena-span assignment. Timestamps
    come from the {e simulated} clock, so a trace of a deterministic
    workload is itself deterministic (see DESIGN.md). *)

type verdict = Allowed | Denied

type kind =
  | Prolog of { enclosure : string; site : string }
      (** Switch into an enclosure's execution environment. *)
  | Epilog of { site : string }
      (** Switch back to the enclosing environment. *)
  | Execute of { target : string option }
      (** Scheduler switch / trusted excursion; [None] = trusted. *)
  | Transfer of { to_pkg : string; pages : int }
      (** Arena repartitioning. *)
  | Syscall of { name : string; category : string; verdict : verdict }
      (** A filtered system call; [Denied] = seccomp kill or guest-side
          filter rejection. *)
  | Fault of { reason : string }
      (** Policy violation (aborts the enclosed computation). *)
  | Gc of { spans : int }
      (** A stop-the-world collection pass over [spans] live spans. *)
  | Alloc_span of { pkg : string; bytes : int }
      (** A fresh allocator span assigned to a package's arena. *)
  | Inject of { point : string }
      (** The chaos injector fired at a hook point. *)
  | Fiber_kill of { fid : int; reason : string }
      (** The scheduler reaped a faulting fiber. *)
  | Quarantine of { enclosure : string; faults : int }
      (** An enclosure crossed its fault budget; Prolog now fails fast. *)
  | Retry of { op : string; attempt : int }
      (** An app-level retry of a transiently-failing operation. *)

type t = {
  ts : int;  (** simulated ns at which the operation started *)
  dur : int;  (** simulated ns the operation took; 0 = instant *)
  backend : string;  (** "baseline", "LB_MPK", "LB_VTX", "LB_LWC" *)
  enclosure : string option;  (** innermost active enclosure, if any *)
  kind : kind;
}

val kind_name : kind -> string
(** Short display name, e.g. ["prolog:rcl"] or ["syscall:connect"]. *)

val kind_category : kind -> string
(** Coarse grouping for trace viewers: "switch", "syscall", "transfer",
    "fault", "gc" or "alloc". *)

val args : kind -> (string * string) list
(** The kind's payload as flat key/value pairs (for exporters). *)

val pp : Format.formatter -> t -> unit
