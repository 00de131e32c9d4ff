(** Ready-made macrobenchmark scenarios (paper §6.2–§6.3).

    Each scenario builds a full program (packages + enclosures), boots it
    under the requested configuration ([None] = unmodified-Go baseline),
    drives a workload, and returns the booted runtime with one
    {!report}. These are used by the benchmark harness, the A/B runner,
    the tools in [bin/] and the integration tests. *)

type config = Encl_litterbox.Litterbox.backend option

val config_name : config -> string

(** {2 Reports} *)

type report = {
  ops : int;  (** operations completed: requests, inverts or queries *)
  cpu_ns : int;  (** simulated CPU ns over the measured span, all cores *)
  wall_ns : int;
      (** simulated makespan over the measured span (the slowest core's
          lane); equal to [cpu_ns] on one core *)
  metrics : (string * float) list;
      (** values only this scenario knows, named as in
          [BENCH_results.json] where a bench row carries them:
          [req_per_sec] and [syscalls_per_req] (HTTP-style),
          [ns_per_invert], [transfers] and [checksum] (bild),
          [ns_per_query] (pq), and the chaos tallies *)
}

type outcome = (Encl_golike.Runtime.t * report, string) result
(** [Error] on input the scenario cannot measure, e.g. fewer requests
    than connections. *)

val metric : report -> string -> float
(** A scenario metric by name. Raises [Not_found] when the scenario does
    not report it. *)

val pp_report : report -> string
(** One line: ops, spans and every scenario metric. *)

val with_cores :
  ?rcfg:Encl_golike.Runtime.config -> ?cores:int -> config ->
  Encl_golike.Runtime.config option
(** The configuration a scenario boots: [rcfg] (else the [config]
    backend's default) with [cores] pinned on top when given. *)

val table1_packages : unit -> Encl_golike.Runtime.pkgdef list
(** Table 1's program: [main] imports [lib], which imports [img]. Two
    enclosures over [lib]: [enc] may make no system call, [io] may make
    any but cannot touch [img] (so the two views, and their PKRU values
    under LB_MPK, differ). The bench's microbenchmarks and
    [trace_dump enforcement] boot it. *)

(** {2 Scenarios}

    The [?rcfg] parameter overrides the full runtime configuration
    (custom cost model, clustering ablation); when present it takes
    precedence over the backend [config]. [?cores], where offered,
    pins the core count on top of it. *)

val bild :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?width:int -> ?height:int ->
  ?iters:int -> unit -> outcome
(** The Table 2 "bild" row: a sensitive image shared read-only with an
    enclosed call to bild's [invert]; all system calls denied. Default
    image 1024x1024 RGBA, 3 measured iterations after one warm-up. *)

val http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> ?conns:int ->
  unit -> outcome
(** The Table 2 "HTTP" row: net/http server, enclosed request handler
    (no packages, no system calls) returning a 13 KB static page. *)

val fasthttp :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> ?conns:int ->
  unit -> outcome
(** The Table 2 "FastHTTP" row: whole server enclosed with a net-only
    filter, trusted handler goroutine behind channels. *)

val wiki :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?cores:int -> ?requests:int ->
  ?conns:int -> unit -> outcome
(** The Figure 5 wiki application: GET-page workload against the
    mini-Postgres remote, two enclosures (HTTP server, DB proxy).
    [cores], when pinned, shards the machine so the per-connection
    serving fibers spread by work stealing; unset is the classic
    single-core boot. *)

val smp_http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?cores:int -> ?requests:int ->
  ?conns:int -> ?render_ns:int -> unit -> outcome
(** The http scenario with a per-request template-render cost, request
    rate measured against the makespan (max core lane) instead of total
    CPU time. Connection fibers spread across the simulated cores by
    work stealing; the client driver stays serial on core 0 (the
    scenario's Amdahl bound). [cores] defaults to [ENCL_CORES] — the
    benchmark harness pins it per row. *)

val wiki_check : config -> (string, string) result
(** Functional check: create a page over POST, read it back over GET;
    returns the page body seen by the client. *)

val pq :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?cores:int -> ?workers:int ->
  ?queries:int -> unit -> outcome
(** The database driver alone inside an enclosure ([pq_enc]: pq and its
    dependency tree, [net] syscalls narrowed to the database address):
    connect once, then [queries] SELECTs against the mini-Postgres
    remote. The policy miner's connect-narrowing reference scenario.
    [workers] (default 1 — the classic serial loop) splits the queries
    over that many goroutines, each with its own connection, spawned
    inside the enclosure; pin [cores] alongside to spread them over a
    sharded machine. *)

val zerocopy_http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> ?conns:int ->
  unit -> outcome
(** The zero-copy data plane end to end: the fasthttp server in zc
    serving mode — requests read in place from the rx view ring
    ("netring:R" in the [zc_srv] policy), 13 KiB static body spliced
    from the VFS with sendfile(2). The identical syscall sequence runs
    with ENCL_ZEROCOPY off (kernel-internal bounce copies), so
    enforcement artifacts are byte-identical across the flag and only
    time + the bytes_copied ledger move. *)

(** {2 Chaos scenarios (deterministic fault injection)}

    Their metrics are the chaos tallies: [sent], [served],
    [availability] (served / sent), [injected] (fault-injector fires),
    [faults] (LitterBox-accounted), [kills] (fibers killed and reaped),
    [conns_failed] (connections torn down by a contained fault: the
    machine's ["http.conn_failed"] total, {!Serve}),
    [quarantined] (1 when the targeted enclosure exhausted its budget)
    and [reconnects] (pq re-dials: ["pq.reconnect"], {!Pq}). *)

val chaos_http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?seed:int64 -> ?rate:float ->
  ?budget:int -> ?requests:int -> ?conns:int -> unit -> outcome
(** Spurious page faults injected into the request-handler enclosure at
    [rate] per consultation. Each fault costs one connection; after
    [budget] faults the enclosure is quarantined and the handler serves a
    trusted fallback page, so availability recovers. Fully deterministic
    under [seed]. [Error] naming the rate unless it is a probability in
    [[0, 1]] (the same check as {!Encl_fault.Fault.valid_prob}). *)

val chaos_wiki :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?seed:int64 -> ?rate:float ->
  ?budget:int -> ?requests:int -> ?conns:int -> unit -> outcome
(** Network chaos over the wiki: dropped connections, short reads and
    writes, transient [EINTR]/[EAGAIN] — exercising the retry helpers
    and the pq -> minidb reconnect path. The rate is checked as for
    {!chaos_http}. *)

val chaos_fault_accounting : Encl_golike.Runtime.t -> (unit, string) result
(** Each firing of [cpu.spurious_fault] must be accounted as exactly one
    LitterBox fault: the runtime's fault count equals the injector's
    fire count for that point (both 0 without LitterBox). *)

val pp_chaos_result : report -> string
(** One deterministic [key=value] line of the chaos tallies (the chaos
    tool's output). *)

(** {2 Enforcement} *)

val workload_syscalls :
  Encl_golike.Runtime.t -> (Encl_kernel.Sysno.t * int) list
(** The kernel's per-syscall totals without the memory-management
    family, whose counts follow allocator span growth and GC timing. *)

val enforcement : label:string -> Encl_golike.Runtime.t -> report -> string list
(** A run's enforcement, without timings: ops served, the workload
    syscall total and per-syscall counts, faults, and the syscall-ring
    balance — or, when the run attached the rx ring
    ({!Encl_kernel.Kernel.rxring_attached}), the kernel's descriptor
    counters and their balance. Identical under every knob, core count
    and backend for the same program and workload. *)

(** {2 Registry} *)

type runner =
  config -> ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> unit ->
  outcome
(** A default-sized run; [requests] resizes the request-driven scenarios
    (pq reads it as its query count, bild ignores it). *)

val registry : (string * runner) list
(** bild, http, fasthttp, wiki, pq, smp_http and zerocopy_http. *)

val find : string -> (runner, string) result
(** A registry entry by name; the error lists the choices. *)
