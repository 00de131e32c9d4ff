(* The witness recorder: a default-off ledger attributing every boundary
   event to the responsible scope (enclosure name, or "trusted" for the
   runtime itself). Where the metrics sink answers "how much", the
   witness answers "who touched what": per-package memory access modes,
   per-category syscall usage with call-site context and connect
   targets, and trusted-call / tainted-boundary crossings. The policy
   miner folds a scope's witness into the minimal `with [Policies]`
   literal that would have admitted exactly the observed behavior.

   Pure observer: recording charges no simulated time and never branches
   behavior, so a run with witnessing on is byte-identical (fault logs,
   syscall results, quarantine state) to the same run with it off.

   All query functions return keys in sorted order so two identical runs
   export byte-identical witness artifacts. *)

type mode = R | W | X

type mem_counts = {
  mutable reads : int;
  mutable writes : int;
  mutable execs : int;
  mutable lo : int;  (** lowest touched address, [max_int] when empty *)
  mutable hi : int;  (** highest touched address, [min_int] when empty *)
}

type sys_counts = {
  mutable allowed : int;
  mutable denied : int;
  sites : (string, int) Hashtbl.t;  (** collapsed call-stack signature *)
  ips : (int, int) Hashtbl.t;  (** connect(2) targets, for [Connect_to] *)
}

type scope = {
  mem : (string, mem_counts) Hashtbl.t;  (** package -> access counts *)
  sys : (string, sys_counts) Hashtbl.t;  (** category name -> usage *)
  mutable trusted_calls : int;
  mutable tainted_verified : int;
  mutable tainted_rejected : int;
  mutable transfers : int;
}

type t = {
  scopes : (string, scope) Hashtbl.t;
  mutable enabled : bool;
}

let default_enabled = ref false

let create ?enabled () =
  {
    scopes = Hashtbl.create 16;
    enabled = (match enabled with Some e -> e | None -> !default_enabled);
  }

let enabled t = t.enabled

let reset t = Hashtbl.reset t.scopes

let scope_for t name =
  match Hashtbl.find_opt t.scopes name with
  | Some s -> s
  | None ->
      let s =
        {
          mem = Hashtbl.create 8;
          sys = Hashtbl.create 8;
          trusted_calls = 0;
          tainted_verified = 0;
          tainted_rejected = 0;
          transfers = 0;
        }
      in
      Hashtbl.add t.scopes name s;
      s

let mem_for s pkg =
  match Hashtbl.find_opt s.mem pkg with
  | Some m -> m
  | None ->
      let m = { reads = 0; writes = 0; execs = 0; lo = max_int; hi = min_int } in
      Hashtbl.add s.mem pkg m;
      m

let sys_for s cat =
  match Hashtbl.find_opt s.sys cat with
  | Some c -> c
  | None ->
      let c =
        { allowed = 0; denied = 0; sites = Hashtbl.create 4; ips = Hashtbl.create 2 }
      in
      Hashtbl.add s.sys cat c;
      c

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* {2 Recording (no-ops while disabled)} *)

let touch t ~scope ~pkg ~mode ~addr =
  if t.enabled then begin
    let m = mem_for (scope_for t scope) pkg in
    (match mode with
    | R -> m.reads <- m.reads + 1
    | W -> m.writes <- m.writes + 1
    | X -> m.execs <- m.execs + 1);
    if addr < m.lo then m.lo <- addr;
    if addr > m.hi then m.hi <- addr
  end

let syscall t ~scope ~category ~site ~allowed =
  if t.enabled then begin
    let c = sys_for (scope_for t scope) category in
    if allowed then c.allowed <- c.allowed + 1 else c.denied <- c.denied + 1;
    bump c.sites site
  end

let connect t ~scope ~ip =
  if t.enabled then
    let c = sys_for (scope_for t scope) "net" in
    bump c.ips ip

let trusted_call t ~scope =
  if t.enabled then
    let s = scope_for t scope in
    s.trusted_calls <- s.trusted_calls + 1

let tainted t ~scope ~verified =
  if t.enabled then
    let s = scope_for t scope in
    if verified then s.tainted_verified <- s.tainted_verified + 1
    else s.tainted_rejected <- s.tainted_rejected + 1

let transfer t ~scope =
  if t.enabled then
    let s = scope_for t scope in
    s.transfers <- s.transfers + 1

(* {2 Queries (sorted, deterministic)} *)

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let scope_names t = sorted_keys t.scopes
let find_scope t name = Hashtbl.find_opt t.scopes name

let mem_of sc = List.map (fun p -> (p, Hashtbl.find sc.mem p)) (sorted_keys sc.mem)
let sys_of sc = List.map (fun c -> (c, Hashtbl.find sc.sys c)) (sorted_keys sc.sys)

let sites_of (c : sys_counts) =
  List.map (fun s -> (s, Hashtbl.find c.sites s)) (sorted_keys c.sites)

let ips_of (c : sys_counts) =
  List.map (fun ip -> (ip, Hashtbl.find c.ips ip)) (sorted_keys c.ips)

let trusted_calls sc = sc.trusted_calls
let tainted_verified sc = sc.tainted_verified
let tainted_rejected sc = sc.tainted_rejected
let transfers sc = sc.transfers

(* Cross-check totals: every syscall the witness saw, summed over all
   scopes. Runtime.audit reconciles them with the registry's verdict
   counters. *)
let totals t =
  Hashtbl.fold
    (fun _ sc (a, d) ->
      Hashtbl.fold
        (fun _ c (a, d) -> (a + c.allowed, d + c.denied))
        sc.sys (a, d))
    t.scopes (0, 0)

let category_total t ~category =
  Hashtbl.fold
    (fun _ sc acc ->
      match Hashtbl.find_opt sc.sys category with
      | Some c -> acc + c.allowed
      | None -> acc)
    t.scopes 0

(* The observed access mode for [pkg] inside a scope, as the minimal
   rung of the U < R < RW < RWX lattice covering every touch. *)
let mem_mode (m : mem_counts) =
  if m.execs > 0 then "RWX" else if m.writes > 0 then "RW" else "R"
