(* Declared counters are process-wide: each layer declares its own at
   module initialisation, and a counter is its index in [names]. *)
type counter = int

let names = ref [||]

let counter name =
  if Array.mem name !names then
    invalid_arg ("Metrics.counter: " ^ name ^ " is already declared");
  names := Array.append !names [| name |];
  Array.length !names - 1

let counter_name c = !names.(c)
let declared () = List.init (Array.length !names) Fun.id

type scope = int

let trusted = 0

type scope_data = {
  name : string;
  mutable counts : int array;
      (** by counter: as long as the declaration list was when the
          scope was interned, grown if a later declaration counts here *)
  hists : (string, Hist.t) Hashtbl.t;
  mutable touched : bool;
}

(* Per machine: scope names are interned to dense ids into [data]. *)
type t = {
  ids : (string, scope) Hashtbl.t;
  mutable data : scope_data array;  (** by scope id, [nscopes] used *)
  mutable nscopes : int;
  mutable order : string list;  (** first-touch order, reversed *)
  mutable current : scope;
}

let scope t name =
  match Hashtbl.find_opt t.ids name with
  | Some s -> s
  | None ->
      let s = t.nscopes in
      let d =
        {
          name;
          counts = Array.make (Array.length !names) 0;
          hists = Hashtbl.create 8;
          touched = false;
        }
      in
      if s = Array.length t.data then begin
        let grown = Array.make (max 8 (2 * s)) d in
        Array.blit t.data 0 grown 0 s;
        t.data <- grown
      end;
      t.data.(s) <- d;
      t.nscopes <- s + 1;
      Hashtbl.replace t.ids name s;
      s

let create () =
  let t =
    { ids = Hashtbl.create 16; data = [||]; nscopes = 0; order = []; current = trusted }
  in
  ignore (scope t "trusted");
  t

let scope_name t s = t.data.(s).name
let current t = t.current
let set_current t s = t.current <- s

let touch t d =
  if not d.touched then begin
    d.touched <- true;
    t.order <- d.name :: t.order
  end

let bump t s c n =
  let d = t.data.(s) in
  if c >= Array.length d.counts then begin
    let grown = Array.make (Array.length !names) 0 in
    Array.blit d.counts 0 grown 0 (Array.length d.counts);
    d.counts <- grown
  end;
  d.counts.(c) <- d.counts.(c) + n;
  touch t d

let incr t c = bump t t.current c 1
let incr_in t ~scope c = bump t scope c 1
let add t c n = if n > 0 then bump t t.current c n

let observe t ~scope name v =
  let d = t.data.(scope) in
  let h =
    match Hashtbl.find_opt d.hists name with
    | Some h -> h
    | None ->
        let h = Hist.create () in
        Hashtbl.replace d.hists name h;
        h
  in
  Hist.record h v;
  touch t d

let count_in d c = if c < Array.length d.counts then d.counts.(c) else 0

let total t c =
  let sum = ref 0 in
  for s = 0 to t.nscopes - 1 do
    sum := !sum + count_in t.data.(s) c
  done;
  !sum

let scopes t = List.rev t.order

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* Counters that counted at all, by name, with [value c] for each. *)
let nonzero value =
  List.init (Array.length !names) (fun c -> (counter_name c, value c))
  |> List.filter (fun (_, v) -> v > 0)
  |> by_name

let find t name = Option.map (fun s -> t.data.(s)) (Hashtbl.find_opt t.ids name)

let counters t ~scope =
  match find t scope with None -> [] | Some d -> nonzero (count_in d)

let totals t = nonzero (total t)

let hists t ~scope =
  match find t scope with
  | None -> []
  | Some d -> by_name (Hashtbl.fold (fun n h acc -> (n, h) :: acc) d.hists [])
