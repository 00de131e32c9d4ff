(* Deterministic fault injector. Each hook point consumes its own
   splitmix64 stream, keyed by (plan seed, FNV-1a of the point name):
   adding or removing a rule for one point cannot perturb the draw
   sequence of another, which keeps chaos runs comparable across plan
   tweaks. *)

module Rng = Encl_util.Rng

type rule = {
  r_point : string;
  r_prob : float;
  r_max_fires : int option;
  r_env_prefix : string option;
}

type point_state = {
  mutable p_rng : Rng.t;
  mutable p_fired : int;
  mutable p_consulted : int;
}

type t = {
  mutable seed : int64;
  rules : (string, rule) Hashtbl.t;
  states : (string, point_state) Hashtbl.t;
  registry : (string, string) Hashtbl.t;
  mutable log_rev : (string * string) list;
  mutable total_fired : int;
  mutable on_fire : (point:string -> env:string -> unit) option;
  mutable active : bool;
}

let valid_prob p = p >= 0.0 && p <= 1.0

let rule ?(prob = 1.0) ?max_fires ?env_prefix point =
  if not (valid_prob prob) then
    invalid_arg (Printf.sprintf "Fault.rule: probability %g outside [0, 1]" prob);
  {
    r_point = point;
    r_prob = prob;
    r_max_fires = max_fires;
    r_env_prefix = env_prefix;
  }

(* FNV-1a over the point name, so the per-point stream depends only on
   the name and the plan seed. *)
let hash_point name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    name;
  !h

let point_rng seed name = Rng.make ~seed:(Int64.logxor seed (hash_point name))

let create ?(seed = 1L) () =
  {
    seed;
    rules = Hashtbl.create 8;
    states = Hashtbl.create 8;
    registry = Hashtbl.create 8;
    log_rev = [];
    total_fired = 0;
    on_fire = None;
    active = false;
  }

let set_seed t seed =
  t.seed <- seed;
  Hashtbl.reset t.states;
  t.log_rev <- [];
  t.total_fired <- 0

let register t ~point ~doc = Hashtbl.replace t.registry point doc

let points t =
  Hashtbl.fold (fun p d acc -> (p, d) :: acc) t.registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let arm t r =
  Hashtbl.replace t.rules r.r_point r;
  t.active <- true

let arm_plan t rules = List.iter (arm t) rules

let disarm t point =
  Hashtbl.remove t.rules point;
  t.active <- Hashtbl.length t.rules > 0

let disarm_all t =
  Hashtbl.reset t.rules;
  t.active <- false

let active t = t.active

let state t point =
  match Hashtbl.find_opt t.states point with
  | Some s -> s
  | None ->
      let s =
        { p_rng = point_rng t.seed point; p_fired = 0; p_consulted = 0 }
      in
      Hashtbl.add t.states point s;
      s

let env_matches rule env =
  match rule.r_env_prefix with
  | None -> true
  | Some prefix ->
      String.length env >= String.length prefix
      && String.sub env 0 (String.length prefix) = prefix

let fires t ?(env = "") point =
  if not t.active then false
  else
    match Hashtbl.find_opt t.rules point with
    | None -> false
    | Some rule when not (env_matches rule env) -> false
    | Some rule -> (
        let s = state t point in
        s.p_consulted <- s.p_consulted + 1;
        match rule.r_max_fires with
        | Some limit when s.p_fired >= limit -> false
        | _ ->
            let hit = Rng.float s.p_rng 1.0 < rule.r_prob in
            if hit then (
              s.p_fired <- s.p_fired + 1;
              t.total_fired <- t.total_fired + 1;
              t.log_rev <- (point, env) :: t.log_rev;
              match t.on_fire with
              | Some f -> f ~point ~env
              | None -> ());
            hit)

let fired t point =
  match Hashtbl.find_opt t.states point with None -> 0 | Some s -> s.p_fired

let consulted t point =
  match Hashtbl.find_opt t.states point with
  | None -> 0
  | Some s -> s.p_consulted

let total_fired t = t.total_fired
let log t = List.rev t.log_rev
let on_fire t f = t.on_fire <- Some f

(* ------------------------------------------------------------------ *)
(* Plan specs: point:prob[:max=N][:env=PREFIX], comma-separated. *)

let parse_rule spec =
  match String.split_on_char ':' (String.trim spec) with
  | [] | [ "" ] -> Error "empty rule"
  | point :: rest ->
      let rec go r = function
        | [] -> Ok r
        | field :: rest -> (
            if String.length field > 4 && String.sub field 0 4 = "max=" then
              match
                int_of_string_opt (String.sub field 4 (String.length field - 4))
              with
              | Some n -> go { r with r_max_fires = Some n } rest
              | None -> Error (Printf.sprintf "bad max in %S" spec)
            else if String.length field >= 4 && String.sub field 0 4 = "env="
            then
              (* "env=enc:" splits as ["env=enc"; ""]: glue a trailing
                 empty field back on as the ':' it came from. *)
              let value = String.sub field 4 (String.length field - 4) in
              let value, rest =
                match rest with "" :: rest' -> (value ^ ":", rest') | _ -> (value, rest)
              in
              go { r with r_env_prefix = Some value } rest
            else
              match float_of_string_opt field with
              | Some p when valid_prob p -> go { r with r_prob = p } rest
              | Some _ -> Error (Printf.sprintf "probability out of range in %S" spec)
              | None -> Error (Printf.sprintf "bad field %S in %S" field spec))
      in
      if point = "" then Error (Printf.sprintf "missing point in %S" spec)
      else go (rule point) rest

let parse_plan s =
  let specs =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if specs = [] then Error "empty plan"
  else
    List.fold_left
      (fun acc spec ->
        match (acc, parse_rule spec) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok rules, Ok r -> Ok (r :: rules))
      (Ok []) specs
    |> Result.map List.rev
