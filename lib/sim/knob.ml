type t = {
  name : string;
  env : string;
  default : bool;
  mutable value : bool;
}

let make name env ~default =
  let value =
    match Sys.getenv_opt env with
    | Some ("0" | "false" | "off") -> false
    | Some _ -> true
    | None -> default
  in
  { name; env; default; value }

let fastpath = make "fastpath" "ENCL_FASTPATH" ~default:true
let sysring = make "sysring" "ENCL_SYSRING" ~default:true
let zerocopy = make "zerocopy" "ENCL_ZEROCOPY" ~default:true
let all = [ fastpath; sysring; zerocopy ]
let find name = List.find_opt (fun k -> k.name = name) all
let set k b = k.value <- b

let with_value k b f =
  let saved = k.value in
  k.value <- b;
  Fun.protect ~finally:(fun () -> k.value <- saved) f
