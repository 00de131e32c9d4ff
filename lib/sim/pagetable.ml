type t = { id : int; name : string; entries : Pte.t Vpn_map.t }

let ids = Encl_util.Ids.make ()
let create ~name = { id = Encl_util.Ids.next ids; name; entries = Vpn_map.create () }
let id t = t.id
let name t = t.name

let map t ~vpn pte =
  if Vpn_map.mem t.entries vpn then
    invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d already mapped" t.name vpn);
  Vpn_map.add t.entries vpn pte

let unmap t ~vpn =
  if not (Vpn_map.mem t.entries vpn) then
    invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d not mapped" t.name vpn);
  Vpn_map.remove t.entries vpn

let walk t ~vpn = Vpn_map.find_opt t.entries vpn

let get t vpn =
  match walk t ~vpn with
  | Some pte -> pte
  | None ->
      invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d not mapped" t.name vpn)

let protect t ~vpn perms = (get t vpn).Pte.perms <- perms
let set_present t ~vpn present = (get t vpn).Pte.present <- present

let set_pkey t ~vpn pkey =
  if pkey < 0 || pkey > 15 then invalid_arg "Pagetable.set_pkey: key out of range";
  (get t vpn).Pte.pkey <- pkey

let clone t ~name =
  {
    id = Encl_util.Ids.next ids;
    name;
    entries =
      Vpn_map.map
        (fun (pte : Pte.t) ->
          { Pte.ppn = pte.ppn; present = pte.present; perms = pte.perms; pkey = pte.pkey })
        t.entries;
  }

let pp ppf t =
  let entries = Vpn_map.fold (fun vpn pte acc -> (vpn, pte) :: acc) t.entries [] |> List.rev in
  Format.fprintf ppf "@[<v>pagetable %s (%d entries)" t.name (List.length entries);
  List.iter (fun (vpn, pte) -> Format.fprintf ppf "@ %#x -> %a" vpn Pte.pp pte) entries;
  Format.fprintf ppf "@]"
