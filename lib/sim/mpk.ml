let nr_keys = 16

type pkru = int32

let pkru_all_access = 0l

let pkru_deny_all =
  (* AD bit set for every key, WD clear (irrelevant once AD is set). *)
  let rec build k acc =
    if k >= nr_keys then acc
    else build (k + 1) (Int32.logor acc (Int32.shift_left 1l (2 * k)))
  in
  build 0 0l

type key_rights = No_access | Read_only | Read_write

let check_key key =
  if key < 0 || key >= nr_keys then invalid_arg "Mpk: key out of range"

let set_key pkru ~key rights =
  check_key key;
  let ad, wd =
    match rights with
    | No_access -> (1, 0)
    | Read_only -> (0, 1)
    | Read_write -> (0, 0)
  in
  let v = Encl_util.Bitops.set_bits pkru ~lo:(2 * key) ~width:1 ad in
  Encl_util.Bitops.set_bits v ~lo:((2 * key) + 1) ~width:1 wd

let key_rights pkru ~key =
  check_key key;
  let ad = Encl_util.Bitops.get_bits pkru ~lo:(2 * key) ~width:1 in
  let wd = Encl_util.Bitops.get_bits pkru ~lo:((2 * key) + 1) ~width:1 in
  if ad = 1 then No_access else if wd = 1 then Read_only else Read_write

let allows pkru ~key ~write =
  match key_rights pkru ~key with
  | No_access -> false
  | Read_only -> not write
  | Read_write -> true

let pp_pkru ppf pkru =
  Format.fprintf ppf "PKRU=%#lx [" pkru;
  for key = 0 to nr_keys - 1 do
    let c =
      match key_rights pkru ~key with
      | No_access -> '-'
      | Read_only -> 'r'
      | Read_write -> 'w'
    in
    Format.pp_print_char ppf c
  done;
  Format.pp_print_char ppf ']'

type allocator = { mutable in_use : bool array }

let allocator () =
  let in_use = Array.make nr_keys false in
  in_use.(0) <- true;
  { in_use }

let pkey_alloc a =
  let rec find k =
    if k >= nr_keys then Error "pkey_alloc: no keys left"
    else if not a.in_use.(k) then (
      a.in_use.(k) <- true;
      Ok k)
    else find (k + 1)
  in
  find 1

let pkey_free a key =
  if key <= 0 || key >= nr_keys then Error "pkey_free: bad key"
  else if not a.in_use.(key) then Error "pkey_free: key not allocated"
  else (
    a.in_use.(key) <- false;
    Ok ())

