type perms = { r : bool; w : bool; x : bool }

let no_perms = { r = false; w = false; x = false }

let pp_perms ppf p =
  Format.fprintf ppf "%c%c%c"
    (if p.r then 'r' else '-')
    (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

type t = { ppn : int; mutable present : bool; mutable perms : perms; mutable pkey : int }

let make ~ppn ~perms = { ppn; present = true; perms; pkey = 0 }

let pp ppf t =
  Format.fprintf ppf "{ppn=%d %s %a key=%d}" t.ppn
    (if t.present then "P" else "-")
    pp_perms t.perms t.pkey
