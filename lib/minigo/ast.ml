type binop = Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne

type expr =
  | Int of int
  | Str of string
  | Bool of bool
  | Var of string
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Pkg_call of string * string * expr list
  | Enclosure of enclosure

and stmt =
  | Define of string * expr
  | Assign of string * expr
  | Expr of expr
  | Return of expr option
  | If of expr * block * block option
  | For of expr * block
  | Go of expr

and enclosure = {
  policy : string;
  body : block;
  mutable e_id : string option;
      (** unique enclosure name, assigned by the compiler *)
}

and block = stmt list

type fndecl = { fn_name : string; fn_params : string list; fn_body : block }

type vardecl = { v_name : string; v_init : expr }

type pkg = {
  p_name : string;
  p_imports : string list;
  p_import_policies : (string * string) list;
      (** [import foo with "policy"] tags: the imported package's [init]
          function runs inside an enclosure with that policy (paper
          §5.1) *)
  p_consts : vardecl list;
  p_vars : vardecl list;
  p_funcs : fndecl list;
}

type program = pkg list
