type typ = Tint | Tptr | Tarr of int

type lvalue = Lvar of string | Lderef of expr | Lindex of string * expr

and expr =
  | Int of int
  | Var of string
  | Unary of Ops.unop * expr
  | Binary of Ops.binop * expr * expr
  | Addr_of of lvalue
  | Deref of expr
  | Index of string * expr
  | Call of string * expr list

type stmt =
  | Sexpr of expr
  | Sdecl of string * typ * expr option
  | Sassign of lvalue * expr
  | Sif of expr * block * block
  | Swhile of expr * block
  | Sfor of stmt option * expr option * stmt option * block
  | Sswitch of expr * (int * block) list * block
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of block
  | Smarker of int

and block = stmt list

type ginit = Gzero | Gint of int | Gints of int list | Gaddr of string * int

type global = { g_name : string; g_typ : typ; g_init : ginit; g_static : bool }
type param = { p_name : string; p_typ : typ }

type func = {
  f_name : string;
  f_params : param list;
  f_ret : typ option;
  f_body : block;
  f_static : bool;
}

type program = {
  p_globals : global list;
  p_funcs : func list;
  p_externs : (string * int) list;
}

let marker_prefix = "DCEMarker"

let marker_name n = marker_prefix ^ string_of_int n

let marker_of_name name =
  let plen = String.length marker_prefix in
  if String.length name > plen && String.sub name 0 plen = marker_prefix then
    int_of_string_opt (String.sub name plen (String.length name - plen))
  else None

let typ_size = function
  | Tint | Tptr -> 1
  | Tarr n -> n

let rec iter_expr f e =
  f e;
  match e with
  | Int _ | Var _ -> ()
  | Unary (_, e1) | Deref e1 | Index (_, e1) -> iter_expr f e1
  | Binary (_, e1, e2) -> iter_expr f e1; iter_expr f e2
  | Addr_of lv -> iter_lvalue_exprs f lv
  | Call (_, args) -> List.iter (iter_expr f) args

and iter_lvalue_exprs f = function
  | Lvar _ -> ()
  | Lderef e | Lindex (_, e) -> iter_expr f e

let rec iter_stmt f s =
  f s;
  match s with
  | Sexpr _ | Sdecl _ | Sassign _ | Sreturn _ | Sbreak | Scontinue | Smarker _ -> ()
  | Sif (_, bt, bf) -> iter_block f bt; iter_block f bf
  | Swhile (_, b) -> iter_block f b
  | Sfor (init, _, step, b) ->
    Option.iter (iter_stmt f) init;
    Option.iter (iter_stmt f) step;
    iter_block f b
  | Sswitch (_, cases, dflt) ->
    List.iter (fun (_, b) -> iter_block f b) cases;
    iter_block f dflt
  | Sblock b -> iter_block f b

and iter_block f b = List.iter (iter_stmt f) b

let iter_program_stmts f prog = List.iter (fun fn -> iter_block f fn.f_body) prog.p_funcs

let stmt_exprs s =
  match s with
  | Sexpr e -> [ e ]
  | Sdecl (_, _, init) -> Option.to_list init
  | Sassign (lv, e) ->
    let lv_exprs = match lv with Lvar _ -> [] | Lderef e' | Lindex (_, e') -> [ e' ] in
    lv_exprs @ [ e ]
  | Sif (c, _, _) | Swhile (c, _) | Sswitch (c, _, _) -> [ c ]
  | Sfor (_, cond, _, _) -> Option.to_list cond
  | Sreturn e -> Option.to_list e
  | Sbreak | Scontinue | Sblock _ | Smarker _ -> []

let iter_program_exprs f prog =
  iter_program_stmts (fun s -> List.iter (iter_expr f) (stmt_exprs s)) prog

let rec map_block f b = List.concat_map (map_stmt f) b

and map_stmt f s =
  let s =
    match s with
    | Sexpr _ | Sdecl _ | Sassign _ | Sreturn _ | Sbreak | Scontinue | Smarker _ -> s
    | Sif (c, bt, bf) -> Sif (c, map_block f bt, map_block f bf)
    | Swhile (c, b) -> Swhile (c, map_block f b)
    | Sfor (init, cond, step, b) -> Sfor (init, cond, step, map_block f b)
    | Sswitch (c, cases, dflt) ->
      Sswitch (c, List.map (fun (k, b) -> (k, map_block f b)) cases, map_block f dflt)
    | Sblock b -> Sblock (map_block f b)
  in
  f s

let markers_of_program prog =
  let acc = ref [] in
  iter_program_stmts (function Smarker n -> acc := n :: !acc | _ -> ()) prog;
  List.rev !acc

let stmt_count prog =
  let n = ref 0 in
  iter_program_stmts (fun _ -> incr n) prog;
  !n

let rec expr_size e =
  match e with
  | Int _ | Var _ -> 1
  | Unary (_, e1) | Deref e1 | Index (_, e1) -> 1 + expr_size e1
  | Binary (_, e1, e2) -> 1 + expr_size e1 + expr_size e2
  | Addr_of lv -> 1 + (match lv with Lvar _ -> 0 | Lderef e' | Lindex (_, e') -> expr_size e')
  | Call (_, args) -> List.fold_left (fun acc a -> acc + expr_size a) 1 args

(* ------------------------------------------------------------------ *)
(* structural hashing (content addressing for the reduction caches)    *)
(* ------------------------------------------------------------------ *)

(* A 62-bit FNV-1a-style fold over the full AST.  [Hashtbl.hash] cannot be
   used here: its default meaningful-node limit (10) would collapse every
   non-trivial program onto a handful of hash values.  Every constructor
   mixes a distinct tag, so values of different shapes hash apart; strings
   are mixed character by character.  Collisions remain possible (the caches
   built on these hashes double-check keys structurally) but are not
   engineered to be common. *)

let hash_seed = 0x1000_0001_b3

let mix h v = ((h lxor (v land max_int)) * 0x100_0000_01b3) land max_int

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let mix_bool h b = mix h (if b then 1 else 0)

let mix_typ h = function
  | Tint -> mix h 1
  | Tptr -> mix h 2
  | Tarr n -> mix (mix h 3) n

let rec mix_lvalue h = function
  | Lvar x -> mix_string (mix h 10) x
  | Lderef e -> mix_expr (mix h 11) e
  | Lindex (x, e) -> mix_expr (mix_string (mix h 12) x) e

and mix_expr h = function
  | Int n -> mix (mix h 20) n
  | Var x -> mix_string (mix h 21) x
  | Unary (op, e) -> mix_expr (mix (mix h 22) (Hashtbl.hash op)) e
  | Binary (op, e1, e2) -> mix_expr (mix_expr (mix (mix h 23) (Hashtbl.hash op)) e1) e2
  | Addr_of lv -> mix_lvalue (mix h 24) lv
  | Deref e -> mix_expr (mix h 25) e
  | Index (x, e) -> mix_expr (mix_string (mix h 26) x) e
  | Call (f, args) ->
    List.fold_left mix_expr (mix (mix_string (mix h 27) f) (List.length args)) args

let rec mix_stmt h = function
  | Sexpr e -> mix_expr (mix h 40) e
  | Sdecl (x, t, init) ->
    let h = mix_typ (mix_string (mix h 41) x) t in
    (match init with None -> mix h 0 | Some e -> mix_expr (mix h 1) e)
  | Sassign (lv, e) -> mix_expr (mix_lvalue (mix h 42) lv) e
  | Sif (c, bt, bf) -> mix_block (mix_block (mix_expr (mix h 43) c) bt) bf
  | Swhile (c, b) -> mix_block (mix_expr (mix h 44) c) b
  | Sfor (init, cond, step, b) ->
    let mix_opt_stmt h = function None -> mix h 0 | Some s -> mix_stmt (mix h 1) s in
    let h = mix_opt_stmt (mix h 45) init in
    let h = match cond with None -> mix h 0 | Some e -> mix_expr (mix h 1) e in
    mix_block (mix_opt_stmt h step) b
  | Sswitch (c, cases, dflt) ->
    let h = mix (mix_expr (mix h 46) c) (List.length cases) in
    mix_block (List.fold_left (fun h (k, b) -> mix_block (mix h k) b) h cases) dflt
  | Sreturn None -> mix h 47
  | Sreturn (Some e) -> mix_expr (mix h 48) e
  | Sbreak -> mix h 49
  | Scontinue -> mix h 50
  | Sblock b -> mix_block (mix h 51) b
  | Smarker n -> mix (mix h 52) n

and mix_block h b = List.fold_left mix_stmt (mix h (List.length b)) b

let mix_ginit h = function
  | Gzero -> mix h 60
  | Gint n -> mix (mix h 61) n
  | Gints ns -> List.fold_left mix (mix (mix h 62) (List.length ns)) ns
  | Gaddr (s, k) -> mix (mix_string (mix h 63) s) k

let mix_global h g =
  mix_bool (mix_ginit (mix_typ (mix_string (mix h 70) g.g_name) g.g_typ) g.g_init) g.g_static

let mix_func h fn =
  let h = mix_string (mix h 80) fn.f_name in
  let h =
    List.fold_left
      (fun h p -> mix_typ (mix_string h p.p_name) p.p_typ)
      (mix h (List.length fn.f_params))
      fn.f_params
  in
  let h = match fn.f_ret with None -> mix h 0 | Some t -> mix_typ (mix h 1) t in
  mix_block (mix_bool h fn.f_static) fn.f_body

let hash_func fn = mix_func hash_seed fn

let hash_program prog =
  let h = mix hash_seed (List.length prog.p_globals) in
  let h = List.fold_left mix_global h prog.p_globals in
  let h = List.fold_left (fun h fn -> mix h (hash_func fn)) (mix h (List.length prog.p_funcs)) prog.p_funcs in
  List.fold_left (fun h (name, arity) -> mix (mix_string h name) arity) (mix h 90) prog.p_externs

let called_names prog =
  let acc = ref [] in
  iter_program_exprs (function Call (name, _) -> acc := name :: !acc | _ -> ()) prog;
  let markers = ref [] in
  iter_program_stmts (function Smarker n -> markers := marker_name n :: !markers | _ -> ()) prog;
  List.rev !acc @ List.rev !markers

let find_func prog name = List.find_opt (fun f -> f.f_name = name) prog.p_funcs
