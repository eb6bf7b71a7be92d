type label = int
type var = int

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

module Bset = Set.Make (struct
  type t = string * int

  let compare = compare
end)

type operand = Const of int | Reg of var

type rvalue =
  | Op of operand
  | Unary of Dce_minic.Ops.unop * operand
  | Binary of Dce_minic.Ops.binop * operand * operand
  | Addr of string * operand
  | Ptradd of operand * operand
  | Load of operand
  | Phi of (label * operand) list

type instr =
  | Def of var * rvalue
  | Store of operand * operand
  | Call of var option * string * operand list
  | Marker of int

type terminator =
  | Jmp of label
  | Br of operand * label * label
  | Switch of operand * (int * label) list * label
  | Ret of operand option

type block = { b_instrs : instr list; b_term : terminator }

type func = {
  fn_name : string;
  fn_params : var list;
  fn_entry : label;
  fn_blocks : block Imap.t;
  fn_next_var : int;
  fn_next_label : int;
  fn_var_names : string Imap.t;
  fn_static : bool;
  fn_returns_value : bool;
}

type init_cell = Cint of int | Caddr of string * int

type symbol = {
  sym_name : string;
  sym_size : int;
  sym_init : init_cell array;
  sym_static : bool;
  sym_kind : [ `Global | `Frame of string ];
}

type program = {
  prog_syms : symbol list;
  prog_funcs : func list;
  prog_externs : (string * int) list;
}

let block fn l = Imap.find l fn.fn_blocks

let find_symbol prog name = List.find_opt (fun s -> s.sym_name = name) prog.prog_syms
let find_func prog name = List.find_opt (fun f -> f.fn_name = name) prog.prog_funcs

let successors = function
  | Jmp l -> [ l ]
  | Br (_, lt, lf) -> if lt = lf then [ lt ] else [ lt; lf ]
  | Switch (_, cases, dflt) ->
    let targets = List.map snd cases @ [ dflt ] in
    List.sort_uniq compare targets
  | Ret _ -> []

let map_func f prog =
  let funcs = Dce_support.Listx.map_shared f prog.prog_funcs in
  if funcs == prog.prog_funcs then prog else { prog with prog_funcs = funcs }

(* [Imap.add] over an existing key keeps the tree's shape, so the result is
   structurally what [Imap.mapi] would build, and physically the input when
   [f] changes nothing *)
let map_blocks f fn =
  let blocks =
    Imap.fold
      (fun l b acc ->
        let b' = f l b in
        if b' == b then acc else Imap.add l b' acc)
      fn.fn_blocks fn.fn_blocks
  in
  if blocks == fn.fn_blocks then fn else { fn with fn_blocks = blocks }

let with_instrs b instrs = if instrs == b.b_instrs then b else { b with b_instrs = instrs }
let with_term b term = if term == b.b_term then b else { b with b_term = term }

let update_func prog fn =
  {
    prog with
    prog_funcs = List.map (fun f -> if f.fn_name = fn.fn_name then fn else f) prog.prog_funcs;
  }

let operands_of_rvalue = function
  | Op a | Unary (_, a) | Load a | Addr (_, a) -> [ a ]
  | Binary (_, a, b) | Ptradd (a, b) -> [ a; b ]
  | Phi args -> List.map snd args

let operands_of_instr = function
  | Def (_, rv) -> operands_of_rvalue rv
  | Store (a, v) -> [ a; v ]
  | Call (_, _, args) -> args
  | Marker _ -> []

let operands_of_terminator = function
  | Jmp _ -> []
  | Br (c, _, _) -> [ c ]
  | Switch (c, _, _) -> [ c ]
  | Ret None -> []
  | Ret (Some a) -> [ a ]

let regs_of ops = List.filter_map (function Reg v -> Some v | Const _ -> None) ops

let uses_of_instr i = regs_of (operands_of_instr i)
let uses_of_terminator t = regs_of (operands_of_terminator t)

let def_of_instr = function
  | Def (v, _) -> Some v
  | Call (res, _, _) -> res
  | Store _ | Marker _ -> None

(* The mappers return their argument itself when [f] returns every operand
   itself, so a rewrite that changes nothing allocates nothing and stays
   physically shared.  Operands are mapped in the order the plain
   constructor applications these replaced evaluated them. *)
let map_rvalue_operands f rv =
  match rv with
  | Op a ->
    let a' = f a in
    if a' == a then rv else Op a'
  | Unary (op, a) ->
    let a' = f a in
    if a' == a then rv else Unary (op, a')
  | Binary (op, a, b) ->
    let b' = f b in
    let a' = f a in
    if a' == a && b' == b then rv else Binary (op, a', b')
  | Addr (s, a) ->
    let a' = f a in
    if a' == a then rv else Addr (s, a')
  | Ptradd (a, b) ->
    let b' = f b in
    let a' = f a in
    if a' == a && b' == b then rv else Ptradd (a', b')
  | Load a ->
    let a' = f a in
    if a' == a then rv else Load a'
  | Phi args ->
    let args' =
      Dce_support.Listx.map_shared
        (fun ((l, a) as arg) ->
          let a' = f a in
          if a' == a then arg else (l, a'))
        args
    in
    if args' == args then rv else Phi args'

let map_instr_operands f i =
  match i with
  | Def (v, rv) ->
    let rv' = map_rvalue_operands f rv in
    if rv' == rv then i else Def (v, rv')
  | Store (a, v) ->
    let v' = f v in
    let a' = f a in
    if a' == a && v' == v then i else Store (a', v')
  | Call (res, name, args) ->
    let args' = Dce_support.Listx.map_shared f args in
    if args' == args then i else Call (res, name, args')
  | Marker _ -> i

let map_terminator_operands f t =
  match t with
  | Jmp _ | Ret None -> t
  | Br (c, lt, lf) ->
    let c' = f c in
    if c' == c then t else Br (c', lt, lf)
  | Switch (c, cases, dflt) ->
    let c' = f c in
    if c' == c then t else Switch (c', cases, dflt)
  | Ret (Some a) ->
    let a' = f a in
    if a' == a then t else Ret (Some a')

let map_terminator_labels f = function
  | Jmp l -> Jmp (f l)
  | Br (c, lt, lf) -> Br (c, f lt, f lf)
  | Switch (c, cases, dflt) -> Switch (c, List.map (fun (k, l) -> (k, f l)) cases, f dflt)
  | Ret r -> Ret r

let instr_count fn =
  Imap.fold (fun _ b acc -> acc + List.length b.b_instrs + 1) fn.fn_blocks 0

let block_count fn = Imap.cardinal fn.fn_blocks

let iter_instrs f fn =
  Imap.iter (fun l b -> List.iter (fun i -> f l i) b.b_instrs) fn.fn_blocks

let fresh_var fn = ({ fn with fn_next_var = fn.fn_next_var + 1 }, fn.fn_next_var)
let fresh_label fn = ({ fn with fn_next_label = fn.fn_next_label + 1 }, fn.fn_next_label)

let called_names fn =
  let acc = ref [] in
  iter_instrs (fun _ i -> match i with Call (_, name, _) -> acc := name :: !acc | _ -> ()) fn;
  List.rev !acc

let marker_ids fn =
  let acc = ref [] in
  iter_instrs (fun _ i -> match i with Marker n -> acc := n :: !acc | _ -> ()) fn;
  List.rev !acc

let program_marker_ids prog = List.concat_map marker_ids prog.prog_funcs
