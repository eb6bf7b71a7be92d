open Dce_ir
open Ir
module Ops = Dce_minic.Ops

(* operands and labels are concatenated, not formatted: codegen runs once
   per configuration, and [Printf.sprintf] builds its format closures and
   a buffer on every call *)
let reg v = "%v" ^ string_of_int v

let operand = function
  | Const n -> "$" ^ string_of_int n
  | Reg v -> reg v

let block_label fn l = String.concat "" [ ".L"; fn.fn_name; "_"; string_of_int l ]

let mnemonic_of_binop = function
  | Ops.Add -> "addq"
  | Ops.Sub -> "subq"
  | Ops.Mul -> "imulq"
  | Ops.Div -> "idivq"
  | Ops.Mod -> "imodq" (* pseudo *)
  | Ops.Shl -> "shlq"
  | Ops.Shr -> "sarq"
  | Ops.Band -> "andq"
  | Ops.Bor -> "orq"
  | Ops.Bxor -> "xorq"
  | Ops.Eq -> "sete"
  | Ops.Ne -> "setne"
  | Ops.Lt -> "setl"
  | Ops.Le -> "setle"
  | Ops.Gt -> "setg"
  | Ops.Ge -> "setge"
  | Ops.Land -> "andq"
  | Ops.Lor -> "orq"

let rvalue_lines dst rv =
  match rv with
  | Op a -> [ Asm.Ins ("movq", [ operand a; dst ]) ]
  | Unary (Ops.Neg, a) -> [ Asm.Ins ("movq", [ operand a; dst ]); Asm.Ins ("negq", [ dst ]) ]
  | Unary (Ops.Bnot, a) -> [ Asm.Ins ("movq", [ operand a; dst ]); Asm.Ins ("notq", [ dst ]) ]
  | Unary (Ops.Lnot, a) ->
    [ Asm.Ins ("testq", [ operand a; operand a ]); Asm.Ins ("sete", [ dst ]) ]
  | Binary (op, a, b) when Ops.is_comparison op ->
    [ Asm.Ins ("cmpq", [ operand b; operand a ]); Asm.Ins (mnemonic_of_binop op, [ dst ]) ]
  | Binary (op, a, b) ->
    [
      Asm.Ins ("movq", [ operand a; dst ]);
      Asm.Ins (mnemonic_of_binop op, [ operand b; dst ]);
    ]
  | Addr (s, off) -> [ Asm.Ins ("leaq", [ String.concat "" [ s; "(,"; operand off; ",8)" ]; dst ]) ]
  | Ptradd (p, off) ->
    [
      Asm.Ins ("movq", [ operand p; dst ]);
      Asm.Ins ("leaq", [ String.concat "" [ "("; dst; ","; operand off; ",8)" ]; dst ]);
    ]
  | Load p -> [ Asm.Ins ("movq", [ "(" ^ operand p ^ ")"; dst ]) ]
  | Phi _ -> [] (* handled as moves in predecessors *)

let instr_lines i =
  match i with
  | Def (_, Phi _) -> []
  | Def (v, rv) -> rvalue_lines (reg v) rv
  | Store (p, v) -> [ Asm.Ins ("movq", [ operand v; "(" ^ operand p ^ ")" ]) ]
  | Call (res, name, args) ->
    let arg_moves =
      List.mapi (fun i a -> Asm.Ins ("movq", [ operand a; "%arg" ^ string_of_int i ])) args
    in
    let call = [ Asm.Ins ("callq", [ name ]) ] in
    let res_move =
      match res with
      | Some v -> [ Asm.Ins ("movq", [ "%rax"; reg v ]) ]
      | None -> []
    in
    arg_moves @ call @ res_move
  | Marker n -> [ Asm.Ins ("callq", [ Dce_minic.Ast.marker_name n ]) ]

(* moves realizing the phi assignments of [succ] along the edge [l -> succ] *)
let phi_moves fn l succ =
  match Imap.find_opt succ fn.fn_blocks with
  | None -> []
  | Some b ->
    List.filter_map
      (fun i ->
        match i with
        | Def (v, Phi args) -> (
          match List.assoc_opt l args with
          | Some a -> Some (Asm.Ins ("movq", [ operand a; reg v ]))
          | None -> None)
        | _ -> None)
      b.b_instrs

let terminator_lines fn l term =
  let moves_to target = phi_moves fn l target in
  match term with
  | Jmp target -> moves_to target @ [ Asm.Ins ("jmp", [ block_label fn target ]) ]
  | Br (c, lt, lf) ->
    (* phi moves must happen per edge; emit them before each jump *)
    moves_to lt @ moves_to lf
    @ [
        Asm.Ins ("testq", [ operand c; operand c ]);
        Asm.Ins ("jne", [ block_label fn lt ]);
        Asm.Ins ("jmp", [ block_label fn lf ]);
      ]
  | Switch (c, cases, dflt) ->
    List.concat_map
      (fun (k, target) ->
        moves_to target
        @ [
            Asm.Ins ("cmpq", [ "$" ^ string_of_int k; operand c ]);
            Asm.Ins ("je", [ block_label fn target ]);
          ])
      cases
    @ moves_to dflt
    @ [ Asm.Ins ("jmp", [ block_label fn dflt ]) ]
  | Ret None -> [ Asm.Ins ("retq", []) ]
  | Ret (Some a) -> [ Asm.Ins ("movq", [ operand a; "%rax" ]); Asm.Ins ("retq", []) ]

let func fn =
  let header =
    [ Asm.Directive ("globl " ^ fn.fn_name); Asm.Label fn.fn_name ]
  in
  let body =
    (* entry block first, then the rest in label order *)
    let entry = (fn.fn_entry, block fn fn.fn_entry) in
    let rest = Imap.bindings (Imap.remove fn.fn_entry fn.fn_blocks) in
    List.concat_map
      (fun (l, b) ->
        (Asm.Label (block_label fn l) :: List.concat_map instr_lines b.b_instrs)
        @ terminator_lines fn l b.b_term)
      (entry :: rest)
  in
  header @ body

let program prog =
  let data =
    List.concat_map
      (fun sym ->
        match sym.sym_kind with
        | `Global ->
          [ Asm.Directive (String.concat "" [ "data "; sym.sym_name; " size "; string_of_int sym.sym_size ]) ]
        | `Frame _ -> [])
      prog.prog_syms
  in
  { Asm.lines = data @ List.concat_map func prog.prog_funcs }
