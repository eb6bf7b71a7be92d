open Dce_ir
open Ir
module Ops = Dce_minic.Ops

type addr_cmp = Cmp_none | Cmp_zero_only | Cmp_full

type config = { addr_cmp : addr_cmp; gva_mode : Gva.mode }

let default_config = { addr_cmp = Cmp_full; gva_mode = Gva.Flow_insensitive }

(* cost cap: functions with more blocks are left alone *)
let block_limit = 512

(* lattice: Top (optimistically undefined) > constants > Bot *)
type lat = Top | Cint of int | Cptr of string * int | Bot

let join a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bot, _ | _, Bot -> Bot
  | Cint x, Cint y -> if x = y then a else Bot
  | Cptr (s1, o1), Cptr (s2, o2) -> if s1 = s2 && o1 = o2 then a else Bot
  | Cint _, Cptr _ | Cptr _, Cint _ -> Bot

let truthy_lat = function
  | Cint n -> Some (n <> 0)
  | Cptr _ -> Some true
  | Top | Bot -> None

let run config info fn =
  if Imap.cardinal fn.fn_blocks > block_limit then fn
  else begin
    let lat = Regtab.create fn.fn_next_var Top in
    List.iter (fun p -> Regtab.set lat p Bot) fn.fn_params;
    (* executable blocks, and each block's executable successor edges *)
    let block_exec = Regtab.create fn.fn_next_label false in
    let edge_exec = Regtab.create fn.fn_next_label [] in
    let edge_executable src dst = List.exists (Int.equal dst) (Regtab.get edge_exec src) in
    let operand_lat = function
      | Const n -> Cint n
      | Reg v -> Regtab.get lat v
    in
    let eval_binary op a b =
      match (op, a, b) with
      | _, Top, _ | _, _, Top -> Top
      | _, Cint x, Cint y -> Cint (Ops.eval_binop op x y)
      | (Ops.Eq | Ops.Ne), Cptr (s1, o1), Cptr (s2, o2) -> (
        let fold_ok =
          match config.addr_cmp with
          | Cmp_none -> false
          | Cmp_zero_only -> o1 = 0 && o2 = 0
          | Cmp_full -> true
        in
        if not fold_ok then Bot
        else
          let eq = s1 = s2 && o1 = o2 in
          match op with
          | Ops.Eq -> Cint (if eq then 1 else 0)
          | _ -> Cint (if eq then 0 else 1))
      | (Ops.Eq | Ops.Ne), Cptr _, Cint _ | (Ops.Eq | Ops.Ne), Cint _, Cptr _ ->
        (* symbol addresses are never null / never equal an integer *)
        if config.addr_cmp = Cmp_none then Bot
        else Cint (match op with Ops.Eq -> 0 | _ -> 1)
      | (Ops.Lt | Ops.Le | Ops.Gt | Ops.Ge), Cptr (s1, o1), Cptr (s2, o2) when s1 = s2 ->
        if config.addr_cmp = Cmp_none then Bot
        else Cint (Ops.eval_binop op o1 o2)
      | Ops.Add, Cptr (s, o), Cint k | Ops.Add, Cint k, Cptr (s, o) -> Cptr (s, o + k)
      | Ops.Sub, Cptr (s, o), Cint k -> Cptr (s, o - k)
      | Ops.Sub, Cptr (s1, o1), Cptr (s2, o2) when s1 = s2 -> Cint (o1 - o2)
      | (Ops.Land | Ops.Lor), x, y -> (
        match (truthy_lat x, truthy_lat y) with
        | Some bx, Some by ->
          Cint (Ops.eval_binop op (if bx then 1 else 0) (if by then 1 else 0))
        | Some true, None when op = Ops.Lor -> Cint 1
        | None, Some true when op = Ops.Lor -> Cint 1
        | Some false, None when op = Ops.Land -> Cint 0
        | None, Some false when op = Ops.Land -> Cint 0
        | _ -> Bot)
      | _ -> Bot
    in
    let eval_rvalue l rv =
      match rv with
      | Op a -> operand_lat a
      | Unary (op, a) -> (
        match operand_lat a with
        | Top -> Top
        | Cint x -> Cint (Ops.eval_unop op x)
        | Cptr _ -> (
          match op with
          | Ops.Lnot -> Cint 0 (* addresses are truthy *)
          | Ops.Neg | Ops.Bnot -> Bot)
        | Bot -> Bot)
      | Binary (op, a, b) -> eval_binary op (operand_lat a) (operand_lat b)
      | Addr (s, off) -> (
        match operand_lat off with
        | Top -> Top
        | Cint k -> Cptr (s, k)
        | Cptr _ | Bot -> Bot)
      | Ptradd (p, off) -> (
        match (operand_lat p, operand_lat off) with
        | Top, _ | _, Top -> Top
        | Cptr (s, o), Cint k -> Cptr (s, o + k)
        | _ -> Bot)
      | Load p -> (
        match operand_lat p with
        | Top -> Top
        | Cptr (s, k) -> (
          match Gva.foldable_cell config.gva_mode info s k with
          | Some (Ir.Cint n) -> Cint n
          | Some (Ir.Caddr (s', o')) -> Cptr (s', o')
          | None -> Bot)
        | Cint _ | Bot -> Bot)
      | Phi args ->
        List.fold_left
          (fun acc (pred, a) ->
            if edge_executable pred l then join acc (operand_lat a) else acc)
          Top args
    in
    let feasible_succs term =
      match term with
      | Jmp l -> [ l ]
      | Br (c, lt, lf) -> (
        match truthy_lat (operand_lat c) with
        | Some true -> [ lt ]
        | Some false -> [ lf ]
        | None -> if operand_lat c = Top then [] else [ lt; lf ])
      | Switch (c, cases, dflt) -> (
        match operand_lat c with
        | Cint k -> [ Option.value ~default:dflt (List.assoc_opt k cases) ]
        | Top -> []
        | Cptr _ | Bot -> List.map snd cases @ [ dflt ])
      | Ret _ -> []
    in
    (* chaotic iteration over executable blocks until stable *)
    Regtab.set block_exec fn.fn_entry true;
    let changed = ref true in
    while !changed do
      changed := false;
      Imap.iter
        (fun l b ->
          if Regtab.get block_exec l then begin
            List.iter
              (fun i ->
                match i with
                | Def (v, rv) ->
                  let old = Regtab.get lat v in
                  let nv = join old (eval_rvalue l rv) in
                  if nv <> old then begin
                    Regtab.set lat v nv;
                    changed := true
                  end
                | Call (Some v, _, _) ->
                  if Regtab.get lat v <> Bot then begin
                    Regtab.set lat v Bot;
                    changed := true
                  end
                | Call (None, _, _) | Store _ | Marker _ -> ())
              b.b_instrs;
            List.iter
              (fun s ->
                if not (edge_executable l s) then begin
                  Regtab.set edge_exec l (s :: Regtab.get edge_exec l);
                  changed := true
                end;
                if not (Regtab.get block_exec s) then begin
                  Regtab.set block_exec s true;
                  changed := true
                end)
              (feasible_succs b.b_term)
          end)
        fn.fn_blocks
    done;
    (* rewrite: fold constant defs and constant branches *)
    let rewrite_instr i =
      match i with
      | Def (v, rv) -> (
        match Regtab.get lat v with
        | Cint k -> ( match rv with Op (Const k') when k' = k -> i | _ -> Def (v, Op (Const k)))
        | Cptr (s, o) -> (
          match rv with
          | Addr (_, Const _) -> i (* already an address constant *)
          | _ -> Def (v, Addr (s, Const o)))
        | Top | Bot -> i)
      | Store _ | Call _ | Marker _ -> i
    in
    let rewrite_term term =
      match term with
      | Br (c, lt, lf) -> (
        match truthy_lat (operand_lat c) with
        | Some true -> Jmp lt
        | Some false -> Jmp lf
        | None -> term)
      | Switch (c, cases, dflt) -> (
        match operand_lat c with
        | Cint k -> Jmp (Option.value ~default:dflt (List.assoc_opt k cases))
        | _ -> term)
      | Jmp _ | Ret _ -> term
    in
    let fn =
      map_blocks
        (fun _ b ->
          with_term
            (with_instrs b (Dce_support.Listx.map_shared rewrite_instr b.b_instrs))
            (rewrite_term b.b_term))
        fn
    in
    (* folded branches removed edges: restore the phi/CFG invariant *)
    Cfg.prune_phi_args fn
  end
