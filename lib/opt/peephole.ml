open Dce_ir
open Ir
module Ops = Dce_minic.Ops

type config = { level : int }

let default_config = { level = 3 }

(* Note on pointers: MiniC's total semantics make every rule below valid for
   pointer values too — pointer/int comparisons are always false, pointer
   addition is offset arithmetic, the pointer order is total and reflexive,
   and rewrites never delete the (possibly trapping) defining instruction of
   an operand, only re-express a later use. *)

let rule_level1 dt v rv =
  ignore v;
  match rv with
  | Binary (Ops.Add, x, Const 0) | Binary (Ops.Add, Const 0, x) -> Some (Op x)
  | Binary (Ops.Sub, x, Const 0) -> Some (Op x)
  | Binary (Ops.Mul, x, Const 1) | Binary (Ops.Mul, Const 1, x) -> Some (Op x)
  | Binary (Ops.Mul, _, Const 0) | Binary (Ops.Mul, Const 0, _) -> Some (Op (Const 0))
  | Binary (Ops.Div, x, Const 1) -> Some (Op x)
  | Binary (Ops.Mod, _, Const 1) -> Some (Op (Const 0))
  | Binary (Ops.Band, _, Const 0) | Binary (Ops.Band, Const 0, _) -> Some (Op (Const 0))
  | Binary (Ops.Bor, x, Const 0) | Binary (Ops.Bor, Const 0, x) -> Some (Op x)
  | Binary (Ops.Bxor, x, Const 0) | Binary (Ops.Bxor, Const 0, x) -> Some (Op x)
  | Binary ((Ops.Shl | Ops.Shr), x, Const 0) -> Some (Op x)
  | Binary (Ops.Sub, Reg a, Reg b) when a = b -> Some (Op (Const 0))
  | Binary (Ops.Bxor, Reg a, Reg b) when a = b -> Some (Op (Const 0))
  | Binary ((Ops.Band | Ops.Bor), Reg a, Reg b) when a = b -> Some (Op (Reg a))
  | Binary (Ops.Eq, Reg a, Reg b) when a = b -> Some (Op (Const 1))
  | Binary (Ops.Ne, Reg a, Reg b) when a = b -> Some (Op (Const 0))
  | Binary (Ops.Lt, Reg a, Reg b) when a = b -> Some (Op (Const 0))
  | Binary (Ops.Gt, Reg a, Reg b) when a = b -> Some (Op (Const 0))
  | Binary (Ops.Le, Reg a, Reg b) when a = b -> Some (Op (Const 1))
  | Binary (Ops.Ge, Reg a, Reg b) when a = b -> Some (Op (Const 1))
  | Unary (Ops.Neg, Reg a) -> (
    match Meminfo.def_rvalue_resolved dt a with
    | Some (Unary (Ops.Neg, inner)) -> Some (Op inner)
    | _ -> None)
  | Unary (Ops.Bnot, Reg a) -> (
    match Meminfo.def_rvalue_resolved dt a with
    | Some (Unary (Ops.Bnot, inner)) -> Some (Op inner)
    | _ -> None)
  | Ptradd (p, Const 0) -> Some (Op p)
  | _ -> None

let is_boolean dt op =
  match op with
  | Const (0 | 1) -> true
  | Const _ -> false
  | Reg v -> (
    match Meminfo.def_rvalue_resolved dt v with
    | Some (Binary (op', _, _)) -> Ops.is_comparison op' || Ops.is_logical op'
    | Some (Unary (Ops.Lnot, _)) -> true
    | _ -> false)

let rule_level2 dt v rv =
  ignore v;
  match rv with
  (* (x op c1) op c2 → x op (c1 op c2) for associative-commutative chains *)
  | Binary ((Ops.Add | Ops.Mul | Ops.Band | Ops.Bor | Ops.Bxor) as op, Reg a, Const c2) -> (
    match Meminfo.def_rvalue_resolved dt a with
    | Some (Binary (op', x, Const c1)) when op' = op ->
      Some (Binary (op, x, Const (Ops.eval_binop op c1 c2)))
    | _ -> None)
  (* cmp != 0 → cmp;  cmp == 0 → !cmp as negated comparison *)
  | Binary (Ops.Ne, Reg a, Const 0) when is_boolean dt (Reg a) -> Some (Op (Reg a))
  | Binary (Ops.Eq, Reg a, Const 0) -> (
    match Meminfo.def_rvalue_resolved dt a with
    | Some (Binary (cmp, x, y)) when Ops.is_comparison cmp -> (
      match Ops.negate_comparison cmp with
      | Some neg -> Some (Binary (neg, x, y))
      | None -> None)
    | _ -> None)
  (* !cmp → negated comparison; !!x → x != 0 *)
  | Unary (Ops.Lnot, Reg a) -> (
    match Meminfo.def_rvalue_resolved dt a with
    | Some (Binary (cmp, x, y)) when Ops.is_comparison cmp -> (
      match Ops.negate_comparison cmp with
      | Some neg -> Some (Binary (neg, x, y))
      | None -> None)
    | Some (Unary (Ops.Lnot, inner)) when is_boolean dt inner -> Some (Op inner)
    | _ -> None)
  | _ -> None

let rule_level3 dt v rv =
  ignore v;
  match rv with
  (* (x + c1) cmp (x + c2): both sides offset the same value, so the
     comparison is decided by the constants (wrap-around safe for Eq/Ne) *)
  | Binary ((Ops.Eq | Ops.Ne) as cmp, Reg a, Reg b) -> (
    match (Meminfo.def_rvalue_resolved dt a, Meminfo.def_rvalue_resolved dt b) with
    | Some (Binary (Ops.Add, x1, Const c1)), Some (Binary (Ops.Add, x2, Const c2)) when x1 = x2
      -> Some (Op (Const (Ops.eval_binop cmp c1 c2)))
    | Some (Binary (Ops.Bxor, x1, Const c1)), Some (Binary (Ops.Bxor, x2, Const c2))
      when x1 = x2 ->
      Some (Op (Const (Ops.eval_binop cmp c1 c2)))
    | _ -> None)
  (* x + c1 cmp c2 → x cmp c2 - c1 (wrap-around safe for Eq/Ne only) *)
  | Binary ((Ops.Eq | Ops.Ne) as cmp, Reg a, Const c2) -> (
    match Meminfo.def_rvalue_resolved dt a with
    | Some (Binary (Ops.Add, x, Const c1)) -> Some (Binary (cmp, x, Const (c2 - c1)))
    | Some (Binary (Ops.Sub, x, Const c1)) -> Some (Binary (cmp, x, Const (c2 + c1)))
    | Some (Binary (Ops.Bxor, x, Const c1)) when c1 >= 0 ->
      (* xor on a pointer traps before the compare either way *)
      Some (Binary (cmp, x, Const (c2 lxor c1)))
    | _ -> None)
  (* x * 2^k == 0 → x == 0 is unsound on wrap-around; but x << c != 0 is not
     a peephole rule here (it is Vrp's shift rule) *)
  | _ -> None

let run config fn =
  let changed = ref true in
  let rounds = ref 0 in
  let fn = ref fn in
  while !changed && !rounds < 8 do
    changed := false;
    incr rounds;
    let dt = Meminfo.deftab !fn in
    let rewrite rv v =
      let try_rules () =
        let r1 = if config.level >= 1 then rule_level1 dt v rv else None in
        match r1 with
        | Some _ -> r1
        | None -> (
          let r2 = if config.level >= 2 then rule_level2 dt v rv else None in
          match r2 with
          | Some _ -> r2
          | None -> if config.level >= 3 then rule_level3 dt v rv else None)
      in
      match try_rules () with
      | Some rv' when rv' <> rv ->
        changed := true;
        rv'
      | _ -> rv
    in
    let rewrite_instr i =
      match i with
      | Def (v, rv) ->
        let rv' = rewrite rv v in
        if rv' == rv then i else Def (v, rv')
      | _ -> i
    in
    fn :=
      map_blocks
        (fun _ b -> with_instrs b (Dce_support.Listx.map_shared rewrite_instr b.b_instrs))
        !fn
  done;
  !fn
