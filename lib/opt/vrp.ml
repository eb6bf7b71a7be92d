open Dce_ir
open Ir
module Ops = Dce_minic.Ops

type config = { shift_rule : bool; mod_singleton : bool; block_limit : int }

let default_config = { shift_rule = true; mod_singleton = true; block_limit = 512 }

(* intervals [lo, hi]; min_int/max_int act as infinities *)
type range = { lo : int; hi : int }

let full = { lo = min_int; hi = max_int }
let singleton k = { lo = k; hi = k }
let is_singleton r = r.lo = r.hi && r.lo > min_int && r.hi < max_int
let bool_range = { lo = 0; hi = 1 }

let sat_add a b =
  if a = min_int || b = min_int then min_int
  else if a = max_int || b = max_int then max_int
  else
    let s = a + b in
    (* overflow check *)
    if a > 0 && b > 0 && s < 0 then max_int else if a < 0 && b < 0 && s >= 0 then min_int else s

let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let range_add a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let range_sub a b = { lo = sat_add a.lo (if b.hi = max_int then min_int else -b.hi);
                      hi = sat_add a.hi (if b.lo = min_int then max_int else -b.lo) }

let small r = r.lo > -1048576 && r.hi < 1048576

let range_mul a b =
  if small a && small b then
    let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
    { lo = List.fold_left min max_int products; hi = List.fold_left max min_int products }
  else full

let range_of_binop config op a b =
  match op with
  | Ops.Add -> range_add a b
  | Ops.Sub -> range_sub a b
  | Ops.Mul -> range_mul a b
  | Ops.Div ->
    if is_singleton a && is_singleton b then singleton (Ops.eval_binop op a.lo b.lo)
    else if a.lo >= 0 && b.lo >= 1 then { lo = 0; hi = a.hi }
    else full
  | Ops.Mod ->
    if config.mod_singleton && is_singleton a && is_singleton b then
      singleton (Ops.eval_binop op a.lo b.lo)
    else if is_singleton b && b.lo > 0 then
      if a.lo >= 0 then { lo = 0; hi = b.lo - 1 } else { lo = -(b.lo - 1); hi = b.lo - 1 }
    else full
  | Ops.Shl ->
    if is_singleton a && is_singleton b then singleton (Ops.eval_binop op a.lo b.lo)
    else if a.lo >= 0 && small a && b.lo >= 0 && b.hi <= 20 then
      { lo = 0; hi = a.hi lsl min 20 (max 0 b.hi) }
    else full
  | Ops.Shr ->
    if is_singleton a && is_singleton b then singleton (Ops.eval_binop op a.lo b.lo)
    else if a.lo >= 0 then { lo = 0; hi = a.hi }
    else full
  | Ops.Band ->
    if is_singleton a && is_singleton b then singleton (a.lo land b.lo)
    else if b.lo >= 0 && b.hi < max_int then { lo = 0; hi = b.hi }
    else if a.lo >= 0 && a.hi < max_int then { lo = 0; hi = a.hi }
    else full
  | Ops.Bor | Ops.Bxor ->
    if is_singleton a && is_singleton b then singleton (Ops.eval_binop op a.lo b.lo)
    else if a.lo >= 0 && a.hi < max_int && b.lo >= 0 && b.hi < max_int then
      (* bitwise of nonnegatives stays below the next power of two *)
      let bound m =
        let rec up p = if p > m && p > 0 then p else up (p * 2) in
        up 1 - 1
      in
      { lo = 0; hi = bound (max a.hi b.hi) }
    else full
  | Ops.Eq | Ops.Ne | Ops.Lt | Ops.Le | Ops.Gt | Ops.Ge | Ops.Land | Ops.Lor -> bool_range

(* decide a comparison from operand ranges, if possible *)
let decide_cmp op a b =
  match op with
  | Ops.Eq ->
    if a.hi < b.lo || b.hi < a.lo then Some 0
    else if is_singleton a && is_singleton b && a.lo = b.lo then Some 1
    else None
  | Ops.Ne ->
    if a.hi < b.lo || b.hi < a.lo then Some 1
    else if is_singleton a && is_singleton b && a.lo = b.lo then Some 0
    else None
  | Ops.Lt -> if a.hi < b.lo then Some 1 else if a.lo >= b.hi then Some 0 else None
  | Ops.Le -> if a.hi <= b.lo then Some 1 else if a.lo > b.hi then Some 0 else None
  | Ops.Gt -> if a.lo > b.hi then Some 1 else if a.hi <= b.lo then Some 0 else None
  | Ops.Ge -> if a.lo >= b.hi then Some 1 else if a.hi < b.lo then Some 0 else None
  | _ -> None

type analysis = {
  base : range Regtab.t;
  dt : Meminfo.deftab;
}

let operand_range an refin = function
  | Const k -> singleton k
  | Reg v -> (
    let r = Regtab.get an.base v in
    match Imap.find_opt v refin with
    | Some r' -> ( match meet r r' with Some m -> m | None -> r')
    | None -> r)

let compute_base config fn =
  let base = Regtab.create fn.fn_next_var full in
  let dt = Meminfo.deftab fn in
  let an = { base; dt } in
  let rpo = Cfg.reverse_postorder fn in
  (* a few optimistic rounds; then whatever is still changing goes to full *)
  for round = 1 to 4 do
    List.iter
      (fun l ->
        List.iter
          (fun i ->
            match i with
            | Def (v, rv) ->
              let r =
                match rv with
                | Op a -> operand_range an Imap.empty a
                | Unary (Ops.Neg, a) ->
                  let ra = operand_range an Imap.empty a in
                  range_sub (singleton 0) ra
                | Unary (Ops.Lnot, _) -> bool_range
                | Unary (Ops.Bnot, _) -> full
                | Binary (op, a, b) ->
                  range_of_binop config op (operand_range an Imap.empty a)
                    (operand_range an Imap.empty b)
                | Phi args ->
                  (* optimistic first round: join of already-known args *)
                  List.fold_left
                    (fun acc (_, a) -> join acc (operand_range an Imap.empty a))
                    (operand_range an Imap.empty (snd (List.hd args)))
                    (List.tl args)
                | Load _ | Addr _ | Ptradd _ -> full
              in
              if round < 4 then Regtab.set base v r
              else if Regtab.get base v <> r then
                Regtab.set base v full (* widen what is unstable *)
            | _ -> ())
          (block fn l).b_instrs)
      rpo
  done;
  an

(* constraints from a dominating condition: returns refinements var -> range *)
let refine_from_condition config an cond_var holds refin =
  let add v r refin =
    match Imap.find_opt v refin with
    | Some existing -> (
      match meet existing r with
      | Some m -> Imap.add v m refin
      | None -> Imap.add v existing refin)
    | None -> Imap.add v r refin
  in
  (* the condition register itself: zero or nonzero *)
  let refin =
    if holds then refin (* nonzero: not representable as one interval in general *)
    else add cond_var (singleton 0) refin
  in
  match Meminfo.def_rvalue_resolved an.dt cond_var with
  | Some (Binary (cmp, Reg x, Const k)) when Ops.is_comparison cmp ->
    let cmp = if holds then Some cmp else Ops.negate_comparison cmp in
    (match cmp with
     | Some Ops.Eq -> add x (singleton k) refin
     | Some Ops.Ne -> refin
     | Some Ops.Lt -> add x { lo = min_int; hi = k - 1 } refin
     | Some Ops.Le -> add x { lo = min_int; hi = k } refin
     | Some Ops.Gt -> add x { lo = k + 1; hi = max_int } refin
     | Some Ops.Ge -> add x { lo = k; hi = max_int } refin
     | _ -> refin)
  | Some (Binary (cmp, Const k, Reg x)) when Ops.is_comparison cmp ->
    let cmp' = Option.bind (Some cmp) Ops.swap_comparison in
    let cmp' = if holds then cmp' else Option.bind cmp' Ops.negate_comparison in
    (match cmp' with
     | Some Ops.Eq -> add x (singleton k) refin
     | Some Ops.Lt -> add x { lo = min_int; hi = k - 1 } refin
     | Some Ops.Le -> add x { lo = min_int; hi = k } refin
     | Some Ops.Gt -> add x { lo = k + 1; hi = max_int } refin
     | Some Ops.Ge -> add x { lo = k; hi = max_int } refin
     | _ -> refin)
  | Some (Binary (Ops.Shl, Reg x, _)) when holds && config.shift_rule ->
    (* cond = x << y and cond != 0 holds: then x != 0; usable when x >= 0 *)
    let cur = Regtab.get an.base x in
    if cur.lo >= 0 then add x { lo = max 1 cur.lo; hi = cur.hi } refin else refin
  | _ -> refin

(* refinements valid at block l, from dominating single-pred branch edges *)
let refinements_at config an fn dom preds l =
  let rec walk cur refin =
    match Dom.idom dom cur with
    | None -> refin
    | Some parent ->
      let refin =
        (* cur is entered only from parent on one branch edge? *)
        match Imap.find_opt cur preds with
        | Some [ p ] -> (
          match (block fn p).b_term with
          | Br (Reg c, lt, lf) when lt <> lf ->
            if lt = cur then refine_from_condition config an c true refin
            else if lf = cur then refine_from_condition config an c false refin
            else refin
          | _ -> refin)
        | _ -> refin
      in
      walk parent refin
  in
  walk l Imap.empty

let run ?dom ?preds config fn =
  if Imap.cardinal fn.fn_blocks > config.block_limit then fn
  else begin
    let an = compute_base config fn in
    let dom = match dom with Some f -> f () | None -> Dom.compute fn in
    let preds = match preds with Some f -> f () | None -> Cfg.predecessors fn in
    let reach = Cfg.reachable fn in
    let changed = ref false in
    let fn' =
      map_blocks
        (fun l b ->
          if not (Iset.mem l reach) then b
          else begin
            let refin = refinements_at config an fn dom preds l in
            (* same-block definitions recomputed with refined operand ranges,
               so "if (g == 2) { ... g % 5 ... }" sees g as the singleton 2 *)
            let local : (var, range) Hashtbl.t = Hashtbl.create 8 in
            let rng op =
              match op with
              | Reg v when Hashtbl.mem local v -> Hashtbl.find local v
              | _ -> operand_range an refin op
            in
            let note v r =
              match meet (Regtab.get an.base v) r with
              | Some m -> Hashtbl.replace local v m
              | None -> Hashtbl.replace local v r
            in
            let instrs =
              Dce_support.Listx.map_shared
                (fun i ->
                  match i with
                  | Def (v, Binary (cmp, a, b')) when Ops.is_comparison cmp -> (
                    match decide_cmp cmp (rng a) (rng b') with
                    | Some k ->
                      changed := true;
                      note v (singleton k);
                      Def (v, Op (Const k))
                    | None -> i)
                  | Def (v, Binary (op, a, b')) ->
                    note v (range_of_binop config op (rng a) (rng b'));
                    i
                  | Def (v, Op a) ->
                    note v (rng a);
                    i
                  | _ -> i)
                b.b_instrs
            in
            let term =
              match b.b_term with
              | Br (c, lt, lf) -> (
                let r = rng c in
                if r.lo > 0 || r.hi < 0 then begin
                  changed := true;
                  Jmp lt
                end
                else if is_singleton r && r.lo = 0 then begin
                  changed := true;
                  Jmp lf
                end
                else b.b_term)
              | t -> t
            in
            with_term (with_instrs b instrs) term
          end)
        fn
    in
    if !changed then Cfg.prune_phi_args fn' else fn
  end
