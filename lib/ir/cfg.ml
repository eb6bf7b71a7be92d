open Ir

(* One pass over the blocks from the highest label down: consing each block
   onto its successors' lists leaves every list ascending, and [successors]
   names a target once, so no list repeats a predecessor.  An edge past the
   highest block is dangling (Validate reports it) and is skipped, which
   also bounds the table; one to a missing label below it is recorded but
   never read. *)
let predecessors fn =
  let last = match Imap.max_binding_opt fn.fn_blocks with Some (l, _) -> l | None -> -1 in
  let tab = Regtab.create (last + 1) [] in
  Seq.iter
    (fun (l, b) ->
      List.iter
        (fun succ -> if succ >= 0 && succ <= last then Regtab.set tab succ (l :: Regtab.get tab succ))
        (successors b.b_term))
    (Imap.to_rev_seq fn.fn_blocks);
  Imap.mapi (fun l _ -> Regtab.get tab l) fn.fn_blocks

let postorder fn =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      (match Imap.find_opt l fn.fn_blocks with
       | Some b -> List.iter dfs (successors b.b_term)
       | None -> ());
      order := l :: !order
    end
  in
  dfs fn.fn_entry;
  List.rev !order

let reverse_postorder fn = List.rev (postorder fn)

let reachable fn = List.fold_left (fun acc l -> Iset.add l acc) Iset.empty (postorder fn)

let is_phi = function Def (_, Phi _) -> true | _ -> false

(* converting some phis to copies can interleave copies among phis; restore
   the phis-first prefix (a stable partition, so relative orders survive).
   Moving a converted copy below the remaining phis is semantically neutral:
   its operand is a predecessor-end value, which no phi of this block can
   redefine under SSA.  A block already in order is returned itself. *)
let normalize_phi_prefix b =
  let rec phis_first = function
    | [] -> true
    | i :: rest -> if is_phi i then phis_first rest else not (List.exists is_phi rest)
  in
  if phis_first b.b_instrs then b
  else
    let phis, rest = List.partition is_phi b.b_instrs in
    { b with b_instrs = phis @ rest }

let remove_unreachable_blocks fn =
  let reach = reachable fn in
  if Imap.for_all (fun l _ -> Iset.mem l reach) fn.fn_blocks then fn
  else begin
    let blocks = Imap.filter (fun l _ -> Iset.mem l reach) fn.fn_blocks in
    let fix_phi = function
      | Def (v, Phi args) -> (
        match List.filter (fun (p, _) -> Iset.mem p reach) args with
        | [ (_, a) ] -> Def (v, Op a)
        | args -> Def (v, Phi args))
      | i -> i
    in
    let blocks =
      Imap.map
        (fun b -> normalize_phi_prefix { b with b_instrs = List.map fix_phi b.b_instrs })
        blocks
    in
    { fn with fn_blocks = blocks }
  end

(* Every block with phis is normalized, pruned or not: a caller (SCCP's
   rewrite) may hand over phis it turned into copies. *)
let prune_phi_args_with preds fn =
  map_blocks
    (fun l b ->
      let ps = Option.value ~default:[] (Imap.find_opt l preds) in
      let prune i =
        match i with
        | Def (v, Phi args) -> (
          let args' = List.filter (fun (p, _) -> List.mem p ps) args in
          if List.length args' = List.length args then i
          else
            match args' with
            | [ (_, a) ] -> Def (v, Op a)
            | _ -> Def (v, Phi args'))
        | _ -> i
      in
      normalize_phi_prefix (with_instrs b (Dce_support.Listx.map_shared prune b.b_instrs)))
    fn

let prune_phi_args fn = prune_phi_args_with (predecessors fn) fn
