open Dce_ir
open Ir

(* fold a branch/switch whose condition is a constant reachable through copy
   chains only (front-end-strength folding; SCCP handles the general case) *)
let fold_constant_terms fn =
  let dt = Meminfo.deftab fn in
  let changed = ref false in
  let fold_term term =
    match term with
    | Br (c, lt, lf) -> (
      if lt = lf then begin
        changed := true;
        Jmp lt
      end
      else
        match Meminfo.resolve_const dt c with
        | Some k ->
          changed := true;
          Jmp (if k <> 0 then lt else lf)
        | None -> (
          (* branch on an address constant: always true *)
          match Meminfo.resolve_addr dt c with
          | Meminfo.Asym _ ->
            changed := true;
            Jmp lt
          | Meminfo.Aunknown -> term))
    | Switch (c, cases, dflt) -> (
      match Meminfo.resolve_const dt c with
      | Some k ->
        changed := true;
        Jmp (Option.value ~default:dflt (List.assoc_opt k cases))
      | None -> term)
    | Jmp _ | Ret _ -> term
  in
  (map_blocks (fun _ b -> with_term b (fold_term b.b_term)) fn, !changed)

(* drop phi arguments whose predecessor edge no longer exists (constant
   branch folding removes edges without removing blocks) *)
let prune_phi_args preds fn =
  let fn' = Cfg.prune_phi_args_with preds fn in
  (fn', fn' != fn)

(* replace phis that have a single distinct non-self argument with copies *)
let simplify_phis fn =
  let changed = ref false in
  let simplify v rv =
    match rv with
    | Phi args ->
      let distinct =
        Dce_support.Listx.uniq
          (List.filter_map (fun (_, a) -> if a = Reg v then None else Some a) args)
      in
      (match distinct with
       | [ a ] ->
         changed := true;
         Op a
       | [] ->
         (* phi of only itself: value never defined on any path; any constant *)
         changed := true;
         Op (Const 0)
       | _ -> rv)
    | _ -> rv
  in
  let simplify_instr i =
    match i with
    | Def (v, rv) ->
      let rv' = simplify v rv in
      if rv' == rv then i else Def (v, rv')
    | _ -> i
  in
  let fn' =
    map_blocks
      (fun _ b ->
        Cfg.normalize_phi_prefix
          (with_instrs b (Dce_support.Listx.map_shared simplify_instr b.b_instrs)))
      fn
  in
  (fn', !changed)

(* merge B into A when A ends with Jmp B and B's only predecessor is A *)
let merge_chains preds fn =
  let changed = ref false in
  let blocks = ref fn.fn_blocks in
  let rename_pred_in_phis target ~old_pred ~new_pred =
    match Imap.find_opt target !blocks with
    | None -> ()
    | Some b ->
      let instrs =
        List.map
          (fun i ->
            match i with
            | Def (v, Phi args) ->
              Def (v, Phi (List.map (fun (p, a) -> ((if p = old_pred then new_pred else p), a)) args))
            | _ -> i)
          b.b_instrs
      in
      blocks := Imap.add target { b with b_instrs = instrs } !blocks
  in
  let merged_away = Hashtbl.create 8 in
  Imap.iter
    (fun a _ ->
      if not (Hashtbl.mem merged_away a) then begin
        (* follow the chain from a as far as it goes *)
        let continue_merging = ref true in
        while !continue_merging do
          continue_merging := false;
          match Imap.find_opt a !blocks with
          | Some ({ b_term = Jmp b; _ } as ablock) when b <> a && b <> fn.fn_entry -> (
            match Imap.find_opt b !blocks with
            | Some bblock when Imap.find_opt b preds = Some [ a ] && not (Hashtbl.mem merged_away b) ->
              (* resolve B's phis: single pred means they are copies *)
              let b_instrs =
                List.map
                  (fun i ->
                    match i with
                    | Def (v, Phi [ (_, arg) ]) -> Def (v, Op arg)
                    | Def (_, Phi _) -> i (* inconsistent phi; leave for validate *)
                    | _ -> i)
                  bblock.b_instrs
              in
              blocks :=
                Imap.add a
                  { b_instrs = ablock.b_instrs @ b_instrs; b_term = bblock.b_term }
                  !blocks;
              blocks := Imap.remove b !blocks;
              Hashtbl.replace merged_away b ();
              (* successors of B now have predecessor A instead of B *)
              List.iter
                (fun s -> rename_pred_in_phis s ~old_pred:b ~new_pred:a)
                (successors bblock.b_term);
              changed := true;
              continue_merging := true
            | _ -> ())
          | _ -> ()
        done
      end)
    fn.fn_blocks;
  if !changed then ({ fn with fn_blocks = !blocks }, true) else (fn, false)

(* retarget predecessors of empty forwarding blocks (just "Jmp C") *)
let skip_empty_blocks preds fn =
  let changed = ref false in
  let blocks = ref fn.fn_blocks in
  let has_phis l =
    match Imap.find_opt l !blocks with
    | Some b -> List.exists (function Def (_, Phi _) -> true | _ -> false) b.b_instrs
    | None -> false
  in
  Imap.iter
    (fun b_label block ->
      match block with
      | { b_instrs = []; b_term = Jmp c } when b_label <> fn.fn_entry && c <> b_label ->
        let ps = Option.value ~default:[] (Imap.find_opt b_label preds) in
        (* safe when the target has no phis (no per-edge values to maintain)
           and no predecessor already branches to C (no duplicate edges) *)
        let pred_has_edge_to_c p =
          match Imap.find_opt p !blocks with
          | Some pb -> List.mem c (successors pb.b_term)
          | None -> false
        in
        if (not (has_phis c)) && ps <> [] && not (List.exists pred_has_edge_to_c ps) then begin
          List.iter
            (fun p ->
              match Imap.find_opt p !blocks with
              | Some pb ->
                let term =
                  map_terminator_labels (fun l -> if l = b_label then c else l) pb.b_term
                in
                blocks := Imap.add p { pb with b_term = term } !blocks
              | None -> ())
            ps;
          changed := true
        end
      | _ -> ())
    fn.fn_blocks;
  if !changed then ({ fn with fn_blocks = !blocks }, true) else (fn, false)

let run fn =
  let rec fixpoint fn rounds =
    if rounds <= 0 then fn
    else begin
      let fn, c1 = fold_constant_terms fn in
      let fn' = Cfg.remove_unreachable_blocks fn in
      let c2 = fn' != fn in
      let fn = fn' in
      (* one predecessor map serves the round: pruning phi arguments and
         simplifying phis change no edge, and merging chains is the only
         step before skip-empty-blocks that does *)
      let preds = Cfg.predecessors fn in
      let fn, c6 = prune_phi_args preds fn in
      let fn, c3 = simplify_phis fn in
      let fn, c4 = merge_chains preds fn in
      let preds = if c4 then Cfg.predecessors fn else preds in
      let fn, c5 = skip_empty_blocks preds fn in
      if c1 || c2 || c3 || c4 || c5 || c6 then fixpoint fn (rounds - 1) else fn
    end
  in
  fixpoint fn 64
