open Dce_ir
open Ir

type mode = Off | Conservative | Aggressive

type config = { mode : mode }

let default_config = { mode = Conservative }

(* threads per function per run *)
let max_threads = 16

let has_phis b = List.exists (function Def (_, Phi _) -> true | _ -> false) b.b_instrs

(* registers defined in the block must not be used elsewhere: threading an
   edge around (or cloning) the block would otherwise break dominance of
   those uses *)
let defs_escape fn l =
  let b = block fn l in
  let defs =
    List.filter_map def_of_instr b.b_instrs |> List.fold_left (fun s v -> Iset.add v s) Iset.empty
  in
  let escaped = ref false in
  Imap.iter
    (fun l' b' ->
      if l' <> l then begin
        List.iter
          (fun i -> if List.exists (fun v -> Iset.mem v defs) (uses_of_instr i) then escaped := true)
          b'.b_instrs;
        if List.exists (fun v -> Iset.mem v defs) (uses_of_terminator b'.b_term) then
          escaped := true
      end)
    fn.fn_blocks;
  !escaped

(* a threadable site: block B whose terminator branches on a phi defined in B
   with at least one constant incoming argument *)
type site = {
  site_label : label;
  cond_var : var;
  phi_args : (label * operand) list;
  true_target : label;
  false_target : label;
  const_preds : (label * int) list; (* predecessor, constant condition value *)
}

let find_site config fn =
  let found = ref None in
  Imap.iter
    (fun l b ->
      if !found = None && l <> fn.fn_entry then
        match b.b_term with
        | Br (Reg c, lt, lf) when lt <> lf && lt <> l && lf <> l -> (
          let phi_def =
            List.find_opt (function Def (v, Phi _) -> v = c | _ -> false) b.b_instrs
          in
          match phi_def with
          | Some (Def (_, Phi args)) ->
            let const_preds =
              List.filter_map
                (fun (p, a) -> match a with Const k -> Some (p, k) | Reg _ -> None)
                args
            in
            let body_ok =
              match config.mode with
              | Off -> false
              | Conservative ->
                (* only the phi itself may live in the block *)
                List.for_all (function Def (_, Phi _) -> true | _ -> false) b.b_instrs
              | Aggressive ->
                (* anything but further phis used by the body; cloning is safe
                   for all instruction kinds *)
                true
            in
            let targets_ok t = not (has_phis (block fn t)) in
            if
              const_preds <> [] && body_ok && targets_ok lt && targets_ok lf
              && List.length args > List.length const_preds
              (* if every pred is constant SCCP handles it wholesale *)
              && not (defs_escape fn l)
            then
              found :=
                Some
                  {
                    site_label = l;
                    cond_var = c;
                    phi_args = args;
                    true_target = lt;
                    false_target = lf;
                    const_preds;
                  }
          | _ -> ())
        | _ -> ())
    fn.fn_blocks;
  !found

(* remove threaded predecessors from the block's phis, resolving the ones
   left with a single source to copies *)
let drop_phi_preds b removed =
  let instrs =
    List.map
      (fun i ->
        match i with
        | Def (v, Phi args) -> (
          let args = List.filter (fun (p, _) -> not (List.mem p removed)) args in
          match args with
          | [ (_, a) ] -> Def (v, Op a)
          | _ -> Def (v, Phi args))
        | _ -> i)
      b.b_instrs
  in
  Cfg.normalize_phi_prefix { b with b_instrs = instrs }

let thread_site config fn site =
  let fn = ref fn in
  let threaded = ref [] in
  List.iter
    (fun (p, k) ->
      let target = if k <> 0 then site.true_target else site.false_target in
      match config.mode with
      | Off -> ()
      | Conservative ->
        (* retarget the predecessor directly: the block is empty except phis *)
        let pb = block !fn p in
        let term =
          map_terminator_labels (fun t -> if t = site.site_label then target else t) pb.b_term
        in
        fn := { !fn with fn_blocks = Imap.add p { pb with b_term = term } !fn.fn_blocks };
        threaded := p :: !threaded
      | Aggressive ->
        (* clone the block for this edge with the branch pinned *)
        let fn', m = Clone.clone_region !fn (Iset.singleton site.site_label) in
        let clone_label = Clone.map_label m site.site_label in
        let cb = block fn' clone_label in
        (* resolve the clone's phis for the single incoming edge p *)
        let instrs =
          List.map
            (fun i ->
              match i with
              | Def (v, Phi args) -> (
                match List.assoc_opt p args with
                | Some a -> Def (v, Op a)
                | None -> Def (v, Op (Const 0)))
              | i -> i)
            cb.b_instrs
        in
        let cb = { b_instrs = instrs; b_term = Jmp target } in
        let fn' = { fn' with fn_blocks = Imap.add clone_label cb fn'.fn_blocks } in
        (* retarget the predecessor to the clone *)
        let pb = block fn' p in
        let term =
          map_terminator_labels (fun t -> if t = site.site_label then clone_label else t) pb.b_term
        in
        fn := { fn' with fn_blocks = Imap.add p { pb with b_term = term } fn'.fn_blocks };
        threaded := p :: !threaded)
    site.const_preds;
  (* drop the threaded predecessors from the original block's phis *)
  let b = block !fn site.site_label in
  fn :=
    { !fn with fn_blocks = Imap.add site.site_label (drop_phi_preds b !threaded) !fn.fn_blocks };
  Cfg.remove_unreachable_blocks !fn

let run config fn =
  if config.mode = Off then fn
  else begin
    let rec attempt fn budget =
      if budget <= 0 then fn
      else
        match find_site config fn with
        | None -> fn
        | Some site -> attempt (thread_site config fn site) (budget - 1)
    in
    attempt fn max_threads
  end
