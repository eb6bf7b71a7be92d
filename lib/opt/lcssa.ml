open Dce_ir
open Ir

let close_loop fn (loop : Loops.loop) =
  let in_loop l = Iset.mem l loop.Loops.body in
  (* registers defined inside the loop *)
  let loop_defs = ref Iset.empty in
  Iset.iter
    (fun l ->
      List.iter
        (fun i ->
          match def_of_instr i with
          | Some v -> loop_defs := Iset.add v !loop_defs
          | None -> ())
        (block fn l).b_instrs)
    loop.Loops.body;
  (* loop-defined registers used outside *)
  let outside_uses = ref Iset.empty in
  Imap.iter
    (fun l b ->
      if not (in_loop l) then begin
        let note uses =
          List.iter (fun v -> if Iset.mem v !loop_defs then outside_uses := Iset.add v !outside_uses) uses
        in
        List.iter
          (fun i ->
            match i with
            | Def (_, Phi args) ->
              (* phi args whose pred edge comes from inside the loop are loop-
                 closed by construction; only args from outside preds count *)
              List.iter
                (fun (p, a) ->
                  match a with
                  | Reg v when (not (in_loop p)) && Iset.mem v !loop_defs ->
                    outside_uses := Iset.add v !outside_uses
                  | _ -> ())
                args
            | _ -> note (uses_of_instr i))
          b.b_instrs;
        note (uses_of_terminator b.b_term)
      end)
    fn.fn_blocks;
  if Iset.is_empty !outside_uses then Some fn
  else begin
    let exit_targets = Dce_support.Listx.uniq (List.map snd loop.Loops.exits) in
    match exit_targets with
    | [ exit_target ] ->
      let preds = Cfg.predecessors fn in
      let exit_preds = Option.value ~default:[] (Imap.find_opt exit_target preds) in
      if List.exists (fun p -> not (in_loop p)) exit_preds then None
      else begin
        (* one phi per escaping register, with one argument per exit edge *)
        let next_var = ref fn.fn_next_var in
        let names = ref fn.fn_var_names in
        let mapping =
          Iset.fold
            (fun v acc ->
              let w = !next_var in
              incr next_var;
              (match Imap.find_opt v fn.fn_var_names with
               | Some hint -> names := Imap.add w hint !names
               | None -> ());
              Imap.add v w acc)
            !outside_uses Imap.empty
        in
        let phi_defs =
          Iset.fold
            (fun v acc ->
              let w = Imap.find v mapping in
              Def (w, Phi (List.map (fun p -> (p, Reg v)) exit_preds)) :: acc)
            !outside_uses []
        in
        let subst = function
          | Const n -> Const n
          | Reg v -> ( match Imap.find_opt v mapping with Some w -> Reg w | None -> Reg v)
        in
        let blocks =
          Imap.mapi
            (fun l b ->
              if in_loop l then b
              else if l = exit_target then begin
                (* prepend the new phis; rewrite uses in the rest of the block *)
                let rest =
                  List.map
                    (fun i ->
                      match i with
                      | Def (v, Phi args) ->
                        (* existing phis keep loop-edge args (their preds are
                           loop blocks and stay correct); outside-edge args
                           get rewritten *)
                        Def
                          ( v,
                            Phi
                              (List.map
                                 (fun (p, a) -> if in_loop p then (p, a) else (p, subst a))
                                 args) )
                      | _ -> map_instr_operands subst i)
                    b.b_instrs
                in
                {
                  b_instrs = phi_defs @ rest;
                  b_term = map_terminator_operands subst b.b_term;
                }
              end
              else
                {
                  b_instrs =
                    List.map
                      (fun i ->
                        match i with
                        | Def (v, Phi args) ->
                          Def
                            ( v,
                              Phi
                                (List.map
                                   (fun (p, a) -> if in_loop p then (p, a) else (p, subst a))
                                   args) )
                        | _ -> map_instr_operands subst i)
                      b.b_instrs;
                  b_term = map_terminator_operands subst b.b_term;
                })
            fn.fn_blocks
        in
        Some { fn with fn_blocks = blocks; fn_next_var = !next_var; fn_var_names = !names }
      end
    | _ -> None
  end
