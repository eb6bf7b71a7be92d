open Dce_ir
open Ir

type config = { precision : Alias.precision }

let default_config = { precision = Alias.Full }

(* only loops up to [max_body] instructions are unswitched, at most
   [max_clones] times per function *)
let max_body = 80
let max_clones = 4

(* ---------- LICM-lite ---------- *)

let defined_in fn region =
  let s = ref Iset.empty in
  Iset.iter
    (fun l ->
      List.iter
        (fun i -> match def_of_instr i with Some v -> s := Iset.add v !s | None -> ())
        (block fn l).b_instrs)
    region;
  !s

let licm config info fn (loop : Loops.loop) preheader =
  let dt = Meminfo.deftab fn in
  let body_defs = defined_in fn loop.Loops.body in
  let hoisted = ref Iset.empty in
  let invariant_op = function
    | Const _ -> true
    | Reg v -> (not (Iset.mem v body_defs)) || Iset.mem v !hoisted
  in
  (* may any store or call inside the loop clobber this resolved address? *)
  let load_safe_and_invariant p =
    match Meminfo.resolve_addr dt p with
    | Meminfo.Aunknown | Meminfo.Asym (_, None) -> false
    | Meminfo.Asym (s, Some k) -> (
      match Meminfo.symbol info s with
      | Some sym when k >= 0 && k < sym.sym_size ->
        let clobbered = ref false in
        Iset.iter
          (fun l ->
            List.iter
              (fun i ->
                match i with
                | Store (q, _) -> (
                  match Meminfo.resolve_addr dt q with
                  | Meminfo.Asym (s', off') ->
                    if s' = s && (off' = None || off' = Some k) then clobbered := true
                  | Meminfo.Aunknown ->
                    if config.precision <> Alias.Full || Meminfo.unknown_may_touch info s then
                      clobbered := true)
                | Call (_, name, _) ->
                  if Meminfo.Sset.mem s (Meminfo.mod_set info name) then clobbered := true
                | Marker _ ->
                  if Meminfo.Sset.mem s (Meminfo.extern_mod_set info) then clobbered := true
                | Def _ -> ())
              (block fn l).b_instrs)
          loop.Loops.body;
        not !clobbered
      | _ -> false)
  in
  let to_hoist = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    Iset.iter
      (fun l ->
        List.iter
          (fun i ->
            match i with
            | Def (v, rv) when not (Iset.mem v !hoisted) -> (
              let ok =
                match rv with
                | Op a | Unary (_, a) | Addr (_, a) -> invariant_op a
                | Binary (_, a, b) | Ptradd (a, b) -> invariant_op a && invariant_op b
                | Load p -> invariant_op p && load_safe_and_invariant p
                | Phi _ -> false
              in
              if ok then begin
                hoisted := Iset.add v !hoisted;
                to_hoist := (v, i) :: !to_hoist;
                changed := true
              end)
            | _ -> ())
          (block fn l).b_instrs)
      loop.Loops.body
  done;
  if !to_hoist = [] then (fn, Iset.empty)
  else begin
    let hoist_set = !hoisted in
    let hoist_instrs = List.rev_map snd !to_hoist in
    (* remove from body blocks, append to preheader (before its terminator) *)
    let blocks =
      Imap.mapi
        (fun l b ->
          if Iset.mem l loop.Loops.body then
            {
              b with
              b_instrs =
                List.filter
                  (fun i ->
                    match def_of_instr i with
                    | Some v -> not (Iset.mem v hoist_set)
                    | None -> true)
                  b.b_instrs;
            }
          else b)
        fn.fn_blocks
    in
    let pre = Imap.find preheader blocks in
    let blocks = Imap.add preheader { pre with b_instrs = pre.b_instrs @ hoist_instrs } blocks in
    ({ fn with fn_blocks = blocks }, hoist_set)
  end

(* ---------- the unswitch transform ---------- *)

let find_preheader fn (loop : Loops.loop) =
  let preds = Cfg.predecessors fn in
  let header_preds = Option.value ~default:[] (Imap.find_opt loop.Loops.header preds) in
  match List.filter (fun p -> not (Iset.mem p loop.Loops.body)) header_preds with
  | [ p ] -> Some p
  | _ -> None

let find_invariant_branch fn (loop : Loops.loop) body_defs =
  let found = ref None in
  Iset.iter
    (fun l ->
      if !found = None then
        match (block fn l).b_term with
        | Br (Reg c, lt, lf) when lt <> lf && not (Iset.mem c body_defs) ->
          found := Some (l, c, lt, lf)
        | _ -> ())
    loop.Loops.body;
  !found

let unswitch_loop fn (loop : Loops.loop) preheader (br_block, cond, lt, lf) =
  let fn, m_true = Clone.clone_region fn loop.Loops.body in
  let fn, m_false = Clone.clone_region fn loop.Loops.body in
  let blocks = ref fn.fn_blocks in
  let update l f =
    match Imap.find_opt l !blocks with
    | Some b -> blocks := Imap.add l (f b) !blocks
    | None -> ()
  in
  (* pin the invariant branch in each copy *)
  update (Clone.map_label m_true br_block) (fun b ->
      { b with b_term = Jmp (Clone.map_label m_true lt) });
  update (Clone.map_label m_false br_block) (fun b ->
      { b with b_term = Jmp (Clone.map_label m_false lf) });
  (* dispatch block *)
  let dispatch = fn.fn_next_label in
  let fn = { fn with fn_next_label = dispatch + 1 } in
  let header_t = Clone.map_label m_true loop.Loops.header in
  let header_f = Clone.map_label m_false loop.Loops.header in
  blocks := Imap.add dispatch { b_instrs = []; b_term = Br (Reg cond, header_t, header_f) } !blocks;
  (* preheader enters the dispatch *)
  update preheader (fun b ->
      { b with b_term = map_terminator_labels (fun t -> if t = loop.Loops.header then dispatch else t) b.b_term });
  (* cloned headers: their outside phi pred is now the dispatch block *)
  let retarget_outside_phi_preds header_clone =
    update header_clone (fun b ->
        let instrs =
          List.map
            (fun i ->
              match i with
              | Def (v, Phi args) ->
                Def (v, Phi (List.map (fun (p, a) -> ((if p = preheader then dispatch else p), a)) args))
              | _ -> i)
            b.b_instrs
        in
        { b with b_instrs = instrs })
  in
  retarget_outside_phi_preds header_t;
  retarget_outside_phi_preds header_f;
  (* exit blocks: duplicate phi entries for both copies *)
  let exit_targets = Dce_support.Listx.uniq (List.map snd loop.Loops.exits) in
  List.iter
    (fun s ->
      update s (fun b ->
          let instrs =
            List.map
              (fun i ->
                match i with
                | Def (v, Phi args) ->
                  let expanded =
                    List.concat_map
                      (fun (p, a) ->
                        if Iset.mem p loop.Loops.body then
                          [
                            (Clone.map_label m_true p, Clone.map_operand m_true a);
                            (Clone.map_label m_false p, Clone.map_operand m_false a);
                          ]
                        else [ (p, a) ])
                      args
                  in
                  Def (v, Phi expanded)
                | _ -> i)
              b.b_instrs
          in
          { b with b_instrs = instrs }))
    exit_targets;
  Cfg.remove_unreachable_blocks { fn with fn_blocks = !blocks }

let body_size fn (loop : Loops.loop) =
  Iset.fold (fun l acc -> acc + List.length (block fn l).b_instrs + 1) loop.Loops.body 0

let run config info fn =
  let clones = ref 0 in
  let rec attempt fn rounds =
    if rounds <= 0 || !clones >= max_clones then fn
    else begin
      let loops = Loops.natural_loops fn in
      let result = ref None in
      List.iter
        (fun loop ->
          if !result = None && body_size fn loop <= max_body then
            match find_preheader fn loop with
            | None -> ()
            | Some preheader ->
              let fn', _hoisted = licm config info fn loop preheader in
              let body_defs = defined_in fn' loop.Loops.body in
              (match find_invariant_branch fn' loop body_defs with
               | Some site -> (
                 match Lcssa.close_loop fn' loop with
                 | Some fn'' ->
                   incr clones;
                   result := Some (unswitch_loop fn'' loop preheader site)
                 | None -> if not (fn' == fn) then result := Some fn')
               | None -> if not (fn' == fn) then result := Some fn'))
        loops;
      match !result with
      | Some fn' -> attempt fn' (rounds - 1)
      | None -> fn
    end
  in
  attempt fn 6
