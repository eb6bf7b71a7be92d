open Dce_ir
open Ir

type config = { threshold : int }

let default_config = { threshold = 60 }

(* scales with the threshold: a level that inlines bigger callees also
   tolerates more caller growth *)
let growth_cap config = 600 + (12 * config.threshold)

(* transitive callees, for recursion avoidance *)
let reach_map prog =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun fn -> Hashtbl.replace tbl fn.fn_name (Meminfo.Sset.of_list (called_names fn)))
    prog.prog_funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        let cur = Hashtbl.find tbl fn.fn_name in
        let expanded =
          Meminfo.Sset.fold
            (fun callee acc ->
              match Hashtbl.find_opt tbl callee with
              | Some s -> Meminfo.Sset.union acc s
              | None -> acc)
            cur cur
        in
        if not (Meminfo.Sset.equal expanded cur) then begin
          Hashtbl.replace tbl fn.fn_name expanded;
          changed := true
        end)
      prog.prog_funcs
  done;
  tbl

(* splice [callee] into [caller] at the call site (block [l], index [idx]);
   returns the new caller and the frame symbols to add to the program *)
let inline_site ~clones caller callee ~callee_frames l idx res args =
  let b = block caller l in
  let prefix = Dce_support.Listx.take idx b.b_instrs in
  let suffix = Dce_support.Listx.drop (idx + 1) b.b_instrs in
  (* frame symbol renaming for this call site *)
  incr clones;
  let sym_suffix = Printf.sprintf "$i%d" !clones in
  let sym_rename name = name ^ sym_suffix in
  (* label/var offsets into the caller's namespace *)
  let loff = caller.fn_next_label in
  let voff = caller.fn_next_var in
  let map_l lab = lab + loff in
  let map_v v = v + voff in
  let cont_label = loff + callee.fn_next_label in
  (* parameter substitution: callee params (mapped) -> argument operands *)
  let param_subst = Hashtbl.create 8 in
  List.iteri
    (fun i p ->
      let arg = try List.nth args i with _ -> Const 0 in
      Hashtbl.replace param_subst (map_v p) arg)
    callee.fn_params;
  let subst_op op =
    match op with
    | Const _ -> op
    | Reg v -> ( match Hashtbl.find_opt param_subst v with Some a -> a | None -> op)
  in
  let map_op = function
    | Const n -> Const n
    | Reg v -> subst_op (Reg (map_v v))
  in
  let ret_sites = ref [] in
  let import_instr i =
    match i with
    | Def (v, rv) ->
      let rv =
        match rv with
        | Op a -> Op (map_op a)
        | Unary (u, a) -> Unary (u, map_op a)
        | Binary (o, a, b2) -> Binary (o, map_op a, map_op b2)
        | Addr (s, a) ->
          let s' = if List.mem s callee_frames then sym_rename s else s in
          Addr (s', map_op a)
        | Ptradd (a, b2) -> Ptradd (map_op a, map_op b2)
        | Load a -> Load (map_op a)
        | Phi psi -> Phi (List.map (fun (p, a) -> (map_l p, map_op a)) psi)
      in
      Def (map_v v, rv)
    | Store (a, v) -> Store (map_op a, map_op v)
    | Call (r, name, cargs) -> Call (Option.map map_v r, name, List.map map_op cargs)
    | Marker n -> Marker n
  in
  let imported_blocks = ref Imap.empty in
  Imap.iter
    (fun lab cb ->
      let term =
        match cb.b_term with
        | Ret op ->
          ret_sites := (map_l lab, Option.map map_op op) :: !ret_sites;
          Jmp cont_label
        | t -> map_terminator_labels map_l (map_terminator_operands map_op t)
      in
      imported_blocks := Imap.add (map_l lab) { b_instrs = List.map import_instr cb.b_instrs; b_term = term } !imported_blocks)
    callee.fn_blocks;
  let ret_sites = List.rev !ret_sites in
  (* continuation block: bind the result, then the rest of the original block *)
  let result_def =
    match res with
    | None -> []
    | Some v -> (
      match ret_sites with
      | [] -> [ Def (v, Op (Const 0)) ] (* callee never returns: unreachable *)
      | [ (_, op) ] -> [ Def (v, Op (Option.value ~default:(Const 0) op)) ]
      | many ->
        [ Def (v, Phi (List.map (fun (lab, op) -> (lab, Option.value ~default:(Const 0) op)) many)) ])
  in
  let cont_block = { b_instrs = result_def @ suffix; b_term = b.b_term } in
  let entry_mapped = map_l callee.fn_entry in
  let head_block = { b_instrs = prefix; b_term = Jmp entry_mapped } in
  let blocks =
    Imap.add l head_block caller.fn_blocks
    |> Imap.union (fun _ a _ -> Some a) !imported_blocks
    |> Imap.add cont_label cont_block
  in
  (* successors of the original block now flow from the continuation block *)
  let blocks =
    List.fold_left
      (fun blocks s ->
        match Imap.find_opt s blocks with
        | None -> blocks
        | Some sb ->
          let fix = function
            | Def (v, Phi psi) ->
              Def (v, Phi (List.map (fun (p, a) -> ((if p = l then cont_label else p), a)) psi))
            | i -> i
          in
          Imap.add s { sb with b_instrs = List.map fix sb.b_instrs } blocks)
      blocks (successors b.b_term)
  in
  (* import variable name hints *)
  let var_names =
    Imap.fold
      (fun v hint acc -> Imap.add (map_v v) hint acc)
      callee.fn_var_names caller.fn_var_names
  in
  let caller =
    {
      caller with
      fn_blocks = blocks;
      fn_next_label = cont_label + 1;
      fn_next_var = voff + callee.fn_next_var;
      fn_var_names = var_names;
    }
  in
  (caller, sym_rename)

(* a callee with no reachable return never returns; real inliners avoid
   those (and inlining one would leave the continuation block dangling in
   spirit) *)
let has_reachable_ret fn =
  let reach = Cfg.reachable fn in
  Imap.exists
    (fun l b -> Iset.mem l reach && match b.b_term with Ret _ -> true | _ -> false)
    fn.fn_blocks

let run config prog =
  let reach = reach_map prog in
  let size_of = Hashtbl.create 16 in
  List.iter (fun fn -> Hashtbl.replace size_of fn.fn_name (instr_count fn)) prog.prog_funcs;
  let prog_ref = ref prog in
  (* clone suffixes count per run, so the output is a function of the input
     alone (the pass manager's stage memo relies on that); lowered symbol
     names hold no '$' and a schedule inlines once, so they stay unique *)
  let clones = ref 0 in
  let growth_cap = growth_cap config in
  let inline_into fn =
    let fn = ref fn in
    let budget = ref 40 in
    let progress = ref true in
    while !progress && !budget > 0 && instr_count !fn <= growth_cap do
      progress := false;
      decr budget;
      (* find the first inlinable call site *)
      let site = ref None in
      (try
         Imap.iter
           (fun l b ->
             List.iteri
               (fun idx i ->
                 match i with
                 | Call (res, name, args) when !site = None -> (
                   match find_func !prog_ref name with
                   | Some callee
                     when callee.fn_name <> "main"
                          && callee.fn_name <> !fn.fn_name
                          && Option.value ~default:0 (Hashtbl.find_opt size_of name)
                             <= config.threshold
                          && has_reachable_ret callee
                          && not
                               (Meminfo.Sset.mem !fn.fn_name
                                  (Option.value ~default:Meminfo.Sset.empty
                                     (Hashtbl.find_opt reach name))) ->
                     site := Some (l, idx, res, args, callee);
                     raise Exit
                   | _ -> ())
                 | _ -> ())
               b.b_instrs)
           !fn.fn_blocks
       with Exit -> ());
      match !site with
      | None -> ()
      | Some (l, idx, res, args, callee) ->
        let callee_frames =
          List.filter_map
            (fun sym ->
              match sym.sym_kind with
              | `Frame owner when owner = callee.fn_name -> Some sym.sym_name
              | `Frame _ | `Global -> None)
            !prog_ref.prog_syms
        in
        let new_fn, sym_rename = inline_site ~clones !fn callee ~callee_frames l idx res args in
        (* clone the callee's frame symbols for this site *)
        let new_syms =
          List.filter_map
            (fun sym ->
              match sym.sym_kind with
              | `Frame owner when owner = callee.fn_name ->
                Some
                  {
                    sym with
                    sym_name = sym_rename sym.sym_name;
                    sym_kind = `Frame new_fn.fn_name;
                  }
              | `Frame _ | `Global -> None)
            !prog_ref.prog_syms
        in
        prog_ref := { !prog_ref with prog_syms = !prog_ref.prog_syms @ new_syms };
        fn := new_fn;
        progress := true
    done;
    !fn
  in
  let funcs = Dce_support.Listx.map_shared inline_into prog.prog_funcs in
  if funcs == prog.prog_funcs && !prog_ref == prog then prog
  else { !prog_ref with prog_funcs = funcs }
