open Dce_ir
open Ir

type config = { precision : Alias.precision }

type access = { acc_block : label; acc_index : int; acc_is_store : bool; acc_value : operand }

let find_promotion config info fn (loop : Loops.loop) =
  let dt = Meminfo.deftab fn in
  let preds = Cfg.predecessors fn in
  let header_preds = Option.value ~default:[] (Imap.find_opt loop.Loops.header preds) in
  match
    ( List.filter (fun p -> not (Iset.mem p loop.Loops.body)) header_preds,
      loop.Loops.latches )
  with
  | [ preheader ], [ latch ] ->
    let dom = Dom.compute fn in
    (* collect memory behaviour of the loop *)
    let accesses : (string * int, access list) Hashtbl.t = Hashtbl.create 16 in
    let bad_syms = Hashtbl.create 8 in
    let unknown_store = ref false in
    let call_mods = ref Meminfo.Sset.empty in
    Iset.iter
      (fun l ->
        List.iteri
          (fun idx i ->
            match i with
            | Def (_, Load p) -> (
              match Meminfo.resolve_addr dt p with
              | Meminfo.Asym (s, Some k) ->
                let key = (s, k) in
                let prev = Option.value ~default:[] (Hashtbl.find_opt accesses key) in
                Hashtbl.replace accesses key
                  ({ acc_block = l; acc_index = idx; acc_is_store = false; acc_value = Const 0 }
                  :: prev)
              | Meminfo.Asym (s, None) -> Hashtbl.replace bad_syms s ()
              | Meminfo.Aunknown -> () (* loads through unknown pointers are harmless *))
            | Def _ -> ()
            | Store (p, v) -> (
              match Meminfo.resolve_addr dt p with
              | Meminfo.Asym (s, Some k) ->
                let key = (s, k) in
                let prev = Option.value ~default:[] (Hashtbl.find_opt accesses key) in
                Hashtbl.replace accesses key
                  ({ acc_block = l; acc_index = idx; acc_is_store = true; acc_value = v } :: prev)
              | Meminfo.Asym (s, None) -> Hashtbl.replace bad_syms s ()
              | Meminfo.Aunknown -> unknown_store := true)
            | Call (_, name, _) ->
              call_mods := Meminfo.Sset.union !call_mods (Meminfo.mod_set info name)
            | Marker _ -> call_mods := Meminfo.Sset.union !call_mods (Meminfo.extern_mod_set info))
          (block fn l).b_instrs)
      loop.Loops.body;
    let candidate = ref None in
    Hashtbl.iter
      (fun (s, k) accs ->
        if !candidate = None then begin
          let stores = List.filter (fun a -> a.acc_is_store) accs in
          let loads = List.filter (fun a -> not a.acc_is_store) accs in
          let sym_ok =
            (not (Hashtbl.mem bad_syms s))
            && (not (Meminfo.Sset.mem s !call_mods))
            && ((not !unknown_store)
               || (config.precision = Alias.Full && not (Meminfo.unknown_may_touch info s)))
          in
          let in_bounds =
            match Meminfo.symbol info s with
            | Some sym -> k >= 0 && k < sym.sym_size
            | None -> false
          in
          let stores_dominate_latch =
            List.for_all (fun a -> Dom.dominates dom a.acc_block latch) stores
          in
          (* stores must be totally ordered by dominance for "last store" to
             be well-defined *)
          let stores_ordered =
            let rec check = function
              | a :: (b :: _ as rest) ->
                (Dom.dominates dom a.acc_block b.acc_block
                 || Dom.dominates dom b.acc_block a.acc_block)
                && check rest
              | _ -> true
            in
            check stores
          in
          if sym_ok && in_bounds && loads <> [] && stores_dominate_latch && stores_ordered then
            candidate := Some (preheader, latch, (s, k), stores, loads)
        end)
      accesses;
    !candidate
  | _ -> None

(* order stores by dominance (earlier-dominating first; same block by index) *)
let sort_stores dom stores =
  List.sort
    (fun a b ->
      if a.acc_block = b.acc_block then compare a.acc_index b.acc_index
      else if Dom.strictly_dominates dom a.acc_block b.acc_block then -1
      else 1)
    stores

let promote_cell fn (loop : Loops.loop) preheader latch (s, k) stores =
  let dom = Dom.compute fn in
  let stores = sort_stores dom stores in
  let next_var = ref fn.fn_next_var in
  let fresh () =
    let v = !next_var in
    incr next_var;
    v
  in
  let t_addr = fresh () in
  let t_init = fresh () in
  let has_stores = stores <> [] in
  let v_phi = if has_stores then fresh () else t_init in
  (* the register value current at (block, instruction index) *)
  let value_at l idx =
    let candidates =
      List.filter
        (fun a ->
          if a.acc_block = l then a.acc_index < idx else Dom.strictly_dominates dom a.acc_block l)
        stores
    in
    match List.rev candidates with
    | last :: _ -> last.acc_value
    | [] -> Reg v_phi
  in
  let last_store_value =
    match List.rev stores with
    | last :: _ -> last.acc_value
    | [] -> Reg v_phi
  in
  let dt = Meminfo.deftab fn in
  let blocks =
    Imap.mapi
      (fun l b ->
        if l = preheader then
          {
            b with
            b_instrs =
              b.b_instrs @ [ Def (t_addr, Addr (s, Const k)); Def (t_init, Load (Reg t_addr)) ];
          }
        else if Iset.mem l loop.Loops.body then begin
          let instrs =
            List.mapi
              (fun idx i ->
                match i with
                | Def (x, Load p) -> (
                  match Meminfo.resolve_addr dt p with
                  | Meminfo.Asym (s', Some k') when s' = s && k' = k ->
                    Def (x, Op (value_at l idx))
                  | _ -> i)
                | _ -> i)
              b.b_instrs
          in
          let instrs =
            if l = loop.Loops.header && has_stores then
              Def (v_phi, Phi [ (preheader, Reg t_init); (latch, last_store_value) ]) :: instrs
            else instrs
          in
          { b with b_instrs = instrs }
        end
        else b)
      fn.fn_blocks
  in
  { fn with fn_blocks = blocks; fn_next_var = !next_var }

let run config info fn =
  let budget = ref 16 in
  let rec attempt fn =
    if !budget <= 0 then fn
    else begin
      let loops = Loops.natural_loops fn in
      let result = ref None in
      List.iter
        (fun loop ->
          if !result = None then
            match find_promotion config info fn loop with
            | Some (preheader, latch, cell, stores, _loads) ->
              decr budget;
              result := Some (promote_cell fn loop preheader latch cell stores)
            | None -> ())
        loops;
      match !result with
      | Some fn' -> attempt fn'
      | None -> fn
    end
  in
  attempt fn
