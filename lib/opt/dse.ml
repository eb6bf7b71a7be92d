open Dce_ir
open Ir

type config = { strength : int; precision : Alias.precision; use_call_summaries : bool }

let default_config = { strength = 2; precision = Alias.Full; use_call_summaries = true }

(* the backward "dead cells" state: cells guaranteed to be overwritten (or
   past their lifetime) before any possible read *)
type dead_set = {
  cells : (string * int, unit) Hashtbl.t;
  whole : (string, unit) Hashtbl.t; (* whole symbol dead *)
}

let make_set () = { cells = Hashtbl.create 16; whole = Hashtbl.create 8 }

let cell_dead ds s k = Hashtbl.mem ds.whole s || Hashtbl.mem ds.cells (s, k)

let add_cell ds s k = Hashtbl.replace ds.cells (s, k) ()

let alive_sym ds s =
  Hashtbl.remove ds.whole s;
  let keys = Hashtbl.fold (fun key _ acc -> key :: acc) ds.cells [] in
  List.iter (fun (s', k) -> if s' = s then Hashtbl.remove ds.cells (s', k)) keys

let alive_cell ds s k =
  (* a read of one cell revives the whole-symbol marker conservatively *)
  if Hashtbl.mem ds.whole s then begin
    Hashtbl.remove ds.whole s;
    ()
  end;
  Hashtbl.remove ds.cells (s, k)

let alive_all ds =
  Hashtbl.reset ds.cells;
  Hashtbl.reset ds.whole

let alive_unknown_reachable info ds =
  (* keep only facts about symbols unknown pointers cannot address *)
  let keys = Hashtbl.fold (fun key _ acc -> key :: acc) ds.cells [] in
  List.iter
    (fun (s, k) -> if Meminfo.unknown_may_touch info s then Hashtbl.remove ds.cells (s, k))
    keys;
  let wholes = Hashtbl.fold (fun s _ acc -> s :: acc) ds.whole [] in
  List.iter (fun s -> if Meminfo.unknown_may_touch info s then Hashtbl.remove ds.whole s) wholes

let run config info ~is_main fn =
  if config.strength <= 0 then fn
  else begin
    let dt = Meminfo.deftab fn in
    let extern_refs = Meminfo.extern_mod_set info in
    let process_block _l b =
      let ds = make_set () in
      (* seed from the terminator when post-lifetime analysis is enabled *)
      (if config.strength >= 2 then
         match b.b_term with
         | Ret _ ->
           (* this function's frame slots die here *)
           List.iter
             (fun sym ->
               match sym.sym_kind with
               | `Frame owner when owner = fn.fn_name -> Hashtbl.replace ds.whole sym.sym_name ()
               | `Frame _ | `Global -> ())
             (Meminfo.tracked_symbols info);
           if is_main then
             (* after main returns nothing can read non-escaped statics *)
             List.iter
               (fun sym -> Hashtbl.replace ds.whole sym.sym_name ())
               (Meminfo.tracked_symbols info)
         | Jmp _ | Br _ | Switch _ -> ());
      (* terminator operand reads are register reads; memory unaffected *)
      let kept = ref [] in
      let dropped = ref false in
      List.iter
        (fun i ->
          match i with
          | Store (p, _) -> (
            match Meminfo.resolve_addr dt p with
            | Meminfo.Asym (s, Some k) ->
              if cell_dead ds s k then dropped := true (* dead store: drop *)
              else begin
                add_cell ds s k;
                kept := i :: !kept
              end
            | Meminfo.Asym (s, None) ->
              alive_sym ds s;
              kept := i :: !kept
            | Meminfo.Aunknown ->
              (* may write anything escaped; facts about escaped syms are gone,
                 and under weaker precision all facts are gone *)
              if config.precision = Alias.Full then alive_unknown_reachable info ds
              else alive_all ds;
              kept := i :: !kept)
          | Def (_, Load p) ->
            (match Meminfo.resolve_addr dt p with
             | Meminfo.Asym (s, Some k) -> alive_cell ds s k
             | Meminfo.Asym (s, None) -> alive_sym ds s
             | Meminfo.Aunknown ->
               if config.precision = Alias.Full then alive_unknown_reachable info ds
               else alive_all ds);
            kept := i :: !kept
          | Def _ -> kept := i :: !kept
          | Call (_, name, _) ->
            (if Meminfo.is_defined_function info name then
               if config.use_call_summaries then begin
                 (* the callee may read its ref set and write its mod set;
                    both make our "dead" facts unsafe for those symbols *)
                 Meminfo.Sset.iter (fun s -> alive_sym ds s) (Meminfo.ref_set info name);
                 Meminfo.Sset.iter (fun s -> alive_sym ds s) (Meminfo.mod_set info name)
               end
               else alive_all ds
             else Meminfo.Sset.iter (fun s -> alive_sym ds s) extern_refs);
            kept := i :: !kept
          | Marker _ ->
            Meminfo.Sset.iter (fun s -> alive_sym ds s) extern_refs;
            kept := i :: !kept)
        (List.rev b.b_instrs);
      if !dropped then { b with b_instrs = !kept } else b
    in
    map_blocks process_block fn
  end
