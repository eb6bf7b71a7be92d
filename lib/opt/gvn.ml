open Dce_ir
open Ir

type config = {
  cse : bool;
  load_forward : bool;
  precision : Alias.precision;
  use_call_summaries : bool;
}

let default_config =
  { cse = true; load_forward = true; precision = Alias.Full; use_call_summaries = true }

(* resolve copy chains so CSE keys and all operands are canonical *)
let copy_prop fn =
  let dt = Meminfo.deftab fn in
  let rec resolve fuel op =
    if fuel <= 0 then op
    else
      match op with
      | Const _ -> op
      | Reg v -> (
        match Meminfo.def_rvalue dt v with
        | Some (Op a) -> resolve (fuel - 1) a
        | _ -> op)
  in
  let resolve = resolve 8 in
  map_blocks
    (fun _ b ->
      with_term
        (with_instrs b (Dce_support.Listx.map_shared (map_instr_operands resolve) b.b_instrs))
        (map_terminator_operands resolve b.b_term))
    fn

let canonical_rvalue rv =
  match rv with
  | Binary (op, a, b) when Dce_minic.Ops.is_commutative op ->
    if compare a b > 0 then Binary (op, b, a) else rv
  | _ -> rv

let pure_key rv =
  match rv with
  | Unary _ | Binary _ | Addr _ | Ptradd _ -> Some (canonical_rvalue rv)
  | Op _ | Load _ | Phi _ -> None

(* dominator-scoped CSE *)
let cse ?dom fn =
  (* copy_prop/forwarding never touch successor labels, so a dominator tree
     computed on the pass's input function is still exact here *)
  let dom = match dom with Some f -> f () | None -> Dom.compute fn in
  let table : (rvalue, var) Hashtbl.t = Hashtbl.create 64 in
  let blocks = ref fn.fn_blocks in
  let rec walk l =
    let added = ref [] in
    let b = Imap.find l !blocks in
    let instrs =
      Dce_support.Listx.map_shared
        (fun i ->
          match i with
          | Def (v, rv) -> (
            match pure_key rv with
            | Some key -> (
              match Hashtbl.find_opt table key with
              | Some w -> Def (v, Op (Reg w))
              | None ->
                Hashtbl.add table key v;
                added := key :: !added;
                i)
            | None -> i)
          | _ -> i)
        b.b_instrs
    in
    if instrs != b.b_instrs then blocks := Imap.add l { b with b_instrs = instrs } !blocks;
    List.iter walk (Dom.children dom l);
    List.iter (Hashtbl.remove table) !added
  in
  walk fn.fn_entry;
  if !blocks == fn.fn_blocks then fn else { fn with fn_blocks = !blocks }

(* block-local store-to-load and load-to-load forwarding *)
let forward config info fn =
  let dt = Meminfo.deftab fn in
  let extern_mods = Meminfo.extern_mod_set info in
  map_blocks
    (fun _ b ->
      let avail : (string * int, operand) Hashtbl.t = Hashtbl.create 16 in
      let clobber_sym s =
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) avail [] in
        List.iter (fun (s', k) -> if s' = s then Hashtbl.remove avail (s', k)) keys
      in
      let clobber_unknown () =
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) avail [] in
        List.iter
          (fun (s, k) ->
            if config.precision <> Alias.Full || Meminfo.unknown_may_touch info s then
              Hashtbl.remove avail (s, k))
          keys
      in
      let clobber_set syms =
        Meminfo.Sset.iter clobber_sym syms;
        ()
      in
      let instrs =
        Dce_support.Listx.map_shared
          (fun i ->
            match i with
            | Def (v, Load p) -> (
              match Meminfo.resolve_addr dt p with
              | Meminfo.Asym (s, Some k) -> (
                match Hashtbl.find_opt avail (s, k) with
                | Some op -> Def (v, Op op)
                | None ->
                  Hashtbl.replace avail (s, k) (Reg v);
                  i)
              | Meminfo.Asym (_, None) | Meminfo.Aunknown -> i)
            | Def _ -> i
            | Store (p, value) ->
              (match Meminfo.resolve_addr dt p with
               | Meminfo.Asym (s, Some k) -> Hashtbl.replace avail (s, k) value
               | Meminfo.Asym (s, None) -> clobber_sym s
               | Meminfo.Aunknown ->
                 if config.precision = Alias.Full then clobber_unknown ()
                 else Hashtbl.reset avail);
              i
            | Call (_, name, _) ->
              (if Meminfo.is_defined_function info name then
                 if config.use_call_summaries then clobber_set (Meminfo.mod_set info name)
                 else Hashtbl.reset avail
               else clobber_set extern_mods);
              i
            | Marker _ ->
              clobber_set extern_mods;
              i)
          b.b_instrs
      in
      with_instrs b instrs)
    fn

let run ?dom config info fn =
  let fn = copy_prop fn in
  let fn = if config.load_forward then forward config info fn else fn in
  (* forwarding introduces fresh copies; canonicalize again before CSE *)
  let fn = if config.load_forward then copy_prop fn else fn in
  let fn = if config.cse then cse ?dom fn else fn in
  fn
