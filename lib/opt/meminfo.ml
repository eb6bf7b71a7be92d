open Dce_ir
open Ir
module Sset = Set.Make (String)
module Smap = Map.Make (String)

type addr_desc = Asym of string * int option | Aunknown

type sym_stats = {
  mutable escaped : bool;
  mutable stored : bool;
  mutable only_init_consts : bool;
}

type t = {
  stats : (string, sym_stats) Hashtbl.t;
  syms : (string, symbol) Hashtbl.t;
  mods : (string, Sset.t) Hashtbl.t; (* function -> symbols possibly written *)
  refs : (string, Sset.t) Hashtbl.t;
  externs_mod : Sset.t;
}

type deftab = rvalue option Regtab.t

let deftab fn =
  let tbl = Regtab.create fn.fn_next_var None in
  iter_instrs (fun _ i -> match i with Def (v, rv) -> Regtab.set tbl v (Some rv) | _ -> ()) fn;
  tbl

let def_rvalue = Regtab.get

let def_rvalue_resolved (tbl : deftab) v =
  let rec go fuel v =
    if fuel <= 0 then None
    else
      match Regtab.get tbl v with
      | Some (Op (Reg w)) as def -> ( match go (fuel - 1) w with None -> def | r -> r)
      | r -> r
  in
  go 8 v

(* Follow the SSA def chain of a pointer operand, fuel-bounded to stay linear
   even on pathological chains. *)
let resolve_addr (tbl : deftab) op =
  let rec go fuel op =
    if fuel <= 0 then Aunknown
    else
      match op with
      | Const _ -> Aunknown (* integer used as pointer: a trap at runtime *)
      | Reg v -> (
        match def_rvalue tbl v with
        | Some (Addr (s, Const k)) -> Asym (s, Some k)
        | Some (Addr (s, _)) -> Asym (s, None)
        | Some (Op a) -> go (fuel - 1) a
        | Some (Ptradd (p, Const k)) -> (
          match go (fuel - 1) p with
          | Asym (s, Some base) -> Asym (s, Some (base + k))
          | Asym (s, None) -> Asym (s, None)
          | Aunknown -> Aunknown)
        | Some (Ptradd (p, _)) -> (
          match go (fuel - 1) p with
          | Asym (s, _) -> Asym (s, None)
          | Aunknown -> Aunknown)
        | Some (Binary (Dce_minic.Ops.Add, p, Const k)) -> (
          match go (fuel - 1) p with
          | Asym (s, Some base) -> Asym (s, Some (base + k))
          | Asym (s, None) -> Asym (s, None)
          | Aunknown -> Aunknown)
        | Some (Phi args) -> (
          (* all incoming the same symbol: keep the symbol, drop the offset *)
          let descs = List.map (fun (_, a) -> go (fuel - 1) a) args in
          match descs with
          | [] -> Aunknown
          | first :: rest ->
            let sym_of = function Asym (s, _) -> Some s | Aunknown -> None in
            if List.for_all (fun d -> sym_of d = sym_of first && sym_of d <> None) rest then
              match first with
              | Asym (s, _) -> Asym (s, None)
              | Aunknown -> Aunknown
            else Aunknown)
        | Some (Load _) | Some (Unary _) | Some (Binary _) | None -> Aunknown)
  in
  go 16 op

(* resolve an operand as a compile-time integer constant, following copies *)
let resolve_const (tbl : deftab) op =
  let rec go fuel op =
    if fuel <= 0 then None
    else
      match op with
      | Const k -> Some k
      | Reg v -> (
        match def_rvalue tbl v with
        | Some (Op a) -> go (fuel - 1) a
        | _ -> None)
  in
  go 8 op

let stat tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
    let s = { escaped = false; stored = false; only_init_consts = true } in
    Hashtbl.replace tbl name s;
    s

let analyze prog =
  let stats = Hashtbl.create 64 in
  let syms = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace syms s.sym_name s) prog.prog_syms;
  (* symbol addresses embedded in initializers escape to memory *)
  List.iter
    (fun s ->
      Array.iter
        (function
          | Caddr (target, _) -> (stat stats target).escaped <- true
          | Cint _ -> ())
        s.sym_init)
    prog.prog_syms;
  (* per-function: escapes and direct stores *)
  let direct_mods = Hashtbl.create 16 in
  let direct_refs = Hashtbl.create 16 in
  let calls = Hashtbl.create 16 in (* function -> callee names *)
  let defined = Hashtbl.create 16 in
  List.iter (fun fn -> Hashtbl.replace defined fn.fn_name ()) prog.prog_funcs;
  List.iter
    (fun fn ->
      let dt = deftab fn in
      let mods = ref Sset.empty in
      let refs = ref Sset.empty in
      let callees = ref Sset.empty in
      let unknown_store = ref false in
      let unknown_load = ref false in
      (* track which registers (transitively) hold a symbol's address, to
         detect escapes through operands *)
      let reg_syms = Regtab.create fn.fn_next_var Sset.empty in
      let syms_of = function
        | Const _ -> Sset.empty
        | Reg v -> Regtab.get reg_syms v
      in
      (* two passes so that phis see later defs *)
      for _round = 1 to 2 do
        iter_instrs
          (fun _ i ->
            match i with
            | Def (v, rv) ->
              let s =
                match rv with
                | Addr (sym, _) -> Sset.singleton sym
                | Op a | Ptradd (a, _) | Unary (_, a) -> syms_of a
                | Binary (_, a, b) -> Sset.union (syms_of a) (syms_of b)
                | Phi args ->
                  List.fold_left (fun acc (_, a) -> Sset.union acc (syms_of a)) Sset.empty args
                | Load _ -> Sset.empty
              in
              let existing = Regtab.get reg_syms v in
              if not (Sset.subset s existing) then Regtab.set reg_syms v (Sset.union existing s)
            | Store _ | Call _ | Marker _ -> ())
          fn
      done;
      iter_instrs
        (fun _ i ->
          match i with
          | Def (_, Load p) -> (
            match resolve_addr dt p with
            | Asym (s, _) -> refs := Sset.add s !refs
            | Aunknown -> unknown_load := true)
          | Def _ -> ()
          | Store (p, value) -> (
            (* a pointer stored into memory escapes *)
            Sset.iter (fun s -> (stat stats s).escaped <- true) (syms_of value);
            match resolve_addr dt p with
            | Asym (s, off) ->
              mods := Sset.add s !mods;
              let st = stat stats s in
              st.stored <- true;
              let const_matches_init =
                match (off, resolve_const dt value, Hashtbl.find_opt syms s) with
                | Some o, Some k, Some sym
                  when o >= 0 && o < Array.length sym.sym_init -> (
                  match sym.sym_init.(o) with
                  | Cint init -> init = k
                  | Caddr _ -> false)
                | _ -> false
              in
              if not const_matches_init then st.only_init_consts <- false
            | Aunknown -> unknown_store := true)
          | Call (_, name, args) ->
            callees := Sset.add name !callees;
            (* pointers passed to any call escape conservatively *)
            List.iter (fun a -> Sset.iter (fun s -> (stat stats s).escaped <- true) (syms_of a)) args
          | Marker _ ->
            (* a marker is a call to an undefined function: it may read and
               write whatever an extern can *)
            callees := Sset.add "\000marker" !callees)
        fn;
      (* returned pointers escape *)
      Imap.iter
        (fun _ b ->
          match b.b_term with
          | Ret (Some a) -> Sset.iter (fun s -> (stat stats s).escaped <- true) (syms_of a)
          | _ -> ())
        fn.fn_blocks;
      Hashtbl.replace direct_mods fn.fn_name (!mods, !unknown_store);
      Hashtbl.replace direct_refs fn.fn_name (!refs, !unknown_load);
      Hashtbl.replace calls fn.fn_name !callees)
    prog.prog_funcs;
  (* escaped set is now final; writes through unknown pointers hit escaped syms *)
  let escaped_set =
    Hashtbl.fold (fun name s acc -> if s.escaped then Sset.add name acc else acc) stats Sset.empty
  in
  let non_static_globals =
    List.filter_map
      (fun s ->
        match s.sym_kind with
        | `Global when not s.sym_static -> Some s.sym_name
        | `Global | `Frame _ -> None)
      prog.prog_syms
    |> Sset.of_list
  in
  let externs_mod = Sset.union escaped_set non_static_globals in
  Sset.iter
    (fun name ->
      let st = stat stats name in
      (* escaped symbols may be written through unknown pointers with unknown
         values; give up on const-store tracking *)
      st.stored <- true;
      st.only_init_consts <- false)
    escaped_set;
  (* non-static globals can be written by extern calls (other TUs) *)
  let any_extern_call =
    List.exists
      (fun fn ->
        marker_ids fn <> []
        || List.exists (fun name -> not (Hashtbl.mem defined name)) (called_names fn))
      prog.prog_funcs
  in
  if any_extern_call then
    Sset.iter
      (fun name ->
        let st = stat stats name in
        st.stored <- true;
        st.only_init_consts <- false)
      non_static_globals;
  (* transitive mod/ref over the call graph *)
  let mods = Hashtbl.create 16 in
  let refs = Hashtbl.create 16 in
  List.iter
    (fun fn ->
      let m, mu = Hashtbl.find direct_mods fn.fn_name in
      let r, ru = Hashtbl.find direct_refs fn.fn_name in
      (* writes/reads through unknown pointers may touch any escaped symbol
         or non-static global *)
      Hashtbl.replace mods fn.fn_name (if mu then Sset.union m externs_mod else m);
      Hashtbl.replace refs fn.fn_name (if ru then Sset.union r externs_mod else r))
    prog.prog_funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        let callees = Hashtbl.find calls fn.fn_name in
        let cur_m = Hashtbl.find mods fn.fn_name in
        let cur_r = Hashtbl.find refs fn.fn_name in
        let new_m, new_r =
          Sset.fold
            (fun callee (am, ar) ->
              if Hashtbl.mem defined callee then
                ( Sset.union am (Hashtbl.find mods callee),
                  Sset.union ar (Hashtbl.find refs callee) )
              else (Sset.union am externs_mod, Sset.union ar externs_mod))
            callees (cur_m, cur_r)
        in
        if not (Sset.equal new_m cur_m) then begin
          Hashtbl.replace mods fn.fn_name new_m;
          changed := true
        end;
        if not (Sset.equal new_r cur_r) then begin
          Hashtbl.replace refs fn.fn_name new_r;
          changed := true
        end)
      prog.prog_funcs
  done;
  { stats; syms; mods; refs; externs_mod }

let escaped t name =
  match Hashtbl.find_opt t.stats name with Some s -> s.escaped | None -> false

let ever_stored t name =
  match Hashtbl.find_opt t.stats name with Some s -> s.stored | None -> false

let stores_only_init_consts t name =
  match Hashtbl.find_opt t.stats name with Some s -> s.only_init_consts | None -> true

let init_cell t name off =
  match Hashtbl.find_opt t.syms name with
  | Some sym when off >= 0 && off < Array.length sym.sym_init -> Some sym.sym_init.(off)
  | _ -> None

let is_static_like t name =
  match Hashtbl.find_opt t.syms name with
  | Some sym -> (match sym.sym_kind with `Frame _ -> true | `Global -> sym.sym_static)
  | None -> false

let symbol t name = Hashtbl.find_opt t.syms name

let all_symbols t =
  Hashtbl.fold (fun _ sym acc -> sym :: acc) t.syms []
  |> List.sort (fun a b -> compare a.sym_name b.sym_name)

let unknown_may_touch t name = (not (is_static_like t name)) || escaped t name

let tracked_symbols t =
  Hashtbl.fold
    (fun name sym acc ->
      if is_static_like t name && not (escaped t name) then sym :: acc else acc)
    t.syms []
  |> List.sort (fun a b -> compare a.sym_name b.sym_name)

let is_defined_function t fname = Hashtbl.mem t.mods fname

let mod_set t fname = Option.value ~default:t.externs_mod (Hashtbl.find_opt t.mods fname)
let ref_set t fname = Option.value ~default:t.externs_mod (Hashtbl.find_opt t.refs fname)
let extern_mod_set t = t.externs_mod
