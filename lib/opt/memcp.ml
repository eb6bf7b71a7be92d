open Dce_ir
open Ir

type config = {
  use_call_summaries : bool;
  edge_aware : bool;
  uniform_arrays : bool;
  precision : Alias.precision;
}

let default_config =
  {
    use_call_summaries = true;
    edge_aware = true;
    uniform_arrays = true;
    precision = Alias.Full;
  }

(* cost caps: functions with more blocks are skipped, and only symbols of
   at most [cell_limit] cells are tracked *)
let block_limit = 512
let cell_limit = 32

(* per-cell lattice: constant > Nac; "no information yet" is represented by a
   block simply not having an in-state yet *)
type cval = Kint of int | Kaddr of string * int | Nac

let meet a b =
  match (a, b) with
  | Nac, _ | _, Nac -> Nac
  | Kint x, Kint y -> if x = y then a else Nac
  | Kaddr (s1, o1), Kaddr (s2, o2) -> if s1 = s2 && o1 = o2 then a else Nac
  | Kint _, Kaddr _ | Kaddr _, Kint _ -> Nac

let cval_equal a b =
  match (a, b) with
  | Kint x, Kint y -> x = y
  | Kaddr (s1, o1), Kaddr (s2, o2) -> String.equal s1 s2 && o1 = o2
  | Nac, Nac -> true
  | (Kint _ | Kaddr _ | Nac), _ -> false

type cells = {
  base : (string, int) Hashtbl.t; (* symbol -> first cell index *)
  sizes : (string, int) Hashtbl.t;
  unknown_reachable : int list;   (* indices unknown pointers may write *)
  total : int;
}

let build_cells info =
  let base = Hashtbl.create 16 in
  let sizes = Hashtbl.create 16 in
  let next = ref 0 in
  let unknown_reachable = ref [] in
  List.iter
    (fun sym ->
      if sym.sym_size <= cell_limit then begin
        Hashtbl.replace base sym.sym_name !next;
        Hashtbl.replace sizes sym.sym_name sym.sym_size;
        if Meminfo.unknown_may_touch info sym.sym_name then
          for i = !next to !next + sym.sym_size - 1 do
            unknown_reachable := i :: !unknown_reachable
          done;
        next := !next + sym.sym_size
      end)
    (Meminfo.all_symbols info);
  { base; sizes; unknown_reachable = !unknown_reachable; total = !next }

let cell_index cells sym off =
  match (Hashtbl.find_opt cells.base sym, Hashtbl.find_opt cells.sizes sym) with
  | Some b, Some size when off >= 0 && off < size -> Some (b + off)
  | _ -> None

let clobber_sym cells state sym =
  match (Hashtbl.find_opt cells.base sym, Hashtbl.find_opt cells.sizes sym) with
  | Some b, Some size ->
    for i = b to b + size - 1 do
      state.(i) <- Nac
    done
  | _ -> ()

let clobber_all cells state =
  for i = 0 to cells.total - 1 do
    state.(i) <- Nac
  done

let clobber_unknown cells state = List.iter (fun i -> state.(i) <- Nac) cells.unknown_reachable

let stored_value dt v =
  match Meminfo.resolve_const dt v with
  | Some k -> Kint k
  | None -> (
    match Meminfo.resolve_addr dt v with
    | Meminfo.Asym (s, Some o) -> Kaddr (s, o)
    | Meminfo.Asym (_, None) | Meminfo.Aunknown -> Nac)

(* transfer of one instruction; [on_load] is called with the state valid
   before the load executes *)
let transfer config info cells dt ~on_load state i =
  match i with
  | Def (v, Load p) -> (
    match Meminfo.resolve_addr dt p with
    | Meminfo.Asym (s, Some k) -> (
      match cell_index cells s k with
      | Some idx -> on_load v state.(idx)
      | None -> ())
    | Meminfo.Asym (s, None) when config.uniform_arrays -> (
      (* unknown index into a never-stored, never-escaping static array whose
         initializer cells are all equal: the load yields that value
         irrespective of the index (paper Listing 9f: if (b[a]) with b
         all-zero).  In-bounds is guaranteed by MiniC's total semantics (an
         OOB access would have trapped and the program been discarded). *)
      if
        Meminfo.is_static_like info s
        && (not (Meminfo.escaped info s))
        && not (Meminfo.ever_stored info s)
      then
        match Meminfo.symbol info s with
        | Some sym when sym.sym_size > 0 ->
          let first = sym.sym_init.(0) in
          if Array.for_all (fun c -> c = first) sym.sym_init then
            on_load v
              (match first with
               | Cint n -> Kint n
               | Caddr (s', o') -> Kaddr (s', o'))
        | _ -> ())
    | Meminfo.Asym (_, None) | Meminfo.Aunknown -> ())
  | Def _ -> ()
  | Store (p, v) -> (
    match Meminfo.resolve_addr dt p with
    | Meminfo.Asym (s, Some k) -> (
      match cell_index cells s k with
      | Some idx -> state.(idx) <- stored_value dt v
      | None -> ())
    | Meminfo.Asym (s, None) -> clobber_sym cells state s
    | Meminfo.Aunknown ->
      (* only full alias precision may exploit escape information here *)
      if config.precision = Alias.Full then clobber_unknown cells state
      else clobber_all cells state)
  | Call (_, name, _) ->
    (* an extern callee can only touch extern-visible symbols, summaries or
       not (it lives in another TU); summaries only refine defined callees *)
    if Meminfo.is_defined_function info name then
      if config.use_call_summaries then
        Meminfo.Sset.iter (fun s -> clobber_sym cells state s) (Meminfo.mod_set info name)
      else clobber_all cells state
    else Meminfo.Sset.iter (fun s -> clobber_sym cells state s) (Meminfo.extern_mod_set info)
  | Marker _ ->
    Meminfo.Sset.iter (fun s -> clobber_sym cells state s) (Meminfo.extern_mod_set info)

(* the value of a branch condition, when decidable from register constants or
   from a load of a tracked constant cell *)
let cond_value config cells dt state c =
  match Meminfo.resolve_const dt c with
  | Some k -> Some (Kint k)
  | None -> (
    if not config.edge_aware then None
    else
      match c with
      | Const k -> Some (Kint k)
      | Reg v -> (
        match Meminfo.def_rvalue dt v with
        | Some (Load p) -> (
          match Meminfo.resolve_addr dt p with
          | Meminfo.Asym (s, Some k) -> (
            match cell_index cells s k with
            | Some idx -> ( match state.(idx) with Nac -> None | cv -> Some cv)
            | None -> None)
          | Meminfo.Asym (_, None) | Meminfo.Aunknown -> None)
        | Some (Addr _) -> Some (Kaddr ("", 0)) (* addresses are truthy *)
        | _ -> None))

let feasible_succs config cells dt state term =
  match term with
  | Jmp l -> [ l ]
  | Ret _ -> []
  | Br (c, lt, lf) -> (
    match cond_value config cells dt state c with
    | Some (Kint 0) -> [ lf ]
    | Some (Kint _) | Some (Kaddr _) -> [ lt ]
    | None | Some Nac -> [ lt; lf ])
  | Switch (c, cases, dflt) -> (
    match cond_value config cells dt state c with
    | Some (Kint k) -> [ Option.value ~default:dflt (List.assoc_opt k cases) ]
    | _ -> List.map snd cases @ [ dflt ])

let has_load fn =
  Imap.exists
    (fun _ b -> List.exists (function Def (_, Load _) -> true | _ -> false) b.b_instrs)
    fn.fn_blocks

(* the dataflow and rewrite of one function that loads *)
let rewrite_loads config info cells fn =
  let dt = Meminfo.deftab fn in
  (* no seeding from initializers: a real compiler may not assume a
     global still holds its initial value at function entry (the whole
     point of the paper's Listings 4/6a) — constants flow from stores *)
  let entry_state = Array.make cells.total Nac in
  let in_states : (label, cval array) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.replace in_states fn.fn_entry entry_state;
  let rpo = Cfg.reverse_postorder fn in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun l ->
        match Hashtbl.find_opt in_states l with
        | None -> () (* not (yet) feasible *)
        | Some in_state ->
          let state = Array.copy in_state in
          let b = block fn l in
          List.iter
            (fun i -> transfer config info cells dt ~on_load:(fun _ _ -> ()) state i)
            b.b_instrs;
          List.iter
            (fun s ->
              match Hashtbl.find_opt in_states s with
              | None ->
                Hashtbl.replace in_states s (Array.copy state);
                changed := true
              | Some existing ->
                let any = ref false in
                Array.iteri
                  (fun i v ->
                    let m = meet v state.(i) in
                    if not (cval_equal m v) then begin
                      existing.(i) <- m;
                      any := true
                    end)
                  existing;
                if !any then changed := true)
            (feasible_succs config cells dt state b.b_term))
      rpo
  done;
  (* rewrite loads whose cell holds a single constant *)
  let rewrites : (int, rvalue) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun l ->
      match Hashtbl.find_opt in_states l with
      | None -> ()
      | Some in_state ->
        let state = Array.copy in_state in
        let b = block fn l in
        List.iter
          (fun i ->
            transfer config info cells dt
              ~on_load:(fun v cv ->
                match cv with
                | Kint k -> Hashtbl.replace rewrites v (Op (Const k))
                | Kaddr (s, o) -> Hashtbl.replace rewrites v (Addr (s, Const o))
                | Nac -> ())
              state i)
          b.b_instrs)
    rpo;
  if Hashtbl.length rewrites = 0 then fn
  else begin
    let rewrite i =
      match i with
      | Def (v, Load _) -> (
        match Hashtbl.find_opt rewrites v with Some rv -> Def (v, rv) | None -> i)
      | _ -> i
    in
    map_blocks (fun _ b -> with_instrs b (Dce_support.Listx.map_shared rewrite b.b_instrs)) fn
  end

(* [run config info] builds the cell table once for every function of the
   program [info] describes *)
let run config info =
  let cells = build_cells info in
  fun fn ->
    if
      cells.total = 0
      || Imap.cardinal fn.fn_blocks > block_limit
      || not (has_load fn)
    then fn
    else rewrite_loads config info cells fn
