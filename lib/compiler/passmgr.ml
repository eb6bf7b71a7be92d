module Ir = Dce_ir.Ir

(* ------------------------------------------------------------------ *)
(* checked mode and fault injection                                    *)
(* ------------------------------------------------------------------ *)

exception Ir_invalid of { pass : string; errors : string list }

let () =
  Printexc.register_printer (function
    | Ir_invalid { pass; errors } ->
      Some
        (Printf.sprintf "pass %s produced invalid IR:\n%s" pass (String.concat "\n" errors))
    | _ -> None)

(* The ambient per-domain IR fault hook: applied to every pass's output
   program before the validation check, so an injected corruption is
   attributed to exactly the pass it was planted after — the same blame the
   checked mode would assign a real pass bug.  Per-domain (DLS) because
   campaign workers arm chaos plans independently. *)
let ir_hook_key : (string -> Ir.program -> Ir.program) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_ir_hook h = Domain.DLS.set ir_hook_key h

(* ------------------------------------------------------------------ *)
(* cache counters                                                      *)
(* ------------------------------------------------------------------ *)

type counters = {
  meminfo_hits : int;
  meminfo_misses : int;
  cfg_hits : int;
  cfg_misses : int;
  dom_hits : int;
  dom_misses : int;
  memo_hits : int;
  memo_misses : int;
}

(* atomics: campaign workers compile from several domains at once, and the
   process-wide totals must aggregate across all of them without losing
   increments *)
let c_meminfo_hits = Atomic.make 0
let c_meminfo_misses = Atomic.make 0
let c_cfg_hits = Atomic.make 0
let c_cfg_misses = Atomic.make 0
let c_dom_hits = Atomic.make 0
let c_dom_misses = Atomic.make 0
let c_memo_hits = Atomic.make 0
let c_memo_misses = Atomic.make 0

let bump c = Atomic.incr c

let counters () =
  {
    meminfo_hits = Atomic.get c_meminfo_hits;
    meminfo_misses = Atomic.get c_meminfo_misses;
    cfg_hits = Atomic.get c_cfg_hits;
    cfg_misses = Atomic.get c_cfg_misses;
    dom_hits = Atomic.get c_dom_hits;
    dom_misses = Atomic.get c_dom_misses;
    memo_hits = Atomic.get c_memo_hits;
    memo_misses = Atomic.get c_memo_misses;
  }

let reset_counters () =
  Atomic.set c_meminfo_hits 0;
  Atomic.set c_meminfo_misses 0;
  Atomic.set c_cfg_hits 0;
  Atomic.set c_cfg_misses 0;
  Atomic.set c_dom_hits 0;
  Atomic.set c_dom_misses 0;
  Atomic.set c_memo_hits 0;
  Atomic.set c_memo_misses 0

let hit_rate c =
  let hits = c.meminfo_hits + c.cfg_hits + c.dom_hits in
  let total = hits + c.meminfo_misses + c.cfg_misses + c.dom_misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let memo_hit_rate c =
  let total = c.memo_hits + c.memo_misses in
  if total = 0 then 0. else float_of_int c.memo_hits /. float_of_int total

(* ------------------------------------------------------------------ *)
(* program identity                                                    *)
(* ------------------------------------------------------------------ *)

(* Structural [=] walks physically shared values to the leaves (symbol init
   arrays included), while [compare] skips every physically shared
   sub-value; the IR holds no floats, so the two agree.  Passes rebuild only
   what they change, so most of a changed function is still shared. *)
let same a b = a == b || compare a b = 0

let same_program (a : Ir.program) (b : Ir.program) =
  a == b
  || same a.Ir.prog_syms b.Ir.prog_syms
     && a.Ir.prog_externs = b.Ir.prog_externs
     && List.equal same a.Ir.prog_funcs b.Ir.prog_funcs

(* Each function's hash is bounded, so hashing costs the same on every
   stage; [same_program] decides.  Unchanged functions stay physically
   shared from stage to stage and config to config, so [==] settles most of
   the comparison. *)
let func_hash fn = Hashtbl.hash_param 16 64 fn

(* ------------------------------------------------------------------ *)
(* the analysis manager                                                *)
(* ------------------------------------------------------------------ *)

(* Meminfo is a function of the program alone, so one table answers every
   manager that runs over the same programs. *)
type meminfo_memo = (int, Ir.program * Dce_opt.Meminfo.t) Hashtbl.t

let meminfo_memo () : meminfo_memo = Hashtbl.create 16

(* A function's trace figures *)
type func_stats = { fs_blocks : int; fs_instrs : int; fs_markers : Ir.Iset.t }

(* A function's predecessor map and dominator tree, computed on first
   request.  The cell holds no function: a stage's output function shares
   the cell of the same-named function it replaced when the two have the
   same CFG inputs, so whichever filled it answers for both. *)
type cfg_cell = {
  mutable c_preds : Ir.label list Ir.Imap.t option;
  mutable c_dom : Dce_ir.Dom.t option;
}

(* What the manager knows of one function: its hash, its figures, measured
   on first demand (a replayed stage needs none), and its CFG analyses. *)
type func_info = { fi_hash : int; fi_stats : func_stats Lazy.t; fi_cfg : cfg_cell }

type t = {
  mutable cur : Ir.program;
  meminfos : meminfo_memo;
  mutable infos_of : Ir.func list;  (* the function list last looked at *)
  mutable infos : (Ir.func * func_info) list;  (* and what is known of it *)
}

let create meminfos prog = { cur = prog; meminfos; infos_of = []; infos = [] }

let func_stats fn =
  {
    fs_blocks = Ir.block_count fn;
    fs_instrs = Ir.instr_count fn;
    fs_markers = Ir.Iset.of_list (Ir.marker_ids fn);
  }

(* Whether two functions agree on everything [Cfg.predecessors] and
   [Dom.compute] read: the entry, the block labels and each block's
   successor list, in order. *)
let same_cfg (a : Ir.func) (b : Ir.func) =
  a.Ir.fn_entry = b.Ir.fn_entry
  && (a.Ir.fn_blocks == b.Ir.fn_blocks
     || Ir.Imap.equal
          (fun ba bb ->
            ba.Ir.b_term == bb.Ir.b_term || Ir.successors ba.Ir.b_term = Ir.successors bb.Ir.b_term)
          a.Ir.fn_blocks b.Ir.fn_blocks)

(* A function the last list did not hold keeps the CFG analyses of the
   same-named function there when [same_cfg] holds. *)
let new_info prev fn =
  let fi_cfg =
    match List.find_opt (fun (f, _) -> String.equal f.Ir.fn_name fn.Ir.fn_name) prev with
    | Some (f, i) when same_cfg f fn -> i.fi_cfg
    | Some _ | None -> { c_preds = None; c_dom = None }
  in
  { fi_hash = func_hash fn; fi_stats = lazy (func_stats fn); fi_cfg }

(* Found by physical identity, so only the functions the last program did
   not hold are hashed and measured: once [reshare] has handed back the
   functions a stage left equal, those are the functions it changed. *)
let func_infos t (prog : Ir.program) =
  if prog.Ir.prog_funcs != t.infos_of then begin
    t.infos <-
      List.map
        (fun fn ->
          match List.assq_opt fn t.infos with
          | Some i -> (fn, i)
          | None -> (fn, new_info t.infos fn))
        prog.Ir.prog_funcs;
    t.infos_of <- prog.Ir.prog_funcs
  end;
  t.infos

let program_hash seed infos = List.fold_left (fun h (_, i) -> (h * 31) + i.fi_hash) seed infos

let meminfo t =
  let hash = program_hash 0 (func_infos t t.cur) in
  match List.find_opt (fun (p, _) -> same_program p t.cur) (Hashtbl.find_all t.meminfos hash) with
  | Some (_, mi) ->
    bump c_meminfo_hits;
    mi
  | None ->
    bump c_meminfo_misses;
    let mi = Dce_opt.Meminfo.analyze t.cur in
    Hashtbl.add t.meminfos hash (t.cur, mi);
    mi

(* A function of the current program answers from its cell; any other is
   analyzed afresh and counted as a miss. *)
let cfg_cell t fn = Option.map (fun i -> i.fi_cfg) (List.assq_opt fn (func_infos t t.cur))

let predecessors t fn =
  let cell = cfg_cell t fn in
  match Option.bind cell (fun c -> c.c_preds) with
  | Some p ->
    bump c_cfg_hits;
    p
  | None ->
    bump c_cfg_misses;
    let p = Dce_ir.Cfg.predecessors fn in
    Option.iter (fun c -> c.c_preds <- Some p) cell;
    p

let dominators t fn =
  let cell = cfg_cell t fn in
  match Option.bind cell (fun c -> c.c_dom) with
  | Some d ->
    bump c_dom_hits;
    d
  | None ->
    bump c_dom_misses;
    let d = Dce_ir.Dom.compute fn in
    Option.iter (fun c -> c.c_dom <- Some d) cell;
    d

(* ------------------------------------------------------------------ *)
(* re-sharing a stage's output                                         *)
(* ------------------------------------------------------------------ *)

(* The output with every part structurally equal to the input's replaced by
   the input's own: the next stage's comparisons and lookups then settle on
   [==], and a stage that changed nothing returns its input. *)
let reshare (before : Ir.program) (after : Ir.program) =
  if before == after then before
  else begin
    let pick eq b a = if eq b a then b else a in
    let syms = pick same before.Ir.prog_syms after.Ir.prog_syms in
    let externs = pick ( = ) before.Ir.prog_externs after.Ir.prog_externs in
    let share fa =
      match Ir.find_func before fa.Ir.fn_name with Some fb -> pick same fb fa | None -> fa
    in
    let funcs = List.map share after.Ir.prog_funcs in
    if
      syms == before.Ir.prog_syms
      && externs == before.Ir.prog_externs
      && List.equal ( == ) funcs before.Ir.prog_funcs
    then before
    else { Ir.prog_syms = syms; prog_funcs = funcs; prog_externs = externs }
  end

(* ------------------------------------------------------------------ *)
(* passes and instrumented execution                                   *)
(* ------------------------------------------------------------------ *)

type pass = { p_label : string; p_key : string; p_run : t -> Ir.program -> Ir.program }

let make_pass label ~config run =
  (* [Marshal] raises on a closure, so a config can hold nothing the key
     would not see *)
  { p_label = label; p_key = label ^ "\000" ^ Marshal.to_string config []; p_run = run config }

type stage_record = {
  sr_label : string;
  sr_round : int;
  sr_time : float;
  sr_changed : bool;
  sr_blocks_before : int;
  sr_blocks_after : int;
  sr_instrs_before : int;
  sr_instrs_after : int;
  sr_markers_eliminated : int list;
}

type trace = stage_record list

(* ------------------------------------------------------------------ *)
(* per-function bookkeeping                                            *)
(* ------------------------------------------------------------------ *)

let total field infos =
  List.fold_left (fun acc (_, i) -> acc + field (Lazy.force i.fi_stats)) 0 infos

let markers (_, i) = (Lazy.force i.fi_stats).fs_markers

(* The markers of [before] found in no function of [after]: only functions
   the stage replaced can have lost one, and only a function it did not
   keep can have gained one. *)
let markers_eliminated before after =
  let only_in a b =
    List.fold_left
      (fun acc ((fn, _) as f) -> if List.mem_assq fn b then acc else Ir.Iset.union acc (markers f))
      Ir.Iset.empty a
  in
  Ir.Iset.diff (only_in before after) (only_in after before)
  |> Ir.Iset.filter (fun m -> not (List.exists (fun f -> Ir.Iset.mem m (markers f)) after))
  |> Ir.Iset.elements

(* ------------------------------------------------------------------ *)
(* the stage memo                                                      *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_key : string;
  e_input : Ir.program;
  e_output : Ir.program option;  (* [None]: the stage left its input unchanged *)
  e_record : stage_record;
}

type memo = (int, entry) Hashtbl.t

let memo () : memo = Hashtbl.create 64

let memo_find (m : memo) hash pass prog =
  List.find_opt
    (fun e -> String.equal e.e_key pass.p_key && same_program e.e_input prog)
    (Hashtbl.find_all m hash)

let memo_add (m : memo) hash pass prog (out, record) =
  let entry =
    {
      e_key = pass.p_key;
      e_input = prog;
      e_output = (if record.sr_changed then Some out else None);
      e_record = record;
    }
  in
  Hashtbl.add m hash entry

(* ------------------------------------------------------------------ *)
(* instrumented execution                                              *)
(* ------------------------------------------------------------------ *)

let execute ?check t pass round prog =
  t.cur <- prog;
  let before = func_infos t prog in
  let t0 = Dce_support.Clock.now () in
  let prog' = pass.p_run t prog in
  let dt = Dce_support.Clock.now () -. t0 in
  let prog' =
    match Domain.DLS.get ir_hook_key with None -> prog' | Some f -> f pass.p_label prog'
  in
  (match check with Some f -> f pass.p_label prog' | None -> ());
  let prog' = reshare prog prog' in
  t.cur <- prog';
  let changed = prog' != prog in
  let after = if changed then func_infos t prog' else before in
  let record =
    {
      sr_label = pass.p_label;
      sr_round = round;
      sr_time = dt;
      sr_changed = changed;
      sr_blocks_before = total (fun s -> s.fs_blocks) before;
      sr_blocks_after = total (fun s -> s.fs_blocks) after;
      sr_instrs_before = total (fun s -> s.fs_instrs) before;
      sr_instrs_after = total (fun s -> s.fs_instrs) after;
      sr_markers_eliminated = (if changed then markers_eliminated before after else []);
    }
  in
  (prog', record)

let run_pass ?(round = 0) ?check ?memo t pass prog =
  (* supervision poll point: one per executed or replayed stage, so a
     fixpoint that never converges (or an unroll bomb inside one pass
     boundary) is cut by the ambient deadline/step budget between stages,
     and a step budget trips at the same count with or without the memo *)
  Dce_support.Guard.poll ~site:pass.p_label;
  match memo with
  | None -> execute ?check t pass round prog
  | Some m -> (
    let hash = program_hash (Hashtbl.hash pass.p_key) (func_infos t prog) in
    match memo_find m hash pass prog with
    | Some e ->
      (* a replay: the IR hook and the validator saw this output when it
         was computed *)
      bump c_memo_hits;
      let prog' = Option.value ~default:prog e.e_output in
      t.cur <- prog';
      (prog', { e.e_record with sr_round = round })
    | None ->
      bump c_memo_misses;
      let out = execute ?check t pass round prog in
      memo_add m hash pass prog out;
      out)

let run_fixpoint ?check ?memo ~max_rounds t passes prog =
  let trace = ref [] in
  let rec go round prog =
    let prog, round_changed =
      List.fold_left
        (fun (prog, any) pass ->
          let prog, record = run_pass ~round ?check ?memo t pass prog in
          trace := record :: !trace;
          (prog, any || record.sr_changed))
        (prog, false) passes
    in
    (* a round that changed nothing cannot change anything next time either:
       every pass is a deterministic function of the program *)
    if round_changed && round < max_rounds then go (round + 1) prog else prog
  in
  let prog = if max_rounds <= 0 then prog else go 1 prog in
  (prog, List.rev !trace)

(* ------------------------------------------------------------------ *)
(* trace rendering and queries                                         *)
(* ------------------------------------------------------------------ *)

let markers_eliminated_by trace ~marker =
  List.find_opt (fun r -> List.mem marker r.sr_markers_eliminated) trace

let attribution trace =
  List.filter_map
    (fun r ->
      if r.sr_markers_eliminated = [] then None
      else Some (r.sr_label, r.sr_markers_eliminated))
    trace

let trace_to_string ?(changed_only = false) trace =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-5s %-18s %10s %14s %14s  %s\n" "round" "stage" "time" "blocks" "instrs"
       "markers eliminated");
  List.iter
    (fun r ->
      if r.sr_changed || not changed_only then
        Buffer.add_string buf
          (Printf.sprintf "%-5s %-18s %8.1fus %6d -> %-5d %6d -> %-5d  %s%s\n"
             (if r.sr_round = 0 then "-" else string_of_int r.sr_round)
             r.sr_label (r.sr_time *. 1e6) r.sr_blocks_before r.sr_blocks_after
             r.sr_instrs_before r.sr_instrs_after
             (match r.sr_markers_eliminated with
              | [] -> "-"
              | ms -> "{" ^ String.concat "," (List.map string_of_int ms) ^ "}")
             (if r.sr_changed then "" else " (no change)")))
    trace;
  Buffer.contents buf
