module Ir = Dce_ir.Ir
module Pi = Dce_opt.Passinfo

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
(* the analysis manager                                                *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable cur : Ir.program;
  mutable cached_meminfo : Dce_opt.Meminfo.t option;
  preds : (string, Ir.label list Ir.Imap.t) Hashtbl.t;
  doms : (string, Dce_ir.Dom.t) Hashtbl.t;
}

let create prog =
  { cur = prog; cached_meminfo = None; preds = Hashtbl.create 8; doms = Hashtbl.create 8 }

let meminfo t =
  match t.cached_meminfo with
  | Some mi ->
    bump c_meminfo_hits;
    mi
  | None ->
    bump c_meminfo_misses;
    let mi = Dce_opt.Meminfo.analyze t.cur in
    t.cached_meminfo <- Some mi;
    mi

let predecessors t fn =
  match Hashtbl.find_opt t.preds fn.Ir.fn_name with
  | Some p ->
    bump c_cfg_hits;
    p
  | None ->
    bump c_cfg_misses;
    let p = Dce_ir.Cfg.predecessors fn in
    Hashtbl.replace t.preds fn.Ir.fn_name p;
    p

let dominators t fn =
  match Hashtbl.find_opt t.doms fn.Ir.fn_name with
  | Some d ->
    bump c_dom_hits;
    d
  | None ->
    bump c_dom_misses;
    let d = Dce_ir.Dom.compute fn in
    Hashtbl.replace t.doms fn.Ir.fn_name d;
    d

(* ------------------------------------------------------------------ *)
(* change detection and invalidation                                   *)
(* ------------------------------------------------------------------ *)

(* Which functions a pass changed.  [Structure] covers everything that makes
   name-keyed per-function caches unsafe wholesale: symbols, externs, or the
   function list itself changed. *)
type change = Unchanged | Funcs of string list | Structure

(* Structural [=] walks physically shared values to the leaves (symbol init
   arrays included), and most stages return most of the program untouched,
   so every comparison checks [==] first. *)
let same a b = a == b || a = b

let diff_programs (before : Ir.program) (after : Ir.program) =
  if before == after then Unchanged
  else if
    (not (same before.Ir.prog_syms after.Ir.prog_syms))
    || before.Ir.prog_externs <> after.Ir.prog_externs
    || List.map (fun f -> f.Ir.fn_name) before.Ir.prog_funcs
       <> List.map (fun f -> f.Ir.fn_name) after.Ir.prog_funcs
  then Structure
  else begin
    let changed =
      List.fold_left2
        (fun acc fb fa -> if same fb fa then acc else fb.Ir.fn_name :: acc)
        [] before.Ir.prog_funcs after.Ir.prog_funcs
    in
    match changed with [] -> Unchanged | names -> Funcs names
  end

let invalidate t (info : Pi.t) = function
  | Unchanged -> ()
  | Structure ->
    if not (Pi.preserves info Pi.Meminfo) then t.cached_meminfo <- None;
    (* name-keyed caches cannot survive a change to the function set, even
       under a [preserves] declaration *)
    Hashtbl.reset t.preds;
    Hashtbl.reset t.doms
  | Funcs names ->
    if not (Pi.preserves info Pi.Meminfo) then t.cached_meminfo <- None;
    List.iter
      (fun n ->
        if not (Pi.preserves info Pi.Cfg) then Hashtbl.remove t.preds n;
        if not (Pi.preserves info Pi.Dominators) then Hashtbl.remove t.doms n)
      names

(* ------------------------------------------------------------------ *)
(* passes and instrumented execution                                   *)
(* ------------------------------------------------------------------ *)

type pass = {
  p_info : Pi.t;
  p_label : string;
  p_key : string;
  p_run : t -> Ir.program -> Ir.program;
}

let make_pass ?label ~config info run =
  let label = Option.value ~default:info.Pi.pass_name label in
  (* [Marshal] raises on a closure, so a config can hold nothing the key
     would not see *)
  {
    p_info = info;
    p_label = label;
    p_key = label ^ "\000" ^ Marshal.to_string config [];
    p_run = run config;
  }

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

let marker_set prog =
  List.fold_left (fun s m -> Ir.Iset.add m s) Ir.Iset.empty (Ir.program_marker_ids prog)

(* ------------------------------------------------------------------ *)
(* the stage memo                                                      *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_key : string;
  e_input : Ir.program;
  e_output : Ir.program option;  (* [None]: the stage left its input unchanged *)
  e_record : stage_record;
  e_change : change;
}

type memo = (int, entry) Hashtbl.t

let memo () : memo = Hashtbl.create 64

(* Each function's hash is bounded, so hashing costs the same on every
   stage; [same_program] decides.  Unchanged functions stay physically
   shared from stage to stage and config to config, so [==] settles most of
   the comparison. *)
let memo_hash key (prog : Ir.program) =
  List.fold_left
    (fun h fn -> (h * 31) + Hashtbl.hash_param 16 64 fn)
    (Hashtbl.hash key) prog.Ir.prog_funcs

let same_program (a : Ir.program) (b : Ir.program) =
  a == b
  || same a.Ir.prog_syms b.Ir.prog_syms
     && a.Ir.prog_externs = b.Ir.prog_externs
     && List.equal same a.Ir.prog_funcs b.Ir.prog_funcs

let memo_find (m : memo) hash pass prog =
  List.find_opt
    (fun e -> String.equal e.e_key pass.p_key && same_program e.e_input prog)
    (Hashtbl.find_all m hash)

let memo_add (m : memo) hash pass prog (out, record, change) =
  let entry =
    {
      e_key = pass.p_key;
      e_input = prog;
      e_output = (if change = Unchanged then None else Some out);
      e_record = record;
      e_change = change;
    }
  in
  Hashtbl.add m hash entry

(* ------------------------------------------------------------------ *)
(* instrumented execution                                              *)
(* ------------------------------------------------------------------ *)

let execute ?check t pass round prog =
  t.cur <- prog;
  let markers_before = marker_set prog in
  let blocks_before = Ir.program_block_count prog in
  let instrs_before = Ir.program_instr_count prog in
  let t0 = Dce_support.Clock.now () in
  let prog' = pass.p_run t prog in
  let dt = Dce_support.Clock.now () -. t0 in
  let prog' =
    match Domain.DLS.get ir_hook_key with None -> prog' | Some f -> f pass.p_label prog'
  in
  (match check with Some f -> f pass.p_label prog' | None -> ());
  let diff = diff_programs prog prog' in
  invalidate t pass.p_info diff;
  let changed = diff <> Unchanged in
  (* keep the pre-pass value alive when nothing changed, so structurally
     identical programs stay physically shared across no-op stages *)
  let prog' = if changed then prog' else prog in
  t.cur <- prog';
  let record =
    {
      sr_label = pass.p_label;
      sr_round = round;
      sr_time = dt;
      sr_changed = changed;
      sr_blocks_before = blocks_before;
      sr_blocks_after = (if changed then Ir.program_block_count prog' else blocks_before);
      sr_instrs_before = instrs_before;
      sr_instrs_after = (if changed then Ir.program_instr_count prog' else instrs_before);
      sr_markers_eliminated =
        (if changed then Ir.Iset.elements (Ir.Iset.diff markers_before (marker_set prog'))
         else []);
    }
  in
  (prog', record, diff)

let run_pass ?(round = 0) ?check ?memo t pass prog =
  (* supervision poll point: one per executed or replayed stage, so a
     fixpoint that never converges (or an unroll bomb inside one pass
     boundary) is cut by the ambient deadline/step budget between stages,
     and a step budget trips at the same count with or without the memo *)
  Dce_support.Guard.poll ~site:pass.p_label;
  match memo with
  | None ->
    let prog', record, _ = execute ?check t pass round prog in
    (prog', record)
  | Some m -> (
    let hash = memo_hash pass.p_key prog in
    match memo_find m hash pass prog with
    | Some e ->
      (* a replay: the manager drops what the stage's change invalidates,
         exactly as after an execution; the IR hook and the validator saw
         this output when it was computed *)
      bump c_memo_hits;
      let prog' = Option.value ~default:prog e.e_output in
      invalidate t pass.p_info e.e_change;
      t.cur <- prog';
      (prog', { e.e_record with sr_round = round })
    | None ->
      bump c_memo_misses;
      let ((prog', record, _) as out) = execute ?check t pass round prog in
      memo_add m hash pass prog out;
      (prog', record))

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
