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

let bump c = Atomic.incr c

let counters () =
  {
    meminfo_hits = Atomic.get c_meminfo_hits;
    meminfo_misses = Atomic.get c_meminfo_misses;
    cfg_hits = Atomic.get c_cfg_hits;
    cfg_misses = Atomic.get c_cfg_misses;
    dom_hits = Atomic.get c_dom_hits;
    dom_misses = Atomic.get c_dom_misses;
  }

let reset_counters () =
  Atomic.set c_meminfo_hits 0;
  Atomic.set c_meminfo_misses 0;
  Atomic.set c_cfg_hits 0;
  Atomic.set c_cfg_misses 0;
  Atomic.set c_dom_hits 0;
  Atomic.set c_dom_misses 0

let hit_rate c =
  let hits = c.meminfo_hits + c.cfg_hits + c.dom_hits in
  let total = hits + c.meminfo_misses + c.cfg_misses + c.dom_misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

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
  p_run : t -> Ir.program -> Ir.program;
}

let make_pass ?label info run =
  { p_info = info; p_label = Option.value ~default:info.Pi.pass_name label; p_run = run }

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

let run_pass ?(round = 0) ?check t pass prog =
  (* supervision poll point: one per executed stage, so a fixpoint that
     never converges (or an unroll bomb inside one pass boundary) is cut by
     the ambient deadline/step budget between stages *)
  Dce_support.Guard.poll ~site:pass.p_label;
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
  (prog', record)

let run_fixpoint ?check ~max_rounds t passes prog =
  let trace = ref [] in
  let rec go round prog =
    let prog, round_changed =
      List.fold_left
        (fun (prog, any) pass ->
          let prog, record = run_pass ~round ?check t pass prog in
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
