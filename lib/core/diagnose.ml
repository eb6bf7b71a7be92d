module C = Dce_compiler
module F = C.Features

type repair = { repair_name : string; repair_component : string; edit : F.t -> F.t }

type t = {
  marker : int;
  guilty_stage : string option;
  diagnosis : repair option;
  tried : int;
}

let catalogue =
  [
    {
      repair_name = "gva:flow-sensitive";
      repair_component = "Constant Propagation";
      edit = (fun f -> { f with F.gva = Dce_opt.Gva.Flow_sensitive_if_const });
    };
    {
      repair_name = "addr-cmp:full";
      repair_component = "Peephole Optimizations";
      edit = (fun f -> { f with F.addr_cmp = Dce_opt.Sccp.Cmp_full });
    };
    {
      repair_name = "memcp:edge-aware";
      repair_component = "Pass Management";
      edit = (fun f -> { f with F.memcp = true; memcp_edge_aware = true });
    };
    {
      repair_name = "uniform-arrays";
      repair_component = "Constant Propagation";
      edit = (fun f -> { f with F.uniform_arrays = true });
    };
    {
      repair_name = "alias:full";
      repair_component = "Alias Analysis";
      edit = (fun f -> { f with F.alias = Dce_opt.Alias.Full });
    };
    {
      repair_name = "vectorize:off";
      repair_component = "Loop Transformations";
      edit = (fun f -> { f with F.vectorize = false });
    };
    {
      repair_name = "function-dce:late";
      repair_component = "Pass Management";
      edit = (fun f -> { f with F.function_dce_early = false });
    };
    {
      repair_name = "jump-thread:conservative";
      repair_component = "Jump Threading";
      edit = (fun f -> { f with F.jump_thread = Dce_opt.Jump_thread.Conservative });
    };
    {
      repair_name = "unswitch:off";
      repair_component = "Loop Transformations";
      edit = (fun f -> { f with F.unswitch = false });
    };
    {
      repair_name = "vrp:shift-rule";
      repair_component = "Value Propagation";
      edit = (fun f -> { f with F.vrp = true; vrp_shift_rule = true });
    };
    {
      repair_name = "vrp:mod-singleton";
      repair_component = "Value Constraint Analysis";
      edit = (fun f -> { f with F.vrp = true; vrp_mod_singleton = true });
    };
    {
      repair_name = "dse:lifetime";
      repair_component = "SSA Memory Analysis";
      edit = (fun f -> { f with F.dse_strength = 2 });
    };
    {
      repair_name = "inline:larger";
      repair_component = "Inlining";
      edit = (fun f -> { f with F.inline_threshold = (max 30 f.F.inline_threshold) * 4 });
    };
    {
      repair_name = "unroll:larger";
      repair_component = "Loop Transformations";
      edit = (fun f -> { f with F.unroll_trip = (max 8 f.F.unroll_trip) * 4 });
    };
    {
      repair_name = "peephole:full";
      repair_component = "Peephole Optimizations";
      edit = (fun f -> { f with F.peephole_level = 3 });
    };
    {
      repair_name = "summaries:on";
      repair_component = "Interprocedural Analyses";
      edit = (fun f -> { f with F.call_summaries = true });
    };
    {
      repair_name = "ipa-cp:on";
      repair_component = "Interprocedural Analyses";
      edit = (fun f -> { f with F.ipa_cp = true });
    };
    {
      repair_name = "vrp:budget";
      repair_component = "Value Propagation";
      edit = (fun f -> { f with F.vrp = true; vrp_block_limit = 4096 });
    };
    {
      repair_name = "rounds:more";
      repair_component = "Pass Management";
      edit = (fun f -> { f with F.opt_rounds = f.F.opt_rounds + 2 });
    };
  ]

let component_of_stage = function
  | "sccp" | "memcp" -> Some "Constant Propagation"
  | "gvn" -> Some "Alias Analysis"
  | "vrp" -> Some "Value Propagation"
  | "peephole" -> Some "Peephole Optimizations"
  | "jump-thread" -> Some "Jump Threading"
  | "dse" -> Some "SSA Memory Analysis"
  | "inline" -> Some "Inlining"
  | "ipa-cp" | "function-dce" | "function-dce-early" | "inline-cleanup" ->
    Some "Interprocedural Analyses"
  | "unroll" | "unswitch" | "vectorize" | "loop-promote" -> Some "Loop Transformations"
  | "dce" | "simplify-cfg" | "ssa" -> Some "Pass Management"
  | _ -> None

(* markers physically disappear in the cleanup passes; the interesting stage
   is the nearest earlier change outside this set — the pass that proved the
   marker's block dead, not the one that swept it up *)
let cleanup = [ "dce"; "simplify-cfg"; "ssa" ]

let trace_guilty trace ~marker =
  match C.Passmgr.markers_eliminated_by trace ~marker with
  | None -> None
  | Some elim when not (List.mem elim.C.Passmgr.sr_label cleanup) ->
    Some elim.C.Passmgr.sr_label
  | Some elim ->
    let rec enabler best = function
      | [] -> best
      | r :: _ when r == elim -> best
      | r :: rest ->
        let best =
          if r.C.Passmgr.sr_changed && not (List.mem r.C.Passmgr.sr_label cleanup) then
            Some r.C.Passmgr.sr_label
          else best
        in
        enabler best rest
    in
    (match enabler None trace with
     | Some label -> Some label
     | None -> Some elim.C.Passmgr.sr_label)

(* the fully-fixed pipeline (every post-HEAD fix applied) eliminates the
   marker iff the miss is a modeled bug; its stage trace then names the
   pass that catches it — the component whose repairs are tried first *)
let guilty_and_order compiler level ir ~marker =
  let base = C.Compiler.features compiler level in
  let fixed =
    C.Compiler.features compiler
      ~version:(List.length compiler.C.Compiler.history)
      level
  in
  let guilty =
    if fixed = base then None
    else
      let _, trace = C.Pipeline.run_traced fixed ir in
      trace_guilty trace ~marker
  in
  let ordered =
    match Option.bind guilty component_of_stage with
    | None -> catalogue
    | Some comp ->
      let first, rest = List.partition (fun r -> r.repair_component = comp) catalogue in
      first @ rest
  in
  (guilty, ordered)

let ordered_catalogue compiler level prog ~marker =
  guilty_and_order compiler level (Dce_ir.Lower.program prog) ~marker

let run compiler level prog ~marker =
  (* lower exactly once; every repair attempt re-optimizes the same IR *)
  let ir = Dce_ir.Lower.program prog in
  let eliminates feats =
    let optimized = C.Pipeline.run feats ir in
    let asm = Dce_backend.Codegen.program optimized in
    not (Dce_backend.Asm.marker_survives asm marker)
  in
  let base = C.Compiler.features compiler level in
  let guilty, ordered = guilty_and_order compiler level ir ~marker in
  let rec try_repairs tried = function
    | [] -> { marker; guilty_stage = guilty; diagnosis = None; tried }
    | r :: rest ->
      if eliminates (r.edit base) then
        { marker; guilty_stage = guilty; diagnosis = Some r; tried = tried + 1 }
      else try_repairs (tried + 1) rest
  in
  try_repairs 0 ordered

let signature t =
  match t.diagnosis with
  | Some r -> r.repair_name
  | None -> "unknown"
