open Dce_opt
module Ir = Dce_ir.Ir

(* ------------------------------------------------------------------ *)
(* pass instances                                                      *)
(* ------------------------------------------------------------------ *)

let per_func ?label info f =
  Passmgr.make_pass ?label info (fun _mgr prog -> Ir.map_func f prog)

let with_info ?label info f =
  Passmgr.make_pass ?label info (fun mgr prog ->
      let mi = Passmgr.meminfo mgr in
      Ir.map_func (f mi prog) prog)

let whole ?label info f = Passmgr.make_pass ?label info (fun _mgr prog -> f prog)

let sccp_pass (feats : Features.t) =
  with_info Sccp.info (fun info _prog fn ->
      Sccp.run
        {
          Sccp.addr_cmp = feats.addr_cmp;
          gva_mode = feats.gva;
          block_limit = feats.sccp_block_limit;
        }
        info fn)

let memcp_pass (feats : Features.t) =
  with_info Memcp.info (fun info _prog fn ->
      Memcp.run
        {
          Memcp.use_call_summaries = feats.call_summaries;
          edge_aware = feats.memcp_edge_aware;
          uniform_arrays = feats.uniform_arrays;
          precision = feats.alias;
          block_limit = feats.memcp_block_limit;
          cell_limit = 32;
        }
        info fn)

let gvn_pass (feats : Features.t) =
  Passmgr.make_pass Gvn.info (fun mgr prog ->
      let info = Passmgr.meminfo mgr in
      Ir.map_func
        (fun fn ->
          Gvn.run
            ~dom:(fun () -> Passmgr.dominators mgr fn)
            {
              Gvn.cse = feats.gvn_cse;
              load_forward = feats.gvn_forward;
              precision = feats.alias;
              use_call_summaries = feats.call_summaries;
            }
            info fn)
        prog)

let vrp_pass (feats : Features.t) =
  Passmgr.make_pass Vrp.info (fun mgr prog ->
      Ir.map_func
        (fun fn ->
          Vrp.run
            ~dom:(fun () -> Passmgr.dominators mgr fn)
            ~preds:(fun () -> Passmgr.predecessors mgr fn)
            {
              Vrp.shift_rule = feats.vrp_shift_rule;
              mod_singleton = feats.vrp_mod_singleton;
              block_limit = feats.vrp_block_limit;
            }
            fn)
        prog)

let peephole_pass (feats : Features.t) =
  per_func Peephole.info (fun fn -> Peephole.run { Peephole.level = feats.peephole_level } fn)

let jump_thread_pass (feats : Features.t) =
  per_func Jump_thread.info (fun fn ->
      Jump_thread.run
        {
          Jump_thread.mode = feats.jump_thread;
          phi_cleanup = feats.jt_phi_cleanup;
          max_threads = 16;
        }
        fn)

let dse_pass (feats : Features.t) =
  with_info Dse.info (fun info _prog fn ->
      Dse.run
        {
          Dse.strength = feats.dse_strength;
          precision = feats.alias;
          use_call_summaries = feats.call_summaries;
        }
        info ~is_main:(fn.Ir.fn_name = "main") fn)

let dce_pass = per_func Dce.info Dce.run
let simplify_pass = per_func Simplify_cfg.info Simplify_cfg.run

let promote_pass (feats : Features.t) =
  with_info Promote.info (fun info _prog fn ->
      Promote.run { Promote.precision = feats.alias } info fn)

let unroll_pass (feats : Features.t) =
  per_func Unroll.info (fun fn ->
      Unroll.run
        {
          Unroll.max_trip = feats.unroll_trip;
          max_body = 64;
          (* the growth budget scales with the trip threshold so the higher
             level can actually spend its larger limit on big functions *)
          max_growth = 200 + (30 * feats.unroll_trip);
        }
        fn)

let unswitch_pass (feats : Features.t) =
  with_info Unswitch.info (fun info _prog fn ->
      Unswitch.run
        { Unswitch.max_body = 80; max_clones = 4; licm_loads = true; precision = feats.alias }
        info fn)

let vectorize_pass = whole Vectorize.info (Vectorize.run Vectorize.default_config)
let function_dce_pass label = whole ~label Function_dce.info Function_dce.run
let ipa_cp_pass = whole Ipa_cp.info Ipa_cp.run

let inline_pass (feats : Features.t) =
  whole Inline.info
    (Inline.run
       {
         Inline.threshold = feats.inline_threshold;
         (* scale with the threshold: a level that inlines bigger callees
            also tolerates more caller growth *)
         growth_cap = 600 + (12 * feats.inline_threshold);
       })

(* SSA construction lives below the opt library, so it registers here *)
let ssa_info = Passinfo.v "ssa"
let ssa_pass = whole ssa_info Dce_ir.Ssa.construct_program

(* ------------------------------------------------------------------ *)
(* the schedule                                                        *)
(* ------------------------------------------------------------------ *)

(* A section is either a single pass or a pass-manager fixpoint round:
   the round repeats until it changes nothing, bounded by [max_rounds]
   (which keeps the output identical to the historical fixed-count
   schedule — see {!Passmgr.run_fixpoint}). *)
type section =
  | Stage of Passmgr.pass
  | Round of { max_rounds : int; passes : Passmgr.pass list }

let main_round feats =
  List.concat
    [
      (if feats.Features.sccp then [ sccp_pass feats ] else []);
      (if feats.Features.memcp then [ memcp_pass feats ] else []);
      (if feats.Features.gvn_cse || feats.Features.gvn_forward then [ gvn_pass feats ] else []);
      (* a second constant pass folds what forwarding just exposed, the way
         real pipelines interleave instcombine/SCCP with GVN *)
      (if feats.Features.sccp && (feats.Features.gvn_cse || feats.Features.gvn_forward) then
         [ sccp_pass feats ]
       else []);
      (if feats.Features.vrp then [ vrp_pass feats ] else []);
      (if feats.Features.peephole_level > 0 then [ peephole_pass feats ] else []);
      (if feats.Features.jump_thread <> Jump_thread.Off then [ jump_thread_pass feats ] else []);
      [ dce_pass; simplify_pass ];
    ]

(* The front: the schedule's feature-independent prefix, each stage with the
   IR form its output is in.  A stage may sit here only if it reads no
   {!Features.t} field — every config of one program then computes the same
   front, which is what lets {!prepare} share it.  -O0 stops after
   simplify-cfg. *)
let front_stages = [ (simplify_pass, Dce_ir.Validate.Pre_ssa); (ssa_pass, Dce_ir.Validate.Ssa) ]
let front_depth (feats : Features.t) = if feats.sccp then 2 else 1
let take_front feats l = List.filteri (fun i _ -> i < front_depth feats) l

(* the per-config rest of the schedule, after the front *)
let back (feats : Features.t) =
  if not feats.sccp then (* -O0: only the front's trivial cleanup *) []
  else
    List.concat
      [
        (if feats.function_dce && feats.function_dce_early then
           [ Stage (function_dce_pass "function-dce-early") ]
         else []);
        (if feats.ipa_cp then [ Stage ipa_cp_pass ] else []);
        (if feats.inline_threshold > 0 then
           (* functions orphaned by inlining itself are always cleaned up;
              only functions orphaned by later folding depend on where the
              unreachable-node removal sits (the Listing 9b regression) *)
           [ Stage (inline_pass feats) ]
           @ (if feats.function_dce then [ Stage (function_dce_pass "inline-cleanup") ] else [])
           @ [ Stage simplify_pass ]
         else []);
        [ Round { max_rounds = max 1 feats.opt_rounds; passes = main_round feats } ];
        (* promotion gives memory loop counters a register view; one folding
           round then materializes constant preheader seeds so the loop
           passes' trip counting can see them *)
        (if feats.unroll_trip > 0 || feats.vectorize then
           [ Stage (promote_pass feats); Round { max_rounds = 1; passes = main_round feats } ]
         else []);
        (* the vectorizer claims eligible loops before the unroller *)
        (if feats.vectorize then [ Stage vectorize_pass ] else []);
        (if feats.unroll_trip > 0 then
           [ Stage (unroll_pass feats); Round { max_rounds = 1; passes = main_round feats } ]
         else []);
        (if feats.unswitch then
           [ Stage (unswitch_pass feats); Round { max_rounds = 1; passes = main_round feats } ]
         else []);
        (* DSE runs once, late: module-level global analyses must not observe
           dead-store-cleaned code (that would "fix" the paper's Listing 6a) *)
        (if feats.dse_strength > 0 then
           [ Stage (dse_pass feats); Stage dce_pass; Stage simplify_pass ]
         else []);
        (if feats.function_dce && not feats.function_dce_early then
           [ Stage (function_dce_pass "function-dce") ]
         else []);
        [ Stage dce_pass; Stage simplify_pass ];
      ]

let schedule feats =
  List.map (fun (pass, _) -> Stage pass) (take_front feats front_stages) @ back feats

(* the maximal static expansion: what a run with no fixpoint early exit
   executes, and exactly the historical fixed-count stage list *)
let expand feats =
  List.concat_map
    (function
      | Stage p -> [ p ]
      | Round { max_rounds; passes } -> List.concat (List.init max_rounds (fun _ -> passes)))
    (schedule feats)

let stage_names feats = List.map (fun p -> p.Passmgr.p_label) (expand feats)

(* ------------------------------------------------------------------ *)
(* execution                                                           *)
(* ------------------------------------------------------------------ *)

(* One front stage of one program: computed on first demand, so the ambient
   IR hook and the validator see its output once, then replayed for every
   later config. *)
type front_stage = {
  fs_pass : Passmgr.pass;
  fs_mode : Dce_ir.Validate.mode;
  mutable fs_out : (Ir.program * Passmgr.stage_record) option;
}

type prepared = { pr_input : Ir.program; pr_validate : bool; pr_front : front_stage list }

let prepare ?(validate = false) prog =
  {
    pr_input = prog;
    pr_validate = validate;
    pr_front =
      List.map (fun (pass, mode) -> { fs_pass = pass; fs_mode = mode; fs_out = None }) front_stages;
  }

let check pr mode =
  if not pr.pr_validate then None
  else
    Some
      (fun label prog ->
        match Dce_ir.Validate.program mode prog with
        | Ok () -> ()
        | Error errs -> raise (Passmgr.Ir_invalid { pass = label; errors = errs }))

let force_stage pr fs prog =
  match fs.fs_out with
  | Some out ->
    (* a replay polls like an executed stage, so a step budget trips at the
       same count whether or not the stage was shared *)
    Dce_support.Guard.poll ~site:fs.fs_pass.Passmgr.p_label;
    out
  | None ->
    let out = Passmgr.run_pass ?check:(check pr fs.fs_mode) (Passmgr.create prog) fs.fs_pass prog in
    fs.fs_out <- Some out;
    out

let run_prepared feats pr =
  let front = take_front feats pr.pr_front in
  let prog, front_trace =
    List.fold_left
      (fun (prog, trace) fs ->
        let prog, record = force_stage pr fs prog in
        (prog, record :: trace))
      (pr.pr_input, []) front
  in
  (* the back validates in the form the front left the IR in; front stages
     query no analysis, so a fresh manager starts the back with exactly the
     caches an unshared run would have *)
  let check = check pr (List.fold_left (fun _ fs -> fs.fs_mode) Dce_ir.Validate.Pre_ssa front) in
  let mgr = Passmgr.create prog in
  let trace = ref front_trace in
  let prog =
    List.fold_left
      (fun prog section ->
        match section with
        | Stage pass ->
          let prog, record = Passmgr.run_pass ?check mgr pass prog in
          trace := record :: !trace;
          prog
        | Round { max_rounds; passes } ->
          let prog, t = Passmgr.run_fixpoint ?check ~max_rounds mgr passes prog in
          trace := List.rev_append t !trace;
          prog)
      prog (back feats)
  in
  (prog, List.rev !trace)

let run_traced ?validate feats prog = run_prepared feats (prepare ?validate prog)

let run ?validate feats prog = fst (run_traced ?validate feats prog)

let run_reference feats prog =
  (* the pre-pass-manager semantics, kept as a differential oracle: every
     scheduled stage runs (no fixpoint exit) and nothing is cached (a fresh
     manager per stage recomputes each analysis on the stage's input) *)
  List.fold_left
    (fun prog pass ->
      let mgr = Passmgr.create prog in
      fst (Passmgr.run_pass mgr pass prog))
    prog (expand feats)
