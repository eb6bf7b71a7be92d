open Dce_opt
module Ir = Dce_ir.Ir

(* ------------------------------------------------------------------ *)
(* pass instances                                                      *)
(* ------------------------------------------------------------------ *)

(* Every setting a pass body reads comes in through [~config], which is
   what its memo key covers (see {!Passmgr.make_pass}). *)
let per_func label ~config f =
  Passmgr.make_pass label ~config (fun config _mgr prog -> Ir.map_func (f config) prog)

let with_info label ~config f =
  Passmgr.make_pass label ~config (fun config mgr prog ->
      let mi = Passmgr.meminfo mgr in
      Ir.map_func (f config mi) prog)

let whole label ~config f = Passmgr.make_pass label ~config (fun config _mgr prog -> f config prog)

let sccp_pass (feats : Features.t) =
  with_info "sccp" Sccp.run
    ~config:{ Sccp.addr_cmp = feats.addr_cmp; gva_mode = feats.gva }

let memcp_pass (feats : Features.t) =
  with_info "memcp" Memcp.run
    ~config:
      {
        Memcp.use_call_summaries = feats.call_summaries;
        edge_aware = feats.memcp_edge_aware;
        uniform_arrays = feats.uniform_arrays;
        precision = feats.alias;
      }

let gvn_pass (feats : Features.t) =
  Passmgr.make_pass "gvn"
    ~config:
      {
        Gvn.cse = feats.gvn_cse;
        load_forward = feats.gvn_forward;
        precision = feats.alias;
        use_call_summaries = feats.call_summaries;
      }
    (fun config mgr prog ->
      let info = Passmgr.meminfo mgr in
      Ir.map_func
        (fun fn -> Gvn.run ~dom:(fun () -> Passmgr.dominators mgr fn) config info fn)
        prog)

let vrp_pass (feats : Features.t) =
  Passmgr.make_pass "vrp"
    ~config:
      {
        Vrp.shift_rule = feats.vrp_shift_rule;
        mod_singleton = feats.vrp_mod_singleton;
        block_limit = feats.vrp_block_limit;
      }
    (fun config mgr prog ->
      Ir.map_func
        (fun fn ->
          Vrp.run
            ~dom:(fun () -> Passmgr.dominators mgr fn)
            ~preds:(fun () -> Passmgr.predecessors mgr fn)
            config fn)
        prog)

let peephole_pass (feats : Features.t) =
  per_func "peephole" Peephole.run ~config:{ Peephole.level = feats.peephole_level }

let jump_thread_pass (feats : Features.t) =
  per_func "jump-thread" Jump_thread.run ~config:{ Jump_thread.mode = feats.jump_thread }

let dse_pass (feats : Features.t) =
  with_info "dse"
    (fun config mi fn -> Dse.run config mi ~is_main:(fn.Ir.fn_name = "main") fn)
    ~config:
      {
        Dse.strength = feats.dse_strength;
        precision = feats.alias;
        use_call_summaries = feats.call_summaries;
      }

let dce_pass = per_func "dce" (fun () -> Dce.run) ~config:()
let simplify_pass = per_func "simplify-cfg" (fun () -> Simplify_cfg.run) ~config:()

let promote_pass (feats : Features.t) =
  with_info "loop-promote" Promote.run ~config:{ Promote.precision = feats.alias }

let unroll_pass (feats : Features.t) =
  per_func "unroll" Unroll.run ~config:{ Unroll.max_trip = feats.unroll_trip }

let unswitch_pass (feats : Features.t) =
  with_info "unswitch" Unswitch.run ~config:{ Unswitch.precision = feats.alias }

let vectorize_pass = whole "vectorize" (fun () -> Vectorize.run) ~config:()
let function_dce_pass label = whole label (fun () -> Function_dce.run) ~config:()
let ipa_cp_pass = whole "ipa-cp" (fun () -> Ipa_cp.run) ~config:()

let inline_pass (feats : Features.t) =
  whole "inline" Inline.run ~config:{ Inline.threshold = feats.inline_threshold }

let ssa_pass = whole "ssa" (fun () -> Dce_ir.Ssa.construct_program) ~config:()

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

(* everything from SSA construction on; -O0 stops before it *)
let ssa_schedule (feats : Features.t) =
  if not feats.sccp then []
  else
    List.concat
      [
        [ Stage ssa_pass ];
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

(* the schedule in parts, each with the IR form its stage outputs are in:
   front-end cleanup on the lowered program, then the SSA part *)
let schedule feats =
  [ (Dce_ir.Validate.Pre_ssa, [ Stage simplify_pass ]); (Dce_ir.Validate.Ssa, ssa_schedule feats) ]

(* the maximal static expansion: what a run with no fixpoint early exit
   executes, and exactly the historical fixed-count stage list *)
let static_passes feats =
  List.concat_map
    (function
      | Stage p -> [ p ]
      | Round { max_rounds; passes } -> List.concat (List.init max_rounds (fun _ -> passes)))
    (List.concat_map snd (schedule feats))

let stage_names feats = List.map (fun p -> p.Passmgr.p_label) (static_passes feats)

(* ------------------------------------------------------------------ *)
(* execution                                                           *)
(* ------------------------------------------------------------------ *)

(* One stage memo per IR form the stage outputs are validated in, so a
   replay never stands in for a check its stored output did not pass.  One
   Meminfo memo for both: an analysis depends on the program alone. *)
type prepared = {
  pr_input : Ir.program;
  pr_validate : bool;
  pr_pre_ssa : Passmgr.memo;
  pr_ssa : Passmgr.memo;
  pr_meminfo : Passmgr.meminfo_memo;
}

let prepare ?(validate = false) prog =
  {
    pr_input = prog;
    pr_validate = validate;
    pr_pre_ssa = Passmgr.memo ();
    pr_ssa = Passmgr.memo ();
    pr_meminfo = Passmgr.meminfo_memo ();
  }

let check pr mode =
  if not pr.pr_validate then None
  else
    Some
      (fun label prog ->
        match Dce_ir.Validate.program mode prog with
        | Ok () -> ()
        | Error errs -> raise (Passmgr.Ir_invalid { pass = label; errors = errs }))

let run_prepared feats pr =
  let mgr = Passmgr.create pr.pr_meminfo pr.pr_input in
  let trace = ref [] in
  let run_part prog (mode, sections) =
    let check = check pr mode in
    let memo = match mode with Dce_ir.Validate.Pre_ssa -> pr.pr_pre_ssa | Ssa -> pr.pr_ssa in
    List.fold_left
      (fun prog -> function
        | Stage pass ->
          let prog, record = Passmgr.run_pass ?check ~memo mgr pass prog in
          trace := record :: !trace;
          prog
        | Round { max_rounds; passes } ->
          let prog, t = Passmgr.run_fixpoint ?check ~memo ~max_rounds mgr passes prog in
          trace := List.rev_append t !trace;
          prog)
      prog sections
  in
  let prog = List.fold_left run_part pr.pr_input (schedule feats) in
  (prog, List.rev !trace)

let run_traced ?validate feats prog = run_prepared feats (prepare ?validate prog)

let run ?validate feats prog = fst (run_traced ?validate feats prog)
