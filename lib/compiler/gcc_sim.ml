open Features
module L = Level

let at_least lvl f level feats = if L.compare_strength level lvl >= 0 then f feats else feats
let only lvl f level feats = if level = lvl then f feats else feats
let identity _level feats = feats

let c = Version.make_commit

let history =
  [
    c ~summary:"tree-ssa: add SCCP constant propagation pass"
      ~component:"Constant Propagation" ~files:[ "tree-ssa-ccp.c" ]
      (at_least L.O1 (fun f ->
           { f with sccp = true; addr_cmp = Dce_opt.Sccp.Cmp_full; opt_rounds = 2 }));
    c ~summary:"ipa: flow-insensitive global constant analysis"
      ~component:"Interprocedural Analyses" ~files:[ "ipa-reference.c" ]
      (at_least L.O1 (fun f -> { f with gva = Dce_opt.Gva.Flow_insensitive }));
    c ~summary:"tree-ssa: forward propagation and dominator CSE"
      ~component:"Common Subexpression Elimination"
      ~files:[ "tree-ssa-forwprop.c"; "tree-ssa-dom.c" ]
      (at_least L.O1 (fun f -> { f with gvn_cse = true }));
    c ~summary:"alias: symbol-based disambiguation" ~component:"Alias Analysis"
      ~files:[ "tree-ssa-alias.c" ]
      (at_least L.O1 (fun f -> { f with alias = Dce_opt.Alias.Basic }));
    c ~summary:"dom: store-to-load forwarding" ~component:"Value Numbering"
      ~files:[ "tree-ssa-dom.c"; "tree-ssa-sccvn.c" ]
      (at_least L.O1 (fun f -> { f with gvn_forward = true }));
    c ~summary:"match.pd: basic algebraic simplifications"
      ~component:"Peephole Optimizations" ~files:[ "match.pd" ]
      (at_least L.O1 (fun f -> { f with peephole_level = 1 }));
    c ~summary:"dse: block-local dead store elimination"
      ~component:"Dead Store Elimination" ~files:[ "tree-ssa-dse.c" ]
      (at_least L.O1 (fun f -> { f with dse_strength = 1 }));
    c ~summary:"ipa-inline: early inliner" ~component:"Inlining" ~files:[ "ipa-inline.c" ]
      (fun level f ->
        match level with
        | L.O0 -> f
        | L.O1 -> { f with inline_threshold = 8 }
        | L.Os | L.O2 | L.O3 -> { f with inline_threshold = 30 });
    c ~summary:"ipa: remove unreachable functions" ~component:"Interprocedural Analyses"
      ~files:[ "ipa.c" ]
      (at_least L.O1 (fun f -> { f with function_dce = true }));
    c ~summary:"ccp: flow-sensitive memory constant propagation"
      ~component:"Constant Propagation" ~files:[ "tree-ssa-ccp.c"; "tree-ssa-sccvn.c" ]
      (at_least L.O1 (fun f -> { f with memcp = true; memcp_edge_aware = true }));
    c ~summary:"ipa-modref: mod/ref call summaries" ~component:"Interprocedural Analyses"
      ~files:[ "ipa-modref.c" ]
      (at_least L.Os (fun f -> { f with call_summaries = true }));
    c ~summary:"pta: escape-based points-to disambiguation" ~component:"Alias Analysis"
      ~files:[ "tree-ssa-structalias.c" ]
      (at_least L.Os (fun f -> { f with alias = Dce_opt.Alias.Full }));
    c ~summary:"vrp: value range propagation pass" ~component:"Value Propagation"
      ~files:[ "tree-vrp.c" ]
      (at_least L.Os (fun f -> { f with vrp = true }));
    c ~summary:"ipa-cp: propagate constant arguments into static callees"
      ~component:"Interprocedural Analyses" ~files:[ "ipa-cp.c"; "ipa-prop.c" ]
      (at_least L.Os (fun f -> { f with ipa_cp = true }));
    c ~summary:"dom: forward jump threading" ~component:"Jump Threading"
      ~files:[ "tree-ssa-threadedge.c" ]
      (at_least L.Os (fun f -> { f with jump_thread = Dce_opt.Jump_thread.Conservative }));
    c ~summary:"cfg: cleanup of forwarder blocks" ~component:"Control Flow Graph Analysis"
      ~files:[ "tree-cfgcleanup.c" ]
      identity;
    c ~summary:"cunroll: complete unrolling of counted loops"
      ~component:"Loop Transformations" ~files:[ "tree-ssa-loop-ivcanon.c" ]
      (fun level f ->
        match level with
        | L.O0 | L.O1 | L.Os -> f
        | L.O2 -> { f with unroll_trip = 16 }
        | L.O3 -> { f with unroll_trip = 32 });
    c ~summary:"match.pd: extended simplification patterns"
      ~component:"Peephole Optimizations" ~files:[ "match.pd" ]
      (at_least L.O2 (fun f -> { f with peephole_level = 2 }));
    c ~summary:"ipa-inline: raise -O2 and -O3 limits" ~component:"Inlining"
      ~files:[ "ipa-inline.c" ]
      (fun level f ->
        match level with
        | L.O0 | L.O1 | L.Os -> f
        | L.O2 -> { f with inline_threshold = 60 }
        | L.O3 -> { f with inline_threshold = 120 });
    c ~summary:"passes: iterate late scalar cleanups" ~component:"Pass Management"
      ~files:[ "passes.def" ]
      (at_least L.O2 (fun f -> { f with opt_rounds = 3 }));
    c ~summary:"match.pd: fold comparisons through arithmetic"
      ~component:"Peephole Optimizations" ~files:[ "match.pd" ]
      (at_least L.O2 (fun f -> { f with peephole_level = 3 }));
    c ~summary:"c-family: diagnostics and parser cleanups" ~component:"C-family Frontend"
      ~files:[ "c-common.c"; "c-parser.c"; "c-decl.c"; "c-typeck.c" ]
      identity;
    c ~summary:"dse: rewrite on the RTL representation" ~component:"Dead Store Elimination"
      ~files:[ "dse.c" ]
      identity;
    (* ---- regressions (each manifests at -O3 only) ---- *)
    c ~summary:"vrp: cap the block budget for compile time at -O3"
      ~component:"Value Propagation" ~files:[ "tree-vrp.c"; "gimple-range.cc" ]
      (only L.O3 (fun f -> { f with vrp_block_limit = 120 }));
    c ~summary:"vect: enable loop vectorization of constant-stride stores at -O3"
      ~component:"Loop Transformations" ~files:[ "tree-vect-stmts.c"; "tree-vect-loop.c" ]
      (only L.O3 (fun f -> { f with vectorize = true }));
    c ~summary:"ipa: run unreachable-node removal before late IPA passes"
      ~component:"Pass Management" ~files:[ "passes.def"; "ipa.c" ]
      (only L.O3 (fun f -> { f with function_dce_early = true }));
    c ~summary:"pta: cap points-to set growth for compile time at -O3"
      ~component:"Alias Analysis" ~files:[ "tree-ssa-structalias.c" ]
      (only L.O3 (fun f -> { f with alias = Dce_opt.Alias.Basic }));
    c ~summary:"threader: replace forward threader with backward threader at -O3"
      ~component:"Jump Threading"
      ~files:[ "tree-ssa-threadbackward.c"; "tree-ssa-threadupdate.c"; "tree-ssa-threadedge.c" ]
      (only L.O3 (fun f -> { f with jump_thread = Dce_opt.Jump_thread.Aggressive }));
    c ~summary:"i386: tuning table refresh" ~component:"Target Info" ~files:[ "i386.c" ]
      identity;
    c ~summary:"copy-prop: dominator-order worklist rewrite" ~component:"Copy Propagation"
      ~files:[ "tree-ssa-copy.c" ]
      identity;
    c ~summary:"ipa-sra: interprocedural scalar replacement plumbing"
      ~component:"Interprocedural SRoA" ~files:[ "ipa-sra.c" ]
      identity;
    (* ---- post-HEAD fixes (for the triage model; see paper Table 5) ---- *)
    c ~summary:"vrp: derive X != 0 from (X << Y) != 0" ~component:"Value Propagation"
      ~files:[ "tree-vrp.c" ] ~post_head:true
      (at_least L.Os (fun f -> { f with vrp_shift_rule = true }));
    c ~summary:"vect: use element-typed IVs for vectorized pointer accesses"
      ~component:"Loop Transformations" ~files:[ "tree-vect-stmts.c" ] ~post_head:true
      (only L.O3 (fun f -> { f with vectorize = false }));
    c ~summary:"threader: clean up leftover PHIs before threading dead paths"
      ~component:"Control Flow Graph Analysis"
      ~files:[ "tree-cfgcleanup.c"; "tree-ssa-threadupdate.c" ] ~post_head:true
      (only L.O3 (fun f -> { f with jump_thread = Dce_opt.Jump_thread.Conservative }));
    c ~summary:"pta: restore escaped-only reachability precision at -O3"
      ~component:"Alias Analysis" ~files:[ "tree-ssa-structalias.c" ] ~post_head:true
      (only L.O3 (fun f -> { f with alias = Dce_opt.Alias.Full }));
    c ~summary:"ccp: fold loads from uniform constant arrays"
      ~component:"Constant Propagation" ~files:[ "tree-ssa-ccp.c" ] ~post_head:true
      (at_least L.O1 (fun f -> { f with uniform_arrays = true }));
  ]

let compiler = Compiler.create ~name:"gcc-sim" history
