(* The pass-manager subsystem: cached analyses checked against fresh ones
   (after executed and replayed stages, and along the real schedules),
   fixpoint early exit, stage-trace marker attribution, and the differential
   against the pre-pass-manager reference pipeline. *)

open Helpers
module Campaign = Dce_campaign
module Pm = C.Passmgr
module Mi = Dce_opt.Meminfo

(* ---- custom passes that change what the analyses read ---- *)

(* deletes every store: changes Meminfo's stored/const-store facts *)
let strip_stores_pass =
  Pm.make_pass "strip-stores" ~config:() (fun () _mgr prog ->
      Ir.map_func
        (fun fn ->
          {
            fn with
            Ir.fn_blocks =
              Ir.Imap.map
                (fun b ->
                  {
                    b with
                    Ir.b_instrs =
                      List.filter
                        (function Ir.Store _ -> false | _ -> true)
                        b.Ir.b_instrs;
                  })
                fn.Ir.fn_blocks;
          })
        prog)

(* rewrites every conditional branch to its true edge: changes predecessors
   and dominators without touching the block set *)
let force_jmp_pass =
  Pm.make_pass "force-jmp" ~config:() (fun () _mgr prog ->
      Ir.map_func
        (fun fn ->
          {
            fn with
            Ir.fn_blocks =
              Ir.Imap.map
                (fun b ->
                  {
                    b with
                    Ir.b_term =
                      (match b.Ir.b_term with
                       | Ir.Br (_, lt, _) -> Ir.Jmp lt
                       | t -> t);
                  })
                fn.Ir.fn_blocks;
          })
        prog)

(* ---- analysis cache ---- *)

let test_meminfo_counters () =
  Pm.reset_counters ();
  let prog = lower "static int g = 1; int main(void) { g = 2; return g; }" in
  let mgr = Pm.create (Pm.meminfo_memo ()) prog in
  ignore (Pm.meminfo mgr);
  ignore (Pm.meminfo mgr);
  let c = Pm.counters () in
  Alcotest.(check int) "one computation" 1 c.Pm.meminfo_misses;
  Alcotest.(check int) "one cache hit" 1 c.Pm.meminfo_hits

let test_meminfo_invalidation () =
  let prog = lower "static int g = 1; int main(void) { g = 2; return g; }" in
  let mgr = Pm.create (Pm.meminfo_memo ()) prog in
  let mi0 = Pm.meminfo mgr in
  Alcotest.(check bool) "g is stored before the pass" true (Mi.ever_stored mi0 "g");
  let prog', record = Pm.run_pass mgr strip_stores_pass prog in
  Alcotest.(check bool) "the pass changed the program" true record.Pm.sr_changed;
  (* the cached Meminfo must be indistinguishable from a fresh analysis of
     the post-pass program — stale facts must never be observable *)
  let cached = Pm.meminfo mgr in
  let fresh = Mi.analyze prog' in
  Alcotest.(check bool) "ever_stored agrees with fresh analysis"
    (Mi.ever_stored fresh "g") (Mi.ever_stored cached "g");
  Alcotest.(check bool) "stores_only_init_consts agrees with fresh analysis"
    (Mi.stores_only_init_consts fresh "g")
    (Mi.stores_only_init_consts cached "g");
  Alcotest.(check bool) "escaped agrees with fresh analysis" (Mi.escaped fresh "g")
    (Mi.escaped cached "g");
  Alcotest.(check bool) "the store deletion is visible" false (Mi.ever_stored cached "g")

(* The manager's analyses of [fn] equal fresh ones, block by block *)
let check_cfg_fresh where mgr fn =
  let cached_preds = Pm.predecessors mgr fn in
  let fresh_preds = Dce_ir.Cfg.predecessors fn in
  let cached_dom = Pm.dominators mgr fn in
  let fresh_dom = Dce_ir.Dom.compute fn in
  let module D = Dce_ir.Dom in
  if not (Ir.Imap.equal ( = ) cached_preds fresh_preds) then
    Alcotest.failf "%s: %s predecessors differ from a fresh analysis" where fn.Ir.fn_name;
  Ir.Imap.iter
    (fun l _ ->
      if
        D.idom cached_dom l <> D.idom fresh_dom l
        || D.children cached_dom l <> D.children fresh_dom l
        || D.frontier cached_dom l <> D.frontier fresh_dom l
      then Alcotest.failf "%s: %s block %d dominators differ from a fresh analysis" where fn.Ir.fn_name l)
    fn.Ir.fn_blocks;
  if D.dom_tree_preorder cached_dom <> D.dom_tree_preorder fresh_dom then
    Alcotest.failf "%s: %s dominator tree order differs" where fn.Ir.fn_name

let main_of (prog : Ir.program) = List.find (fun f -> f.Ir.fn_name = "main") prog.Ir.prog_funcs

let branchy =
  "static int g = 1; int main(void) { int x = ext(0); g = 2; if (x) { use(g); } else { use(2); } \
   return 0; }"

(* [f] moves the cfg/dom counters by exactly [hits] hits and [misses] misses *)
let check_cfg_counts where ~hits ~misses f =
  let c0 = Pm.counters () in
  f ();
  let c1 = Pm.counters () in
  Alcotest.(check (pair int int))
    (where ^ ": cfg hits, misses")
    (hits, misses)
    (c1.Pm.cfg_hits - c0.Pm.cfg_hits, c1.Pm.cfg_misses - c0.Pm.cfg_misses);
  Alcotest.(check (pair int int))
    (where ^ ": dom hits, misses")
    (hits, misses)
    (c1.Pm.dom_hits - c0.Pm.dom_hits, c1.Pm.dom_misses - c0.Pm.dom_misses)

let test_cfg_fresh () =
  let prog = lower branchy in
  (* a terminator rewrite: the output function is analyzed afresh *)
  let mgr = Pm.create (Pm.meminfo_memo ()) prog in
  check_cfg_counts "first request" ~hits:0 ~misses:1 (fun () ->
      check_cfg_fresh "input" mgr (main_of prog));
  let jumped, record = Pm.run_pass mgr force_jmp_pass prog in
  Alcotest.(check bool) "force-jmp changed the program" true record.Pm.sr_changed;
  check_cfg_counts "after a terminator rewrite" ~hits:0 ~misses:1 (fun () ->
      check_cfg_fresh "after force-jmp" mgr (main_of jumped));
  (* an instruction-only edit: the output function keeps the answers *)
  let mgr = Pm.create (Pm.meminfo_memo ()) prog in
  ignore (Pm.predecessors mgr (main_of prog));
  ignore (Pm.dominators mgr (main_of prog));
  let stripped, record = Pm.run_pass mgr strip_stores_pass prog in
  Alcotest.(check bool) "strip-stores changed main" true (main_of stripped != main_of prog);
  Alcotest.(check bool) "strip-stores changed the program" true record.Pm.sr_changed;
  check_cfg_counts "after an instruction-only edit" ~hits:1 ~misses:0 (fun () ->
      check_cfg_fresh "after strip-stores" mgr (main_of stripped));
  (* replays: a second manager replays both stages from the memo that the
     first one filled, and answers as after executing them *)
  let memo = Pm.memo () in
  let strip mgr prog = fst (Pm.run_pass ~memo mgr strip_stores_pass prog) in
  let jump mgr prog = fst (Pm.run_pass ~memo mgr force_jmp_pass prog) in
  let first = Pm.create (Pm.meminfo_memo ()) prog in
  ignore (jump first (strip first prog));
  let mgr = Pm.create (Pm.meminfo_memo ()) prog in
  ignore (Pm.predecessors mgr (main_of prog));
  ignore (Pm.dominators mgr (main_of prog));
  let c0 = Pm.counters () in
  let stripped = strip mgr prog in
  check_cfg_counts "after a replayed instruction-only edit" ~hits:1 ~misses:0 (fun () ->
      check_cfg_fresh "after replayed strip-stores" mgr (main_of stripped));
  let jumped = jump mgr stripped in
  Alcotest.(check int) "both stages replayed" 2 ((Pm.counters ()).Pm.memo_hits - c0.Pm.memo_hits);
  check_cfg_counts "after a replayed terminator rewrite" ~hits:0 ~misses:1 (fun () ->
      check_cfg_fresh "after replayed force-jmp" mgr (main_of jumped))

let test_pipeline_cache_hits () =
  Pm.reset_counters ();
  let src =
    {|
int a;
int b[2];
int main(void) {
  int i = 0;
  int s = 0;
  for (i = 0; i < 8; i = i + 1) { s = s + b[i % 2]; }
  if (&a == &b[1]) { DCEMarker0(); }
  return s;
}
|}
  in
  ignore (surviving "gcc" C.Level.O3 src);
  let c = Pm.counters () in
  Alcotest.(check bool) "meminfo served from cache at least once" true (c.Pm.meminfo_hits > 0);
  Alcotest.(check bool) "meminfo computed at least once" true (c.Pm.meminfo_misses > 0);
  let rate = Pm.hit_rate c in
  Alcotest.(check bool) "hit rate strictly between 0 and 1" true (rate > 0.0 && rate < 1.0)

(* ---- fixpoint driving ---- *)

let test_fixpoint_early_exit () =
  let feats = C.Compiler.features C.Gcc_sim.compiler C.Level.O3 in
  Alcotest.(check bool) "several rounds are scheduled" true (feats.C.Features.opt_rounds >= 2);
  (* nothing to optimize: every round after the first is provably a no-op *)
  let prog = lower "int main(void) { return 0; }" in
  let _, trace = C.Pipeline.run_traced feats prog in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "stage %s did not run a second round" r.Pm.sr_label)
        true (r.Pm.sr_round <= 1))
    trace;
  Alcotest.(check bool) "early exit shortens the executed schedule" true
    (List.length trace < List.length (C.Pipeline.stage_names feats))

let test_stage_names_static () =
  (* the advertised schedule is the static expansion and ignores early exit *)
  List.iter
    (fun level ->
      let feats = C.Compiler.features C.Gcc_sim.compiler level in
      let names = C.Pipeline.stage_names feats in
      Alcotest.(check bool)
        (Printf.sprintf "schedule at %s is non-empty" (C.Level.to_string level))
        true (names <> []);
      Alcotest.(check (list string))
        (Printf.sprintf "schedule at %s is deterministic" (C.Level.to_string level))
        names
        (C.Pipeline.stage_names feats))
    C.Level.all

(* ---- stage-trace marker attribution ---- *)

let listing3 =
  {|
char a;
char b[2];
int main(void) {
  char *c = &a;
  char *d = &b[1];
  if (c == d) { DCEMarker0(); }
  return 0;
}
|}

let listing4 =
  {|
static int a = 0;
int main(void) {
  if (a) { DCEMarker0(); }
  a = 0;
  return 0;
}
|}

let traced_markers compiler level prog =
  let ir, trace = C.Compiler.run (C.Compiler.session prog) compiler level in
  (Dce_backend.Asm.surviving_markers (Dce_backend.Codegen.program ir), trace)

let check_attribution ~src ~eliminator ~misser =
  let prog = parse src in
  let surv_e, trace_e =
    traced_markers (compiler_named eliminator) C.Level.O3 prog
  in
  Alcotest.(check bool)
    (eliminator ^ " eliminates marker 0")
    false (List.mem 0 surv_e);
  (match Pm.markers_eliminated_by trace_e ~marker:0 with
   | Some r ->
     Alcotest.(check bool)
       (Printf.sprintf "%s records the elimination in a changed stage (%s)" eliminator
          r.Pm.sr_label)
       true r.Pm.sr_changed
   | None -> Alcotest.failf "%s trace does not attribute marker 0" eliminator);
  let surv_m, trace_m =
    traced_markers (compiler_named misser) C.Level.O3 prog
  in
  Alcotest.(check bool) (misser ^ " keeps marker 0") true (List.mem 0 surv_m);
  Alcotest.(check bool)
    (misser ^ " trace attributes no elimination")
    true
    (Pm.markers_eliminated_by trace_m ~marker:0 = None)

let test_attribution_listing3 () =
  check_attribution ~src:listing3 ~eliminator:"gcc" ~misser:"llvm"

let test_attribution_listing4 () =
  check_attribution ~src:listing4 ~eliminator:"llvm" ~misser:"gcc"

let test_diagnose_guilty_stage () =
  (* llvm misses Listing 3's marker; its fully-fixed pipeline (addr_cmp
     upgraded post-HEAD) folds the compare in sccp, so the trace walk-back
     must name sccp, not the simplify-cfg pass that swept the block *)
  let instr =
    Core.Instrument.program
      (parse
         {|
int a;
int b[2];
int main(void) {
  if (&a == &b[1]) { use(1); }
  return 0;
}
|})
  in
  let d = Core.Diagnose.run C.Llvm_sim.compiler C.Level.O3 instr ~marker:0 in
  Alcotest.(check (option string)) "guilty stage is sccp" (Some "sccp")
    d.Core.Diagnose.guilty_stage;
  Alcotest.(check string) "repair signature unchanged" "addr-cmp:full"
    (Core.Diagnose.signature d);
  Alcotest.(check (option string)) "sccp maps to the constant-propagation component"
    (Some "Constant Propagation")
    (Core.Diagnose.component_of_stage "sccp")

(* ---- differential against the reference pipeline, validated smoke ---- *)

(* The pre-pass-manager pipeline semantics, kept as a differential oracle:
   every scheduled stage runs (no fixpoint exit), nothing is cached (a fresh
   manager per stage recomputes each analysis on the stage's input) and no
   stage is replayed from a memo. *)
let run_reference feats prog =
  List.fold_left
    (fun prog pass ->
      let mgr = Pm.create (Pm.meminfo_memo ()) prog in
      fst (Pm.run_pass mgr pass prog))
    prog (C.Pipeline.static_passes feats)

let test_matches_reference_corpus () =
  let corpus = Dce_smith.Smith.generate_corpus ~seed:20220228 ~count:50 in
  List.iter
    (fun (raw, _kinds) ->
      let ir = Dce_ir.Lower.program (Core.Instrument.program raw) in
      (* one memo across the program's configs, as Analysis.run shares it *)
      let prepared = C.Pipeline.prepare ir in
      List.iter
        (fun compiler ->
          List.iter
            (fun level ->
              let feats = C.Compiler.features compiler level in
              let slow = run_reference feats ir in
              if C.Pipeline.run feats ir <> slow then
                Alcotest.failf "cached fixpoint pipeline diverges from reference: %s %s"
                  compiler.C.Compiler.name (C.Level.to_string level);
              if fst (C.Pipeline.run_prepared feats prepared) <> slow then
                Alcotest.failf "memo-shared pipeline diverges from reference: %s %s"
                  compiler.C.Compiler.name (C.Level.to_string level))
            C.Level.all)
        [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ])
    corpus

let test_validated_smoke_corpus () =
  (* every stage output of every compile re-checked by the IR validator *)
  let corpus = Dce_smith.Smith.generate_corpus ~seed:424242 ~count:25 in
  List.iter
    (fun (raw, _kinds) ->
      let instr = Core.Instrument.program raw in
      List.iter
        (fun compiler ->
          List.iter
            (fun level -> ignore (compile_ir compiler ~validate:true level instr))
            C.Level.all)
        [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ])
    corpus

(* ---- the shared front ---- *)

let compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

(* every (compiler, level) config in Analysis.run's order *)
let configs = List.concat_map (fun c -> List.map (fun l -> (c, l)) C.Level.all) compilers
let config_name (c, l) = Printf.sprintf "%s %s" c.C.Compiler.name (C.Level.to_string l)

(* a trace without its timings: everything else must match exactly *)
let untimed (trace : Pm.trace) = List.map (fun r -> { r with Pm.sr_time = 0. }) trace

let test_shared_front_matches_unshared () =
  let corpus = Dce_smith.Smith.generate_corpus ~seed:20220228 ~count:50 in
  List.iter
    (fun (raw, _kinds) ->
      let instr = Core.Instrument.program raw in
      let prepared = C.Pipeline.prepare (Dce_ir.Lower.program instr) in
      List.iter
        (fun ((compiler, level) as cfg) ->
          let feats = C.Compiler.features compiler level in
          let shared, shared_trace = C.Pipeline.run_prepared feats prepared in
          let alone, alone_trace = C.Pipeline.run_traced feats (Dce_ir.Lower.program instr) in
          if shared <> alone then Alcotest.failf "shared-front IR diverges: %s" (config_name cfg);
          if untimed shared_trace <> untimed alone_trace then
            Alcotest.failf "shared-front trace diverges: %s" (config_name cfg))
        configs)
    corpus

(* A pass key that missed a Features.t field would let one feature set
   replay another's stage.  History versions toggle one field at a time, so
   sharing one memo across every version x level of both compilers and
   comparing each against a fresh compile catches such a key. *)
let test_memo_keys_complete () =
  let feature_sets =
    List.concat_map
      (fun compiler ->
        let history = compiler.C.Compiler.history in
        List.concat_map
          (fun v -> List.map (fun l -> C.Version.features_at history v l) C.Level.all)
          (List.init (List.length history + 1) Fun.id))
      compilers
    |> List.sort_uniq compare
  in
  let corpus = Dce_smith.Smith.generate_corpus ~seed:20220228 ~count:50 in
  List.iteri
    (fun p (raw, _kinds) ->
      let ir = Dce_ir.Lower.program (Core.Instrument.program raw) in
      let prepared = C.Pipeline.prepare ir in
      List.iteri
        (fun i feats ->
          let shared, shared_trace = C.Pipeline.run_prepared feats prepared in
          let alone, alone_trace = C.Pipeline.run_traced feats ir in
          if shared <> alone then Alcotest.failf "program %d, feature set %d: IR diverges" p i;
          if untimed shared_trace <> untimed alone_trace then
            Alcotest.failf "program %d, feature set %d: trace diverges" p i)
        feature_sets)
    corpus

(* Analysis.run with one step-counting guard around its "differential"
   phases, against the unshared per-config reference under one guard (a
   guard with no budget at all is the uncounted [unlimited] one) *)
let analysis_steps ?(steps = max_int) raw =
  let g = Dce_support.Guard.create ~steps () in
  let hook =
    {
      Core.Analysis.wrap =
        (fun name f -> if name = "differential" then Dce_support.Guard.with_guard g f else f ());
    }
  in
  let outcome =
    match Core.Analysis.run ~hook raw with
    | Core.Analysis.Analyzed a -> Ok a
    | Core.Analysis.Rejected r -> Alcotest.failf "rejected: %s" r
    | exception Dce_support.Guard.Budget_exceeded { site; steps; _ } -> Error (site, steps)
  in
  (outcome, Dce_support.Guard.steps_used g)

let reference_steps ?(steps = max_int) instr =
  let g = Dce_support.Guard.create ~steps () in
  let outcome =
    match
      Dce_support.Guard.with_guard g (fun () ->
          List.map
            (fun (compiler, level) ->
              let ir, trace = C.Compiler.run (C.Compiler.session instr) compiler level in
              (Core.Differential.markers_in ir, trace))
            configs)
    with
    | results -> Ok results
    | exception Dce_support.Guard.Budget_exceeded { site; steps; _ } -> Error (site, steps)
  in
  (outcome, Dce_support.Guard.steps_used g)

let test_analysis_matches_per_config () =
  List.iter
    (fun seed ->
      let raw = smith_program seed in
      let instr = Core.Instrument.program raw in
      match (analysis_steps raw, reference_steps instr) with
      | (Ok a, steps), (Ok reference, ref_steps) ->
        List.iter2
          (fun (pc : Core.Analysis.per_config) ((surviving, trace), cfg) ->
            Alcotest.check iset (config_name cfg ^ " surviving") surviving pc.Core.Analysis.surviving;
            if untimed pc.Core.Analysis.cfg_trace <> untimed trace then
              Alcotest.failf "seed %d %s: trace diverges from the unshared compile" seed
                (config_name cfg))
          a.Core.Analysis.configs (List.combine reference configs);
        Alcotest.(check bool) "the guard counted polls" true (steps > 0);
        Alcotest.(check int) (Printf.sprintf "seed %d: guard polls" seed) ref_steps steps;
        (* a step budget cut halfway trips at the same poll site and count *)
        let budget = steps / 2 in
        (match (analysis_steps ~steps:budget raw, reference_steps ~steps:budget instr) with
         | (Error shared, _), (Error alone, _) ->
           Alcotest.(check (pair string int))
             (Printf.sprintf "seed %d: budget trip" seed) alone shared
         | _ -> Alcotest.failf "seed %d: a %d-poll budget must trip both paths" seed budget)
      | _ -> Alcotest.failf "seed %d: an unbounded run tripped its guard" seed)
    [ 3; 7; 11 ]

(* a corrupt-IR injection after a stage, in checked mode, blames that stage
   in the first config that runs it — the config an unshared compile would
   blame too; later configs replay the stage from the memo *)
let test_front_corruption_blames_stage () =
  let raw = smith_program 7 in
  List.iter
    (fun stage ->
      let first =
        let rec find i = function
          | [] -> Alcotest.failf "no config runs %s" stage
          | (c, l) :: rest ->
            if List.mem stage (C.Pipeline.stage_names (C.Compiler.features c l)) then i
            else find (i + 1) rest
        in
        find 0 configs
      in
      let phases = ref 0 in
      let hook =
        {
          Core.Analysis.wrap =
            (fun name f ->
              if name = "differential" then incr phases;
              f ());
        }
      in
      let plan =
        [ { Campaign.Chaos.inj_case = 0; inj_stage = stage; inj_fault = Campaign.Chaos.Corrupt_ir } ]
      in
      Campaign.Chaos.arm plan ~case:0 ~attempt:0;
      Fun.protect ~finally:Campaign.Chaos.disarm (fun () ->
          match Core.Analysis.run ~checked:true ~hook raw with
          | _ -> Alcotest.failf "corruption after %s went unnoticed" stage
          | exception Pm.Ir_invalid { pass; errors } ->
            Alcotest.(check string) "guilty pass" stage pass;
            Alcotest.(check bool) "validator diagnostics present" true (errors <> []);
            Alcotest.(check string) (stage ^ ": raised in config")
              (config_name (List.nth configs first))
              (config_name (List.nth configs (!phases - 1)))))
    [ "simplify-cfg"; "ssa"; "gvn" ]

(* ---- sharing ---- *)

(* A pass that changes nothing hands back its input itself, and a pass
   hands back itself every function it leaves structurally equal, so the
   stage's diff, the next stage's memo lookup and the bookkeeping all
   settle on [==].  Every stage of the static schedule executes here, SSA
   construction included, each on a fresh manager; [check] sees the pass's
   own output before the manager re-shares it. *)
let test_unchanged_stages_return_input () =
  let corpus = Dce_smith.Smith.generate_corpus ~seed:20220228 ~count:12 in
  List.iter
    (fun (raw, _kinds) ->
      let ir = Dce_ir.Lower.program (Core.Instrument.program raw) in
      List.iter
        (fun ((compiler, level) as cfg) ->
          ignore
            (List.fold_left
               (fun prog pass ->
                 let out = ref prog in
                 let prog', record =
                   Pm.run_pass ~check:(fun _ p -> out := p) (Pm.create (Pm.meminfo_memo ()) prog) pass prog
                 in
                 if (not record.Pm.sr_changed) && !out != prog then
                   Alcotest.failf "%s: no-op stage %s returned a copy of its input"
                     (config_name cfg) pass.Pm.p_label;
                 List.iter
                   (fun fa ->
                     match Ir.find_func prog fa.Ir.fn_name with
                     | Some fb when fa != fb && compare fa fb = 0 ->
                       Alcotest.failf "%s: stage %s returned a copy of unchanged function %s"
                         (config_name cfg) pass.Pm.p_label fa.Ir.fn_name
                     | Some _ | None -> ())
                   !out.Ir.prog_funcs;
                 prog')
               ir
               (C.Pipeline.static_passes (C.Compiler.features compiler level))))
        configs)
    corpus

(* [Meminfo.def_rvalue] answers, for every register of every function at
   every stage of every config, what a walk into a [Hashtbl] answers (in
   pre-SSA form a register may have several definitions: the last one
   wins), also for registers past [fn_next_var] *)
let test_deftab_matches_hashtbl () =
  let corpus = Dce_smith.Smith.generate_corpus ~seed:8080 ~count:20 in
  let check_program where (prog : Ir.program) =
    List.iter
      (fun fn ->
        let reference = Hashtbl.create 64 in
        Ir.iter_instrs
          (fun _ i -> match i with Ir.Def (v, rv) -> Hashtbl.replace reference v rv | _ -> ())
          fn;
        let dt = Mi.deftab fn in
        for v = 0 to fn.Ir.fn_next_var + 8 do
          if Mi.def_rvalue dt v <> Hashtbl.find_opt reference v then
            Alcotest.failf "%s: %s register %d" where fn.Ir.fn_name v
        done)
      prog.Ir.prog_funcs
  in
  List.iteri
    (fun p (raw, _kinds) ->
      let ir = Dce_ir.Lower.program (Core.Instrument.program raw) in
      check_program (Printf.sprintf "program %d lowered" p) ir;
      List.iter
        (fun ((compiler, level) as cfg) ->
          ignore
            (List.fold_left
               (fun prog pass ->
                 let prog', _ = Pm.run_pass (Pm.create (Pm.meminfo_memo ()) prog) pass prog in
                 check_program
                   (Printf.sprintf "program %d, %s after %s" p (config_name cfg) pass.Pm.p_label)
                   prog';
                 prog')
               ir
               (C.Pipeline.static_passes (C.Compiler.features compiler level))))
        configs)
    corpus

(* [Cfg.predecessors] equals the fold + [sort_uniq] reference for every
   function at every stage of every config *)
let test_predecessors_match_reference () =
  let corpus = Dce_smith.Smith.generate_corpus ~seed:5150 ~count:20 in
  List.iteri
    (fun p (raw, _kinds) ->
      let ir = Dce_ir.Lower.program (Core.Instrument.program raw) in
      List.iter (check_predecessors (Printf.sprintf "program %d lowered" p)) ir.Ir.prog_funcs;
      List.iter
        (fun ((compiler, level) as cfg) ->
          ignore
            (List.fold_left
               (fun prog pass ->
                 let prog', _ = Pm.run_pass (Pm.create (Pm.meminfo_memo ()) prog) pass prog in
                 List.iter
                   (check_predecessors
                      (Printf.sprintf "program %d, %s after %s" p (config_name cfg)
                         pass.Pm.p_label))
                   prog'.Ir.prog_funcs;
                 prog')
               ir
               (C.Pipeline.static_passes (C.Compiler.features compiler level))))
        configs)
    corpus

(* The rewrites that restore invariants are idempotent, and a second
   application returns its input itself. *)
let test_rewrites_return_their_output () =
  let corpus = Dce_smith.Smith.generate_corpus ~seed:424242 ~count:12 in
  List.iteri
    (fun p (raw, _kinds) ->
      let ssa = Dce_ir.Ssa.construct_program (Dce_ir.Lower.program (Core.Instrument.program raw)) in
      let twice name f prog =
        let once = f prog in
        if f once != once then Alcotest.failf "program %d: %s applied to its output copied it" p name;
        once
      in
      let sccp prog =
        Ir.map_func (Dce_opt.Sccp.run Dce_opt.Sccp.default_config (Mi.analyze prog)) prog
      in
      let prog = twice "sccp" sccp ssa in
      let prog = twice "prune_phi_args" (Ir.map_func Dce_ir.Cfg.prune_phi_args) prog in
      ignore (twice "simplify-cfg" (Ir.map_func Dce_opt.Simplify_cfg.run) prog))
    corpus

(* One Meminfo per distinct program of a session: the pinned 8-case hunt
   corpus of the benchmark ledger analyzed 353 programs when each config's
   run kept its own analysis *)
let test_meminfo_memo_count () =
  Pm.reset_counters ();
  let journal = Filename.temp_file "dce_passmgr_test" ".jsonl" in
  ignore (Campaign.Corpus.run ~journal ~jobs:1 ~seed:20220228 ~count:8 ());
  Sys.remove journal;
  Alcotest.(check int) "Meminfo.analyze executions" 213 (Pm.counters ()).Pm.meminfo_misses

(* Along the real schedules, with one memo per program shared by its
   configs as [Pipeline.prepare] shares it (so later configs replay), the
   manager's answers for every function after every stage are fresh ones *)
let test_cfg_fresh_along_schedules () =
  let corpus = Dce_smith.Smith.generate_corpus ~seed:4711 ~count:20 in
  List.iteri
    (fun p (raw, _kinds) ->
      let ir = Dce_ir.Lower.program (Core.Instrument.program raw) in
      let memo = Pm.memo () in
      let meminfos = Pm.meminfo_memo () in
      List.iter
        (fun ((compiler, level) as cfg) ->
          let mgr = Pm.create meminfos ir in
          ignore
            (List.fold_left
               (fun prog pass ->
                 let prog', _ = Pm.run_pass ~memo mgr pass prog in
                 let where =
                   Printf.sprintf "program %d, %s after %s" p (config_name cfg) pass.Pm.p_label
                 in
                 List.iter (check_cfg_fresh where mgr) prog'.Ir.prog_funcs;
                 prog')
               ir
               (C.Pipeline.static_passes (C.Compiler.features compiler level))))
        configs)
    corpus

(* ---- the output pin ---- *)

(* Everything the pipeline emits for a fixed corpus, from validated
   sessions over every config of both compilers: each config's printed IR
   and its untimed stage records.  The digests pin byte-identity across
   changes that only make the pass manager or the passes cheaper; recompute
   them only for a change that alters outputs on purpose. *)
let pipeline_digest ~seed ~count =
  let record (r : Pm.stage_record) =
    Printf.sprintf "%s %d %b %d %d %d %d [%s]\n" r.Pm.sr_label r.Pm.sr_round r.Pm.sr_changed
      r.Pm.sr_blocks_before r.Pm.sr_blocks_after r.Pm.sr_instrs_before r.Pm.sr_instrs_after
      (String.concat "," (List.map string_of_int r.Pm.sr_markers_eliminated))
  in
  let per_program (raw, _kinds) =
    let s = C.Compiler.session ~validate:true (Core.Instrument.program raw) in
    let buf = Buffer.create 4096 in
    List.iter
      (fun (compiler, level) ->
        let ir, trace = C.Compiler.run s compiler level in
        Buffer.add_string buf (config_name (compiler, level) ^ "\n");
        Buffer.add_string buf (Dce_ir.Printer.program_to_string ir);
        List.iter (fun r -> Buffer.add_string buf (record r)) trace)
      configs;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let digests = List.map per_program (Dce_smith.Smith.generate_corpus ~seed ~count) in
  Digest.to_hex (Digest.string (String.concat "\n" digests))

let test_pipeline_output_pin () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "corpus seed %d: IR and untimed traces" seed)
        expected
        (pipeline_digest ~seed ~count:20))
    [ (20220228, "f906f9faa96e7e24a706c2efedc2cefa"); (424242, "9299af9a0b1ab20949777ab8e380bc72") ]

let suite =
  [
    ("meminfo: hit/miss counters", `Quick, test_meminfo_counters);
    ("meminfo: invalidated after a mutating pass", `Quick, test_meminfo_invalidation);
    ("cfg/dom: fresh-equal after edits and memo replays", `Quick, test_cfg_fresh);
    ("pipeline: analysis cache hits during a compile", `Quick, test_pipeline_cache_hits);
    ("fixpoint: early exit on already-optimal IR", `Quick, test_fixpoint_early_exit);
    ("schedule: stage names are the static expansion", `Quick, test_stage_names_static);
    ("trace: listing-3 attribution (gcc eliminates)", `Quick, test_attribution_listing3);
    ("trace: listing-4 attribution (llvm eliminates)", `Quick, test_attribution_listing4);
    ("diagnose: guilty stage from the fixed pipeline", `Quick, test_diagnose_guilty_stage);
    ("differential: run = run_reference on 50 programs", `Slow, test_matches_reference_corpus);
    ("smoke: validated pipeline over 25 programs", `Slow, test_validated_smoke_corpus);
    ("front: shared front = unshared compile on 50 programs", `Slow,
     test_shared_front_matches_unshared);
    ("memo: keys cover every feature of every version", `Slow, test_memo_keys_complete);
    ("front: Analysis.run = per-config compiles, same guard polls", `Quick,
     test_analysis_matches_per_config);
    ("front: corrupt IR after a front stage blames it", `Quick,
     test_front_corruption_blames_stage);
    ("pin: IR and untimed traces of 40 programs x 10 configs", `Slow, test_pipeline_output_pin);
    ("sharing: a no-op stage returns its input", `Slow, test_unchanged_stages_return_input);
    ("sharing: rewrites return their own output", `Quick, test_rewrites_return_their_output);
    ("deftab: def_rvalue = a Hashtbl walk at every stage", `Slow, test_deftab_matches_hashtbl);
    ("cfg: predecessors = the sort_uniq reference at every stage", `Slow,
     test_predecessors_match_reference);
    ("meminfo memo: one analysis per distinct program", `Quick, test_meminfo_memo_count);
    ("cfg/dom: fresh-equal at every stage of 20 programs x 10 configs", `Slow,
     test_cfg_fresh_along_schedules);
  ]
