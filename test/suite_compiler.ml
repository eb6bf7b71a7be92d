(* Tests for the compiler layer: levels, feature matrices, the version/commit
   model, pipeline scheduling, and the end-to-end semantic-preservation
   property of both simulated compilers. *)

open Helpers
module C = Dce_compiler
module Campaign = Dce_campaign
module Ir = Dce_ir.Ir
module I = Dce_interp.Interp

(* ---- levels ---- *)

let test_level_strings () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "round trip" true (C.Level.of_string (C.Level.to_string l) = Some l))
    C.Level.all;
  Alcotest.(check bool) "lenient parse" true (C.Level.of_string "o2" = Some C.Level.O2);
  Alcotest.(check bool) "unknown" true (C.Level.of_string "O9" = None)

let test_level_ordering () =
  Alcotest.(check bool) "O0 < O1" true (C.Level.compare_strength C.Level.O0 C.Level.O1 < 0);
  Alcotest.(check bool) "O1 < Os" true (C.Level.compare_strength C.Level.O1 C.Level.Os < 0);
  Alcotest.(check bool) "Os < O2" true (C.Level.compare_strength C.Level.Os C.Level.O2 < 0);
  Alcotest.(check bool) "O2 < O3" true (C.Level.compare_strength C.Level.O2 C.Level.O3 < 0)

(* ---- versions ---- *)

let test_version_zero_is_nothing () =
  List.iter
    (fun compiler ->
      List.iter
        (fun level ->
          Alcotest.(check bool) "version 0 = primitive base" true
            (C.Version.features_at compiler.C.Compiler.history 0 level = C.Features.nothing))
        C.Level.all)
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_version_o0_stays_nothing () =
  List.iter
    (fun compiler ->
      let head = C.Compiler.head compiler in
      Alcotest.(check bool) "-O0 never gains features" true
        (C.Compiler.features compiler ~version:head C.Level.O0 = C.Features.nothing))
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_head_excludes_post_head () =
  List.iter
    (fun compiler ->
      let post =
        List.filter (fun c -> c.C.Version.post_head) compiler.C.Compiler.history
      in
      Alcotest.(check bool) "has post-head fixes" true (List.length post > 0);
      Alcotest.(check int) "head skips them"
        (List.length compiler.C.Compiler.history - List.length post)
        (C.Compiler.head compiler))
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_commit_ids_unique () =
  List.iter
    (fun compiler ->
      let ids = List.map (fun c -> c.C.Version.id) compiler.C.Compiler.history in
      Alcotest.(check int) "unique ids" (List.length ids)
        (List.length (Dce_support.Listx.uniq ids)))
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_commit_id_collision_detected () =
  (* "b0" and "aQ" are a verified collision pair of the 44-bit truncated
     djb2 id hash: distinct summaries, same commit id.  History
     construction must refuse them loudly — a silent collision would
     mis-attribute bisections and alias journal commit references. *)
  let mk s = C.Version.make_commit ~summary:s ~component:"x" ~files:[] (fun _ f -> f) in
  let a = mk "b0" and b = mk "aQ" in
  Alcotest.(check string) "the pair really collides" a.C.Version.id b.C.Version.id;
  (match C.Version.validate_history [ a; b ] with
   | () -> Alcotest.fail "colliding history accepted"
   | exception Failure msg ->
     Alcotest.(check bool) "error names both summaries" true
       (Helpers.contains msg "b0" && Helpers.contains msg "aQ"));
  (match C.Version.validate_history [ a; mk "b0" ] with
   | () -> Alcotest.fail "duplicate summary accepted"
   | exception Failure msg ->
     Alcotest.(check bool) "duplicate reported as duplicate" true
       (Helpers.contains msg "duplicate"));
  (match C.Compiler.create ~name:"bad" [ a; b ] with
   | _ -> Alcotest.fail "Compiler.create accepted a colliding history"
   | exception Failure _ -> ());
  (* the built-in histories construct through the same validation *)
  C.Version.validate_history C.Gcc_sim.compiler.C.Compiler.history;
  C.Version.validate_history C.Llvm_sim.compiler.C.Compiler.history

let test_designed_head_traits () =
  let gcc = C.Compiler.features C.Gcc_sim.compiler C.Level.O3 in
  let llvm = C.Compiler.features C.Llvm_sim.compiler C.Level.O3 in
  Alcotest.(check bool) "gcc gva flow-insensitive" true
    (gcc.C.Features.gva = Dce_opt.Gva.Flow_insensitive);
  Alcotest.(check bool) "llvm gva if-const" true
    (llvm.C.Features.gva = Dce_opt.Gva.Flow_sensitive_if_const);
  Alcotest.(check bool) "gcc folds all address compares" true
    (gcc.C.Features.addr_cmp = Dce_opt.Sccp.Cmp_full);
  Alcotest.(check bool) "llvm only zero offsets" true
    (llvm.C.Features.addr_cmp = Dce_opt.Sccp.Cmp_zero_only);
  Alcotest.(check bool) "gcc keeps end-of-life stores (Listing 1)" true
    (gcc.C.Features.dse_strength = 1);
  Alcotest.(check bool) "llvm removes them" true (llvm.C.Features.dse_strength = 2);
  Alcotest.(check bool) "gcc vectorizes at O3" true gcc.C.Features.vectorize;
  Alcotest.(check bool) "llvm unswitches at O3" true llvm.C.Features.unswitch;
  Alcotest.(check bool) "llvm loses edge-aware memcp at O3" false
    llvm.C.Features.memcp_edge_aware;
  Alcotest.(check bool) "gcc keeps it" true gcc.C.Features.memcp_edge_aware

let test_post_head_fixes_apply () =
  (* applying the full history (including post-HEAD fixes) repairs the
     shift-rule gap in GCC *)
  let full = List.length C.Gcc_sim.compiler.C.Compiler.history in
  let feats = C.Compiler.features C.Gcc_sim.compiler ~version:full C.Level.O3 in
  Alcotest.(check bool) "shift rule fixed post-head" true feats.C.Features.vrp_shift_rule;
  Alcotest.(check bool) "uniform arrays fixed post-head" true feats.C.Features.uniform_arrays

(* ---- pipeline scheduling ---- *)

let test_schedule_o0_trivial () =
  let feats = C.Compiler.features C.Gcc_sim.compiler C.Level.O0 in
  Alcotest.(check (list string)) "front-end cleanup only" [ "simplify-cfg" ]
    (C.Pipeline.stage_names feats)

let test_schedule_contains_designed_order () =
  let feats = C.Compiler.features C.Gcc_sim.compiler C.Level.O3 in
  let names = C.Pipeline.stage_names feats in
  let idx name =
    let rec go i = function
      | [] -> Alcotest.failf "stage %s missing" name
      | x :: rest -> if x = name then i else go (i + 1) rest
    in
    go 0 names
  in
  Alcotest.(check bool) "ssa before everything" true (idx "ssa" < idx "inline");
  Alcotest.(check bool) "early fdce before inline (the 9b regression)" true
    (idx "function-dce-early" < idx "inline");
  Alcotest.(check bool) "vectorizer claims loops before the unroller" true
    (idx "vectorize" < idx "unroll");
  Alcotest.(check bool) "promote before vectorize" true (idx "loop-promote" < idx "vectorize");
  Alcotest.(check bool) "dse runs late" true (idx "dse" > idx "unroll")

let test_schedule_llvm_has_late_fdce () =
  let feats = C.Compiler.features C.Llvm_sim.compiler C.Level.O3 in
  let names = C.Pipeline.stage_names feats in
  Alcotest.(check bool) "llvm keeps the late removal" true (List.mem "function-dce" names);
  Alcotest.(check bool) "and has no early one" false (List.mem "function-dce-early" names)

(* ---- end-to-end compilation ---- *)

let test_compile_validates_all_configs () =
  let prog = parse {|
static int helper(int x) { if (x > 3) { return x * 2; } return x; }
static int acc;
int main(void) {
  int i;
  for (i = 0; i < 6; i++) { acc += helper(i); }
  if (acc == 12345) { DCEMarker0(); }
  use(acc);
  return 0;
}
|} in
  List.iter
    (fun compiler ->
      List.iter
        (fun level -> ignore (compile_ir compiler ~validate:true level prog))
        C.Level.all)
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_higher_levels_never_slower_code () =
  (* optimization should not increase the emitted instruction count much;
     check O3 produces no more instructions than O0 on a foldable program *)
  let prog = parse {|
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 8; i++) { s += i; }
  return s;
}
|} in
  let size compiler level =
    Dce_backend.Asm.instruction_count (Dce_backend.Codegen.program (compile_ir compiler level prog))
  in
  List.iter
    (fun compiler ->
      Alcotest.(check bool) "O3 <= O0 size on foldable code" true
        (size compiler C.Level.O3 <= size compiler C.Level.O0))
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let qcheck_tests =
  let gen = QCheck2.Gen.(int_range 1 1000000) in
  let preserves compiler level seed =
    let prog = smith_program seed in
    let instr = Dce_core.Instrument.program prog in
    let base = I.run (Dce_ir.Lower.program instr) in
    match base.I.outcome with
    | I.Finished _ ->
      let opt = compile_ir compiler ~validate:true level instr in
      I.equivalent base (I.run opt)
    | I.Trap _ | I.Out_of_fuel -> true (* rejected programs are out of scope *)
  in
  [
    qtest ~count:20 "gcc-sim -O3 preserves observable behaviour" gen
      (preserves C.Gcc_sim.compiler C.Level.O3);
    qtest ~count:20 "llvm-sim -O3 preserves observable behaviour" gen
      (preserves C.Llvm_sim.compiler C.Level.O3);
    qtest ~count:10 "gcc-sim -O2 preserves observable behaviour" gen
      (preserves C.Gcc_sim.compiler C.Level.O2);
    qtest ~count:10 "llvm-sim -Os preserves observable behaviour" gen
      (preserves C.Llvm_sim.compiler C.Level.Os);
    qtest ~count:10 "gcc-sim -O1 preserves observable behaviour" gen
      (preserves C.Gcc_sim.compiler C.Level.O1);
    qtest ~count:8 "historic versions also preserve behaviour" gen (fun seed ->
        let prog = Dce_core.Instrument.program (smith_program seed) in
        let base = I.run (Dce_ir.Lower.program prog) in
        match base.I.outcome with
        | I.Finished _ ->
          List.for_all
            (fun v ->
              let opt = compile_ir C.Gcc_sim.compiler ~version:v C.Level.O2 prog in
              I.equivalent base (I.run opt))
            [ 3; 10; 17 ]
        | I.Trap _ | I.Out_of_fuel -> true);
  ]

let test_post_head_commits_are_suffix () =
  List.iter
    (fun compiler ->
      let seen_post_head = ref false in
      List.iter
        (fun c ->
          if c.C.Version.post_head then seen_post_head := true
          else if !seen_post_head then
            Alcotest.failf "%s: pre-head commit %s after a post-head one"
              compiler.C.Compiler.name c.C.Version.id)
        compiler.C.Compiler.history)
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_commits_carry_metadata () =
  List.iter
    (fun compiler ->
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s has component" compiler.C.Compiler.name c.C.Version.id)
            true
            (String.length c.C.Version.component > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s touches files" compiler.C.Compiler.name c.C.Version.id)
            true
            (c.C.Version.files <> []))
        compiler.C.Compiler.history)
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_head_features_match_default () =
  List.iter
    (fun compiler ->
      List.iter
        (fun level ->
          let at_head =
            C.Compiler.features compiler ~version:(C.Compiler.head compiler) level
          in
          let default = C.Compiler.features compiler level in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" compiler.C.Compiler.name (C.Level.to_string level))
            true (at_head = default))
        C.Level.all)
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

(* Inlining clones the callee's frame symbols under a numbered suffix; the
   numbering restarts with every inline run, so compiling one program twice
   in one process gives the same assembly *)
let test_repeat_compile_identical () =
  let prog =
    parse
      "static int f(int x) { int a[2]; a[0] = x; a[1] = x + 1; return a[x & 1]; } int \
       main(void) { return f(3) + f(4); }"
  in
  List.iter
    (fun compiler ->
      List.iter
        (fun level ->
          let asm () =
            Dce_backend.Asm.to_string (Dce_backend.Codegen.program (compile_ir compiler level prog))
          in
          let first = asm () in
          Alcotest.(check string)
            (Printf.sprintf "%s %s" compiler.C.Compiler.name (C.Level.to_string level))
            first (asm ()))
        C.Level.all)
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

(* ---- sessions ---- *)

let compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let fresh_observe compiler ?version level prog =
  let feats = C.Compiler.features compiler ?version level in
  let asm =
    Dce_backend.Codegen.program (C.Pipeline.run feats (Dce_ir.Lower.program prog))
  in
  (Dce_backend.Asm.surviving_markers asm, Dce_backend.Asm.size asm)

(* One session shared by every version x level of both compilers answers
   exactly what a fresh lower-and-compile does, cached or not. *)
let test_session_transparent () =
  let prog = Core.Instrument.program (smith_program 3) in
  C.Compiler.clear_caches ();
  let uncached = C.Compiler.session prog and cached = C.Compiler.session ~cache:true prog in
  List.iter
    (fun compiler ->
      for v = 0 to C.Compiler.head compiler do
        List.iter
          (fun level ->
            let expected = fresh_observe compiler ~version:v level prog in
            List.iter
              (fun s ->
                let o = C.Compiler.observe s compiler ~version:v level in
                if (o.C.Compiler.obs_markers, o.C.Compiler.obs_size) <> expected then
                  Alcotest.failf "%s v%d %s: session diverges" compiler.C.Compiler.name v
                    (C.Level.to_string level))
              [ uncached; cached ])
          C.Level.all
      done)
    compilers

(* A validating session stores only stages that passed validation: a stage
   whose output a planted corruption broke is blamed, kept out of the memo,
   and executes again (cleanly) on the next compile.  Nor does a validating
   session read the whole-compile memo, whose entries were not validated. *)
let test_checked_session_replays_validated () =
  let prog = Core.Instrument.program (smith_program 7) in
  let gcc = C.Gcc_sim.compiler in
  let s = C.Compiler.session ~validate:true ~cache:true prog in
  let plan =
    [ { Campaign.Chaos.inj_case = 0; inj_stage = "gvn"; inj_fault = Campaign.Chaos.Corrupt_ir } ]
  in
  Campaign.Chaos.arm plan ~case:0 ~attempt:0;
  Fun.protect ~finally:Campaign.Chaos.disarm (fun () ->
      match C.Compiler.observe s gcc C.Level.O3 with
      | _ -> Alcotest.fail "corruption after gvn went unnoticed"
      | exception C.Passmgr.Ir_invalid { pass; _ } ->
        Alcotest.(check string) "guilty pass" "gvn" pass);
  C.Compiler.clear_caches ();
  let o = C.Compiler.observe s gcc C.Level.O3 in
  Alcotest.(check bool) "the broken stage re-executes cleanly" true
    ((o.C.Compiler.obs_markers, o.C.Compiler.obs_size) = fresh_observe gcc C.Level.O3 prog);
  let cs = (C.Compiler.cache_stats ()).C.Compiler.cs_surviving in
  Alcotest.(check int) "whole-compile memo untouched" 0
    (cs.C.Compile_cache.hits + cs.C.Compile_cache.misses)

let suite =
  [
    ("levels: strings", `Quick, test_level_strings);
    ("levels: ordering", `Quick, test_level_ordering);
    ("versions: v0 is the primitive base", `Quick, test_version_zero_is_nothing);
    ("versions: O0 never gains features", `Quick, test_version_o0_stays_nothing);
    ("versions: head excludes post-head fixes", `Quick, test_head_excludes_post_head);
    ("versions: commit ids unique", `Quick, test_commit_ids_unique);
    ("versions: commit id collisions refused", `Quick, test_commit_id_collision_detected);
    ("versions: post-head commits are a suffix", `Quick, test_post_head_commits_are_suffix);
    ("versions: commits carry metadata", `Quick, test_commits_carry_metadata);
    ("versions: HEAD features = default features", `Quick, test_head_features_match_default);
    ("features: designed HEAD asymmetries", `Quick, test_designed_head_traits);
    ("features: post-head fixes apply", `Quick, test_post_head_fixes_apply);
    ("pipeline: O0 schedule", `Quick, test_schedule_o0_trivial);
    ("pipeline: designed stage order", `Quick, test_schedule_contains_designed_order);
    ("pipeline: llvm late function-dce", `Quick, test_schedule_llvm_has_late_fdce);
    ("compile: all configs validate", `Quick, test_compile_validates_all_configs);
    ("compile: foldable code shrinks", `Quick, test_higher_levels_never_slower_code);
    ("compile: a repeated compile gives identical asm", `Quick, test_repeat_compile_identical);
    ("session: shared across versions and levels", `Slow, test_session_transparent);
    ("session: checked replays only validated stages", `Quick,
     test_checked_session_replays_validated);
  ]
  @ qcheck_tests
