(* Tests for the fast reduction engine: staged predicates, the
   content-addressed caches, and the deterministic parallel search.

   The load-bearing properties:
   - the engine at any [jobs]/[cache] setting is field-for-field identical
     to the pre-engine sequential reducer ([Reduce_reference.reduce]);
   - stages short-circuit (later stages are entered strictly less often);
   - the verdict and compile caches are observably transparent;
   - [Ast.hash_program] is a function of program structure (stable under
     pretty-print → reparse, sensitive to edits). *)

open Helpers
module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Ast = Dce_minic.Ast
module R = Dce_reduce

let gcc_o3 = { Core.Differential.compiler = C.Gcc_sim.compiler; level = C.Level.O3; version = None }
let llvm_o3 = { Core.Differential.compiler = C.Llvm_sim.compiler; level = C.Level.O3; version = None }

let listing4 =
  lazy
    (Core.Instrument.program
       (parse
          {|
static int a = 0;
static int noise1 = 3;
int noise2[4] = {1, 2, 3, 4};
static int pad(int x) { return x * noise1; }
int main(void) {
  int t = pad(2);
  use(t);
  if (noise2[1] > 100) { use(7); }
  if (a) { use(1); }
  use(noise2[2]);
  a = 0;
  return 0;
}
|}))

let diff_marker prog =
  let g = Core.Differential.surviving gcc_o3 prog in
  let l = Core.Differential.surviving llvm_o3 prog in
  Ir.Iset.choose (Ir.Iset.diff g l)

let staged_predicate ?(compile_cache = true) marker =
  R.Predicate.marker_diff ~compile_cache ~keep_missed_by:gcc_o3 ~eliminated_by:llvm_o3 ~marker ()

let check_same_result name (a : R.Engine.result) (b : R.Engine.result) =
  Alcotest.(check string)
    (name ^ ": program")
    (Dce_minic.Pretty.program_to_string a.R.Engine.program)
    (Dce_minic.Pretty.program_to_string b.R.Engine.program);
  Alcotest.(check int) (name ^ ": tests_run") a.R.Engine.tests_run b.R.Engine.tests_run;
  Alcotest.(check int) (name ^ ": rounds") a.R.Engine.rounds b.R.Engine.rounds;
  Alcotest.(check int) (name ^ ": initial_size") a.R.Engine.initial_size b.R.Engine.initial_size;
  Alcotest.(check int) (name ^ ": final_size") a.R.Engine.final_size b.R.Engine.final_size

(* ---- engine vs the pre-engine sequential reducer ---- *)

(* a cheap opaque predicate every generated program supports: the chosen
   marker stays dead under ground truth *)
let dead_marker_predicate marker p =
  match Core.Ground_truth.compute p with
  | Core.Ground_truth.Valid t -> Ir.Iset.mem marker t.Core.Ground_truth.dead
  | Core.Ground_truth.Rejected _ -> false

let test_engine_matches_reference () =
  let compared = ref 0 in
  for seed = 1 to 25 do
    let prog = Core.Instrument.program (smith_program seed) in
    match Core.Ground_truth.compute prog with
    | Core.Ground_truth.Rejected _ -> ()
    | Core.Ground_truth.Valid truth -> (
      match Ir.Iset.choose_opt truth.Core.Ground_truth.dead with
      | None -> ()
      | Some marker ->
        let predicate = dead_marker_predicate marker in
        let a = R.Reduce.reduce ~max_tests:60 ~predicate prog in
        let b = Reduce_reference.reduce ~max_tests:60 ~predicate prog in
        incr compared;
        Alcotest.(check string)
          (Printf.sprintf "seed %d: program" seed)
          (Dce_minic.Pretty.program_to_string b.R.Reduce.program)
          (Dce_minic.Pretty.program_to_string a.R.Reduce.program);
        Alcotest.(check int)
          (Printf.sprintf "seed %d: tests_run" seed)
          b.R.Reduce.tests_run a.R.Reduce.tests_run;
        Alcotest.(check int) (Printf.sprintf "seed %d: rounds" seed) b.R.Reduce.rounds a.R.Reduce.rounds;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: final_size" seed)
          b.R.Reduce.final_size a.R.Reduce.final_size)
  done;
  Alcotest.(check bool) "corpus not vacuous" true (!compared >= 20)

(* ---- determinism across jobs and cache settings ---- *)

let test_jobs_deterministic () =
  let prog = Lazy.force listing4 in
  let marker = diff_marker prog in
  let run jobs = R.Engine.reduce ~max_tests:1500 ~jobs ~predicate:(staged_predicate marker) prog in
  let r1 = run 1 in
  check_same_result "jobs 4" r1 (run 4);
  check_same_result "jobs 3" r1 (run 3);
  (* and both agree with the pre-engine reducer under the opaque predicate *)
  let old_pred =
    R.Reduce.marker_diff_predicate ~keep_missed_by:gcc_o3 ~eliminated_by:llvm_o3 ~marker
  in
  let old_r = Reduce_reference.reduce ~max_tests:1500 ~predicate:old_pred prog in
  Alcotest.(check string) "matches reference reducer"
    (Dce_minic.Pretty.program_to_string old_r.R.Reduce.program)
    (Dce_minic.Pretty.program_to_string r1.R.Engine.program);
  Alcotest.(check int) "same charge as reference" old_r.R.Reduce.tests_run r1.R.Engine.tests_run;
  Alcotest.(check int) "same rounds as reference" old_r.R.Reduce.rounds r1.R.Engine.rounds

let test_cache_transparent () =
  let prog = Lazy.force listing4 in
  let marker = diff_marker prog in
  let with_cache =
    R.Engine.reduce ~max_tests:1500 ~cache:true ~predicate:(staged_predicate marker) prog
  in
  let without =
    R.Engine.reduce ~max_tests:1500 ~cache:false
      ~predicate:(staged_predicate ~compile_cache:false marker)
      prog
  in
  check_same_result "cache on/off" with_cache without;
  (* cache off: every charged test plus the initial check executes *)
  Alcotest.(check int) "uncached runs = charged + initial"
    (without.R.Engine.tests_run + 1)
    without.R.Engine.stats.R.Engine.s_predicate_runs;
  (* cache on: duplicate candidates (chunk grids re-align) are memoized *)
  let s = with_cache.R.Engine.stats in
  Alcotest.(check bool) "verdict cache hits" true (s.R.Engine.s_cache.C.Compile_cache.hits > 0);
  Alcotest.(check bool) "fewer evaluations than charges" true
    (s.R.Engine.s_predicate_runs < s.R.Engine.s_charged)

(* ---- staging: cheap stages reject first, pipelines are saved ---- *)

let test_stage_short_circuit () =
  let entered_2nd = ref 0 in
  let p =
    R.Predicate.v
      [
        {
          R.Predicate.st_name = "gate";
          st_cost = R.Predicate.Free;
          st_run = (fun prog -> if prog.Ast.p_funcs = [] then Some prog else None);
        };
        {
          R.Predicate.st_name = "expensive";
          st_cost = R.Predicate.Pipeline;
          st_run =
            (fun prog ->
              incr entered_2nd;
              Some prog);
        };
      ]
  in
  let prog = parse "int main(void) { return 0; }" in
  (match R.Predicate.run p prog with
  | R.Predicate.Rejected 0, samples ->
    Alcotest.(check int) "only the gate sampled" 1 (List.length samples)
  | _ -> Alcotest.fail "expected rejection at stage 0");
  Alcotest.(check int) "second stage never entered" 0 !entered_2nd;
  let counts = R.Predicate.counts p in
  Alcotest.(check int) "gate entered once" 1 (List.nth counts 0).R.Predicate.sc_entered;
  Alcotest.(check int) "gate rejected once" 1 (List.nth counts 0).R.Predicate.sc_rejected;
  Alcotest.(check int) "expensive never entered" 0 (List.nth counts 1).R.Predicate.sc_entered

let test_staging_saves_pipelines () =
  let prog = Lazy.force listing4 in
  let marker = diff_marker prog in
  let r = R.Engine.reduce ~max_tests:1500 ~predicate:(staged_predicate marker) prog in
  let s = r.R.Engine.stats in
  (* entered counts are monotone along the stage chain *)
  let entered = List.map (fun sc -> sc.R.Predicate.sc_entered) s.R.Engine.s_stages in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "stage entries monotone" true (monotone entered);
  Alcotest.(check bool) "free stages rejected something" true
    ((List.nth s.R.Engine.s_stages 0).R.Predicate.sc_rejected > 0
    || (List.nth s.R.Engine.s_stages 1).R.Predicate.sc_rejected > 0);
  (* the acceptance bar: at least 3x fewer pipelines than the naive
     2-pipelines-per-test predicate (measured 5.1x on this case) *)
  Alcotest.(check bool) "3x fewer pipeline executions" true
    (s.R.Engine.s_pipelines_naive >= 3 * max 1 s.R.Engine.s_pipelines_run)

let test_compile_cache_transparent () =
  C.Compiler.clear_caches ();
  List.iter
    (fun seed ->
      let prog = Core.Instrument.program (smith_program seed) in
      List.iter
        (fun (comp, level) ->
          let plain = markers_of comp level prog in
          let cached = markers_of ~cache:true comp level prog in
          let again = markers_of ~cache:true comp level prog in
          Alcotest.(check (list int)) "cached = plain" plain cached;
          Alcotest.(check (list int)) "memo hit = plain" plain again)
        [ (C.Gcc_sim.compiler, C.Level.O3); (C.Llvm_sim.compiler, C.Level.O2) ])
    [ 11; 12; 13 ];
  let cs = C.Compiler.cache_stats () in
  Alcotest.(check bool) "whole-compile memo hits" true
    (cs.C.Compiler.cs_surviving.C.Compile_cache.hits > 0);
  Alcotest.(check bool) "no unresolved collisions" true
    (cs.C.Compiler.cs_surviving.C.Compile_cache.entries
    <= cs.C.Compiler.cs_surviving.C.Compile_cache.misses)

let test_compile_cache_collision_checked () =
  (* force every key into one bucket: structural equality must still keep
     the entries apart *)
  let t = C.Compile_cache.create ~hash:(fun _ -> 42) ~equal:( = ) () in
  Alcotest.(check int) "first" 1 (C.Compile_cache.find_or_add t "a" (fun () -> 1));
  Alcotest.(check int) "second distinct key" 2 (C.Compile_cache.find_or_add t "b" (fun () -> 2));
  Alcotest.(check int) "first again" 1 (C.Compile_cache.find_or_add t "a" (fun () -> 99));
  let c = C.Compile_cache.counters t in
  Alcotest.(check int) "entries" 2 c.C.Compile_cache.entries;
  Alcotest.(check int) "hits" 1 c.C.Compile_cache.hits;
  Alcotest.(check bool) "collision detected" true (c.C.Compile_cache.collisions > 0)

(* ---- fault isolation ---- *)

let test_candidate_crash_quarantined () =
  let prog = Lazy.force listing4 in
  let nfuncs = List.length prog.Ast.p_funcs in
  let p =
    R.Predicate.v
      [
        {
          R.Predicate.st_name = "typecheck";
          st_cost = R.Predicate.Free;
          st_run =
            (fun p ->
              match Dce_minic.Typecheck.check p with Ok n -> Some n | Error _ -> None);
        };
        {
          R.Predicate.st_name = "fragile";
          st_cost = R.Predicate.Execution;
          st_run =
            (fun p ->
              if List.length p.Ast.p_funcs < nfuncs then failwith "boom" else Some p);
        };
      ]
  in
  let r = R.Engine.reduce ~max_tests:300 ~jobs:2 ~predicate:p prog in
  Alcotest.(check bool) "crashes recorded" true (r.R.Engine.stats.R.Engine.s_crashes <> []);
  List.iter
    (fun (c : R.Engine.crash) ->
      Alcotest.(check string) "attributed to the fragile stage" "fragile" c.R.Engine.cr_stage)
    r.R.Engine.stats.R.Engine.s_crashes;
  Alcotest.(check int) "crashing edits rejected, functions kept" nfuncs
    (List.length r.R.Engine.program.Ast.p_funcs)

(* ---- journal warm-start ---- *)

let test_journal_resume () =
  let prog = Lazy.force listing4 in
  let marker = diff_marker prog in
  let path = Filename.temp_file "dce_reduce_test" ".jsonl" in
  Sys.remove path;
  let first =
    R.Engine.reduce ~max_tests:1500 ~journal:path ~predicate:(staged_predicate marker) prog
  in
  let second =
    R.Engine.reduce ~max_tests:1500 ~journal:path ~predicate:(staged_predicate marker) prog
  in
  Sys.remove path;
  check_same_result "resumed run" first second;
  Alcotest.(check bool) "verdicts restored" true (second.R.Engine.stats.R.Engine.s_resumed > 0);
  Alcotest.(check int) "nothing re-evaluated" 0 second.R.Engine.stats.R.Engine.s_predicate_runs

(* ---- structural hashing ---- *)

let properties =
  let gen_seed = QCheck2.Gen.(int_range 1 10000000) in
  [
    qtest ~count:30 "hash_program stable under pretty-print -> reparse" gen_seed (fun seed ->
        let prog = Core.Instrument.program (smith_program seed) in
        let reparsed =
          Dce_minic.Parser.parse_program (Dce_minic.Pretty.program_to_string prog)
        in
        Ast.hash_program prog = Ast.hash_program reparsed);
    qtest ~count:30 "hash_program sensitive to edits" gen_seed (fun seed ->
        let prog = Core.Instrument.program (smith_program seed) in
        match R.Edits.candidates prog with
        | [] -> true
        | c :: _ ->
          let edited = Lazy.force c in
          Ast.hash_program prog <> Ast.hash_program edited);
  ]

let suite =
  [
    ("engine matches reference over seeded corpus", `Slow, test_engine_matches_reference);
    ("jobs-N result byte-identical to jobs-1", `Slow, test_jobs_deterministic);
    ("verdict cache is observably transparent", `Slow, test_cache_transparent);
    ("stages short-circuit (no entry past a rejection)", `Quick, test_stage_short_circuit);
    ("staged predicate saves 3x pipelines", `Slow, test_staging_saves_pipelines);
    ("compile cache returns identical results", `Slow, test_compile_cache_transparent);
    ("compile cache survives forced hash collisions", `Quick, test_compile_cache_collision_checked);
    ("crashing candidate is quarantined, not fatal", `Quick, test_candidate_crash_quarantined);
    ("journal warm-starts an identical reduction", `Slow, test_journal_resume);
  ]
  @ properties
