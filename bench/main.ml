(* Benchmark and reproduction harness.

   Regenerates every table and figure of "Finding Missed Optimizations
   through the Lens of Dead Code Elimination" (ASPLOS '22) on a freshly
   generated corpus, prints the paper's numbers next to the measured ones,
   and finishes with Bechamel micro-benchmarks (one per table/figure, timing
   the computation that produces it).

   Corpus size: DCE_BENCH_PROGRAMS (default 150).  The paper used 10,000
   Csmith programs; the shapes stabilize far earlier on this corpus. *)

module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Smith = Dce_smith.Smith
module R = Dce_report
module Campaign = Dce_campaign
module Repair = Dce_repair

let corpus_size =
  match Sys.getenv_opt "DCE_BENCH_PROGRAMS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 150)
  | None -> 150

(* worker domains for the campaign engine; results are identical for any
   value (outcomes are indexed by case), so this only changes wall-clock *)
let jobs =
  match Sys.getenv_opt "DCE_BENCH_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

(* When set, the whole run is additionally dumped as one JSON document:
   every section's name, wall time, and rendered text, plus the structured
   reduction metrics.  BENCH_reduce.json is written regardless. *)
let json_path = Sys.getenv_opt "DCE_BENCH_JSON"

(* DCE_BENCH_SECTIONS=exec,table1 runs only the named sections *)
let section_filter =
  match Sys.getenv_opt "DCE_BENCH_SECTIONS" with
  | None | Some "" -> None
  | Some s -> Some (String.split_on_char ',' s |> List.map String.trim)

let section_wanted name =
  match section_filter with None -> true | Some names -> List.mem name names

let section title =
  Printf.printf "\n=== %s ===\n" title

let section_log : (string * float * string) list ref = ref []

(* Run one section, timing it; with DCE_BENCH_JSON set, tee its stdout
   through a temp file so the dump carries the rendered text verbatim. *)
let run_section name f =
  if not (section_wanted name) then ()
  else
  let t0 = Dce_support.Clock.now () in
  let text =
    match json_path with
    | None ->
      f ();
      ""
    | Some _ ->
      flush stdout;
      let tmp = Filename.temp_file "dce_bench" ".txt" in
      let saved = Unix.dup Unix.stdout in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
      Unix.dup2 fd Unix.stdout;
      Unix.close fd;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved)
        f;
      let ic = open_in_bin tmp in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove tmp;
      print_string text;
      text
  in
  section_log := (name, Dce_support.Clock.now () -. t0, text) :: !section_log

(* ------------------------------------------------------------------ *)
(* corpus and analysis (shared by all tables)                          *)
(* ------------------------------------------------------------------ *)

let campaign = lazy (Campaign.Corpus.run ~jobs ~seed:20220228 ~count:corpus_size ())

let analyses = lazy (List.map snd (Campaign.Corpus.outcomes (Lazy.force campaign)))

let stats = lazy (Campaign.Corpus.stats (Lazy.force campaign))

let instrumented_programs = lazy (Campaign.Corpus.instrumented_programs (Lazy.force campaign))

(* ------------------------------------------------------------------ *)
(* §4.1 prevalence + Tables 1/2                                        *)
(* ------------------------------------------------------------------ *)

let print_prevalence () =
  section "Dead-block prevalence (paper §4.1)";
  let st = Lazy.force stats in
  print_endline (R.Stats.prevalence st);
  print_endline "paper: 3,109,167 blocks, 89.59% dead, 10.41% alive"

let print_table1 () =
  section "Table 1: % dead blocks that are missed";
  print_string (R.Stats.table1 (Lazy.force stats));
  print_endline "paper:  O0 85.21/83.82  O1 8.18/5.20  Os 5.94/4.75  O2 5.66/4.35  O3 5.60/4.31 (gcc/llvm)"

let print_table2 () =
  section "Table 2: % dead blocks that are primary missed";
  print_string (R.Stats.table2 (Lazy.force stats));
  print_endline "paper:  O0 15.30/4.75  O1 1.76/1.47  Os 1.56/1.43  O2 1.53/1.38  O3 1.53/1.37 (gcc/llvm)"

(* ------------------------------------------------------------------ *)
(* pass-manager instrumentation                                        *)
(* ------------------------------------------------------------------ *)

let print_passmgr () =
  section "Pass manager: analysis-cache hit rate and per-pass attribution";
  (* force the corpus compiles so the counters cover them all *)
  let st = Lazy.force stats in
  let c = C.Passmgr.counters () in
  Printf.printf "Meminfo.analyze   %7d computed, %7d served from cache\n"
    c.C.Passmgr.meminfo_misses c.C.Passmgr.meminfo_hits;
  Printf.printf "predecessor maps  %7d computed, %7d served from cache\n" c.C.Passmgr.cfg_misses
    c.C.Passmgr.cfg_hits;
  Printf.printf "dominator trees   %7d computed, %7d served from cache\n" c.C.Passmgr.dom_misses
    c.C.Passmgr.dom_hits;
  Printf.printf "stage memo        %7d executed, %7d replayed\n" c.C.Passmgr.memo_misses
    c.C.Passmgr.memo_hits;
  Printf.printf "overall cache hit rate: %.1f%% (stage memo: %.1f%%)\n"
    (100.0 *. C.Passmgr.hit_rate c)
    (100.0 *. C.Passmgr.memo_hit_rate c);
  print_endline "Markers eliminated per stage at -O3 (stage-trace attribution):";
  print_string (R.Stats.attribution_table st)

let print_campaign_metrics () =
  section
    (Printf.sprintf "Campaign engine: %d worker domain(s), per-stage wall-time percentiles" jobs);
  let c = Lazy.force campaign in
  print_string (Campaign.Metrics.to_string c.Campaign.Corpus.c_metrics);
  if c.Campaign.Corpus.c_quarantine <> [] then begin
    Printf.printf "%d case(s) quarantined:\n" (List.length c.Campaign.Corpus.c_quarantine);
    print_string
      (Campaign.Engine.quarantine_to_string ~seeds:c.Campaign.Corpus.c_seeds
         c.Campaign.Corpus.c_quarantine)
  end

(* ------------------------------------------------------------------ *)
(* §4.2 differentials                                                  *)
(* ------------------------------------------------------------------ *)

let print_differentials () =
  section "Cross-compiler and cross-level differentials (paper §4.2)";
  print_string (R.Stats.differential_summary (Lazy.force stats));
  print_endline
    "paper: GCC misses 39,723 (4,749 primary) that LLVM catches; LLVM misses 3,781 (396 primary);";
  print_endline
    "       level regressions: GCC 308 markers (24 primary), LLVM 456 (54 primary)"

(* ------------------------------------------------------------------ *)
(* Tables 3/4: bisected regression components (bisection campaign)     *)
(* ------------------------------------------------------------------ *)

(* One bisection campaign powers both the tables and the probe-cache bench:
   the caches are cleared first so the surviving-compile miss delta counts
   exactly the pipelines this campaign executed — with the probe cache on,
   that is far fewer than the probe count (one compiled version answers for
   every sibling marker of a program). *)
let bisect_campaign_run = lazy begin
  C.Compiler.clear_caches ();
  let before = (C.Compiler.cache_stats ()).C.Compiler.cs_surviving.C.Compile_cache.misses in
  let b = Campaign.Bisect_campaign.run ~jobs (Lazy.force campaign) in
  let after = (C.Compiler.cache_stats ()).C.Compiler.cs_surviving.C.Compile_cache.misses in
  (b, after - before)
end

let print_tables34 () =
  section "Tables 3/4: offending commits of bisected regressions, by component";
  let b, _ = Lazy.force bisect_campaign_run in
  print_string (Campaign.Bisect_campaign.summary b);
  print_string (Campaign.Bisect_campaign.component_tables b);
  print_endline "paper Table 3: 38 regressions, 21 commits, 11 components, 23 files (LLVM)";
  print_endline "paper Table 4: 44 regressions, 23 commits, 16 components, 34 files (GCC)";
  if b.Campaign.Bisect_campaign.b_quarantine <> [] then begin
    Printf.printf "%d case(s) quarantined:\n"
      (List.length b.Campaign.Bisect_campaign.b_quarantine);
    print_string
      (Campaign.Engine.quarantine_to_string ~seeds:b.Campaign.Bisect_campaign.b_seeds
         b.Campaign.Bisect_campaign.b_quarantine)
  end

let bisect_bench_json : Campaign.Json.t ref = ref Campaign.Json.Null

let print_bisect_bench () =
  section
    (Printf.sprintf "Bisection campaign: probe cache effect, %d worker domain(s)" jobs);
  let b, pipelines = Lazy.force bisect_campaign_run in
  let probes = b.Campaign.Bisect_campaign.b_probes in
  let ratio = if pipelines = 0 then 0.0 else float_of_int probes /. float_of_int pipelines in
  Printf.printf
    "%d compile-and-check probes answered by %d pipeline executions (%.1fx fewer; uncached, every \
     probe would compile)\n"
    probes pipelines ratio;
  let component_rows =
    List.concat_map
      (fun (compiler, commits) ->
        List.map
          (fun (r : Dce_bisect.Bisect.component_row) ->
            Campaign.Json.Obj
              [
                ("compiler", Campaign.Json.String compiler);
                ("component", Campaign.Json.String r.Dce_bisect.Bisect.component);
                ("commits", Campaign.Json.Int r.Dce_bisect.Bisect.commits);
                ("files", Campaign.Json.Int r.Dce_bisect.Bisect.files);
              ])
          (Dce_bisect.Bisect.component_table commits))
      (Campaign.Bisect_campaign.commits_by_compiler b)
  in
  let doc =
    Campaign.Json.Obj
      [
        ("cases", Campaign.Json.Int b.Campaign.Bisect_campaign.b_bisected);
        ("pairs", Campaign.Json.Int b.Campaign.Bisect_campaign.b_pairs);
        ( "regressions",
          Campaign.Json.Int (List.length (Campaign.Bisect_campaign.regressions b)) );
        ("probes", Campaign.Json.Int probes);
        ("pipelines_cached", Campaign.Json.Int pipelines);
        ("speedup_vs_uncached", Campaign.Json.Float ratio);
        ("components", Campaign.Json.List component_rows);
      ]
  in
  bisect_bench_json := doc;
  let oc = open_out "BENCH_bisect.json" in
  output_string oc (Campaign.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_bisect.json"

(* ------------------------------------------------------------------ *)
(* Supervision: guard overhead and chaos containment                   *)
(* ------------------------------------------------------------------ *)

(* Bechamel's OLS estimate of one run of each test, in ns, by name *)
let bechamel_ns test =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Hashtbl.fold
    (fun name r acc ->
      (name, match Analyze.OLS.estimates r with Some [ est ] -> Some est | _ -> None) :: acc)
    (Analyze.all ols Toolkit.Instance.monotonic_clock raw)
    []

(* The guard's promise is "pay nothing when unarmed, almost nothing when
   armed": the interpreter polls every 256 steps, so the bench times one
   interpreter-heavy program with and without an armed guard.  The chaos
   half re-runs a small campaign under a five-fault plan and shows the
   containment cost: faulted cases quarantined or recovered, total wall
   within a small factor of the fault-free run. *)
let print_supervision_bench () =
  section "Supervision: guard overhead and chaos containment";
  let module Guard = Dce_support.Guard in
  let ir =
    Dce_ir.Lower.program
      (Core.Instrument.program (fst (Smith.generate (Smith.default_config 4242))))
  in
  (* one run takes well under a millisecond: Bechamel's regression over
     thousands of runs, not a loop of a few timer reads *)
  let time name f =
    match bechamel_ns (Bechamel.Test.make ~name (Bechamel.Staged.stage f)) with
    | [ (_, Some ns) ] -> ns /. 1e9
    | _ -> 0.
  in
  let bare = time "unguarded" (fun () -> Dce_interp.Interp.run ir) in
  let armed =
    time "guarded" (fun () ->
        Guard.with_guard
          (Guard.create ~deadline:3600.0 ~steps:max_int ())
          (fun () -> Dce_interp.Interp.run ir))
  in
  let overhead = if bare > 0. then (armed -. bare) /. bare *. 100. else 0. in
  Printf.printf
    "interpreter, Bechamel OLS: unguarded %.3fms/run, deadline+step guard %.3fms/run (%+.1f%% \
     overhead)\n"
    (bare *. 1e3) (armed *. 1e3) overhead;
  let chaos =
    "crash@3,hang@7:ground-truth,transient@11:differential,slow@13:instrument,corrupt@17"
  in
  let cases = 30 in
  let t0 = Dce_support.Clock.now () in
  let plain = Campaign.Corpus.run ~jobs ~seed:4242 ~count:cases () in
  let plain_wall = Dce_support.Clock.now () -. t0 in
  let t0 = Dce_support.Clock.now () in
  let chaotic =
    Campaign.Corpus.run ~jobs ~seed:4242 ~count:cases
      ~settings:(Campaign.Settings.v ~chaos ~step_budget:2_000_000 ~retries:2 ())
      ()
  in
  let chaos_wall = Dce_support.Clock.now () -. t0 in
  let m = chaotic.Campaign.Corpus.c_metrics in
  Printf.printf
    "chaos campaign (%d cases, 5-fault plan): %.2fs vs %.2fs fault-free; %d quarantined (%d \
     crash / %d timeout / %d invalid IR), %d recovered by retry, %d faults fired\n"
    cases chaos_wall plain_wall
    (List.length chaotic.Campaign.Corpus.c_quarantine)
    m.Campaign.Metrics.crashed m.Campaign.Metrics.timeouts m.Campaign.Metrics.ir_invalid
    m.Campaign.Metrics.recovered m.Campaign.Metrics.chaos_fired;
  ignore plain;
  let doc =
    Campaign.Json.Obj
      [
        ("interp_unguarded_ms", Campaign.Json.Float (bare *. 1e3));
        ("interp_guarded_ms", Campaign.Json.Float (armed *. 1e3));
        ("guard_overhead_pct", Campaign.Json.Float overhead);
        ("chaos_cases", Campaign.Json.Int cases);
        ("chaos_wall_s", Campaign.Json.Float chaos_wall);
        ("fault_free_wall_s", Campaign.Json.Float plain_wall);
        ("quarantined", Campaign.Json.Int (List.length chaotic.Campaign.Corpus.c_quarantine));
        ("crashed", Campaign.Json.Int m.Campaign.Metrics.crashed);
        ("timeouts", Campaign.Json.Int m.Campaign.Metrics.timeouts);
        ("ir_invalid", Campaign.Json.Int m.Campaign.Metrics.ir_invalid);
        ("retries", Campaign.Json.Int m.Campaign.Metrics.retries);
        ("recovered", Campaign.Json.Int m.Campaign.Metrics.recovered);
        ("chaos_fired", Campaign.Json.Int m.Campaign.Metrics.chaos_fired);
      ]
  in
  let oc = open_out "BENCH_supervision.json" in
  output_string oc (Campaign.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_supervision.json"

(* ------------------------------------------------------------------ *)
(* Executor: bytecode VM vs reference interpreter                      *)
(* ------------------------------------------------------------------ *)

module Exec = Dce_exec.Exec

(* Run [ir] on the bytecode VM, compile included — what the VM costs a
   run that {!Exec.run} hands off to it. *)
let vm_run ir = Dce_exec.Bc_vm.run (Dce_exec.Bc_compile.program ir)

(* The VM's contract is "identical results, a multiple of the throughput".
   Parity is asserted before any timing — a fast wrong executor is
   worthless — then executed-steps/sec is measured on a loop-heavy program
   (≈1.2M steps, the ground-truth fuel regime) plus a slice of generated
   corpus programs for realism.  Both end-to-end throughput (compile +
   run) and run-only throughput (the bytecode reused) are reported; the
   ≥5x bar applies end-to-end. *)
let print_exec_bench () =
  section "Executor: bytecode VM vs reference interpreter";
  let hot =
    Dce_minic.Typecheck.check_exn
      (Dce_minic.Parser.parse_program
         {|
int acc = 1;
int main(void) {
  int i = 0;
  while (i < 300) {
    int j = 0;
    while (j < 500) {
      acc = acc + i * j - acc / 7 + (acc & 31);
      j = j + 1;
    }
    i = i + 1;
  }
  return acc & 255;
}
|})
  in
  let corpus_irs =
    List.map
      (fun s ->
        Dce_ir.Lower.program
          (Core.Instrument.program (fst (Smith.generate (Smith.default_config s)))))
      [ 4242; 777; 20220228; 31415; 2718 ]
  in
  let irs = Dce_ir.Lower.program hot :: corpus_irs in
  let parity_ok =
    List.for_all
      (fun ir ->
        Exec.results_equal (Dce_interp.Interp.run ir) (vm_run ir))
      irs
  in
  Printf.printf "parity on %d programs: %s\n" (List.length irs)
    (if parity_ok then "identical results under both backends" else "DIVERGENCE");
  let total_steps =
    List.fold_left (fun acc ir -> acc + (vm_run ir).Dce_interp.Interp.steps) 0 irs
  in
  let reps = 12 in
  let time f =
    let t0 = Dce_support.Clock.now () in
    for _ = 1 to reps do
      List.iter f irs
    done;
    (Dce_support.Clock.now () -. t0) /. float_of_int reps
  in
  let interp_s = time (fun ir -> ignore (Dce_interp.Interp.run ir)) in
  let vm_s = time (fun ir -> ignore (vm_run ir)) in
  let compiled = List.map Dce_exec.Bc_compile.program irs in
  let t0 = Dce_support.Clock.now () in
  for _ = 1 to reps do
    List.iter (fun cp -> ignore (Dce_exec.Bc_vm.run cp)) compiled
  done;
  let vm_run_s = (Dce_support.Clock.now () -. t0) /. float_of_int reps in
  let sps s = float_of_int total_steps /. s in
  let speedup = sps vm_s /. sps interp_s in
  Printf.printf "workload: %d programs, %d executed steps per pass, %d passes\n"
    (List.length irs) total_steps reps;
  Printf.printf "interp            %10.0f steps/sec  (%.2f ms/pass)\n" (sps interp_s)
    (interp_s *. 1e3);
  Printf.printf "vm (compile+run)  %10.0f steps/sec  (%.2f ms/pass)  %.1fx\n" (sps vm_s)
    (vm_s *. 1e3) speedup;
  Printf.printf "vm (run only)     %10.0f steps/sec  (%.2f ms/pass)  %.1fx\n" (sps vm_run_s)
    (vm_run_s *. 1e3)
    (sps vm_run_s /. sps interp_s);
  if speedup < 5.0 then
    Printf.printf "WARNING: VM end-to-end speedup %.1fx is below the 5x bar\n" speedup;
  let doc =
    Campaign.Json.Obj
      [
        ("programs", Campaign.Json.Int (List.length irs));
        ("reps", Campaign.Json.Int reps);
        ("executed_steps_per_pass", Campaign.Json.Int total_steps);
        ("parity_ok", Campaign.Json.Bool parity_ok);
        ("interp_steps_per_sec", Campaign.Json.Float (sps interp_s));
        ("vm_steps_per_sec", Campaign.Json.Float (sps vm_s));
        ("vm_run_only_steps_per_sec", Campaign.Json.Float (sps vm_run_s));
        ("speedup", Campaign.Json.Float speedup);
        ("meets_5x_bar", Campaign.Json.Bool (speedup >= 5.0));
      ]
  in
  let oc = open_out "BENCH_exec.json" in
  output_string oc (Campaign.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_exec.json"

(* ------------------------------------------------------------------ *)
(* Table 5: triage                                                     *)
(* ------------------------------------------------------------------ *)

let reports = lazy begin
  let st = Lazy.force stats in
  let programs = Lazy.force instrumented_programs in
  R.Triage.triage ~programs (st.R.Stats.findings @ st.R.Stats.regression_findings)
end

let print_table5 () =
  section "Table 5: missed optimizations reported / confirmed / duplicate / fixed";
  let reports = Lazy.force reports in
  print_string (R.Triage.table5 reports);
  print_endline "paper:  Reported 53/31  Confirmed 43/19  Duplicate 5/0  Fixed 12/11 (gcc/llvm)";
  print_endline "report clusters (deduplicated by diagnosis signature):";
  List.iter
    (fun (r : R.Triage.report) ->
      Printf.printf "  %-9s %-24s %-10s x%d (%s)\n" r.R.Triage.r_compiler r.R.Triage.r_signature
        (R.Triage.status_name r.R.Triage.r_status)
        r.R.Triage.r_occurrences
        (Option.value ~default:"?" r.R.Triage.r_component))
    reports

(* ------------------------------------------------------------------ *)
(* Figure 1: the four-step pipeline, traced on one program             *)
(* ------------------------------------------------------------------ *)

let figure1_demo () =
  section "Figure 1: approach overview (trace on one program)";
  let src =
    {|
static int a = 0;
int b[2] = {0, 0};
int main(void) {
  char *d = &a;
  char *e = &b[1];
  if (d == e) { use(1); }
  if (a) { b[0] = 1; b[1] = 1; }
  a = 0;
  return 0;
}
|}
  in
  let prog = Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program src) in
  let instr = Core.Instrument.program prog in
  Printf.printf "step 1: instrumented %d markers\n" (Core.Instrument.marker_count instr);
  (match Core.Ground_truth.compute instr with
   | Core.Ground_truth.Valid truth ->
     Printf.printf "step 2: executed; alive markers {%s}, dead {%s}\n"
       (String.concat "," (List.map string_of_int (Ir.Iset.elements truth.Core.Ground_truth.alive)))
       (String.concat "," (List.map string_of_int (Ir.Iset.elements truth.Core.Ground_truth.dead)));
     let surv name compiler =
       let cfg = { Core.Differential.compiler; level = C.Level.O3; version = None } in
       let s = Core.Differential.surviving cfg instr in
       Printf.printf "step 3: %s -O3 keeps {%s}\n" name
         (String.concat "," (List.map string_of_int (Ir.Iset.elements s)));
       s
     in
     let sg = surv "gcc-sim " C.Gcc_sim.compiler in
     let sl = surv "llvm-sim" C.Llvm_sim.compiler in
     let graph =
       Core.Primary.build ~live_blocks:truth.Core.Ground_truth.live_blocks
         (Dce_ir.Lower.program instr)
     in
     let prim s =
       Core.Primary.primary_missed graph ~alive:truth.Core.Ground_truth.alive
         ~missed:(Ir.Iset.inter s truth.Core.Ground_truth.dead)
     in
     Printf.printf "step 4: primary missed  gcc {%s}  llvm {%s}\n"
       (String.concat "," (List.map string_of_int (Ir.Iset.elements (prim sg))))
       (String.concat "," (List.map string_of_int (Ir.Iset.elements (prim sl))))
   | Core.Ground_truth.Rejected r -> Printf.printf "ground truth rejected: %s\n" r)

(* ------------------------------------------------------------------ *)
(* Figure 2: the nested-dead-code marker graph (paper Listing 5)       *)
(* ------------------------------------------------------------------ *)

let figure2_demo () =
  section "Figure 2: CFG of the nested dead-code example (paper Listing 5)";
  let src =
    {|
static int x = 0;
int main(void) {
  int expr2 = ext(1) & 1;
  if (x) {
    use(1);
    if (expr2) { use(2); }
  }
  use(3);
  return 0;
}
|}
  in
  let prog = Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program src) in
  let instr = Core.Instrument.program prog in
  (match Core.Ground_truth.compute instr with
   | Core.Ground_truth.Valid truth ->
     let graph =
       Core.Primary.build ~live_blocks:truth.Core.Ground_truth.live_blocks
         (Dce_ir.Lower.program instr)
     in
     Ir.Iset.iter
       (fun m ->
         let preds = Core.Primary.predecessors graph m in
         Printf.printf "  marker %d: %s, preds {%s}%s\n" m
           (if Ir.Iset.mem m truth.Core.Ground_truth.alive then "live" else "dead")
           (String.concat "," (List.map string_of_int (Ir.Iset.elements preds)))
           (if Core.Primary.has_root_context graph m then " +root" else ""))
       (Core.Primary.markers graph);
     (* a compiler that misses everything: only marker(s) whose preds are all
        live/detected are primary *)
     let missed = truth.Core.Ground_truth.dead in
     let prim =
       Core.Primary.primary_missed graph ~alive:truth.Core.Ground_truth.alive ~missed
     in
     Printf.printf "  if all dead markers are missed, primary = {%s} (paper: only B2)\n"
       (String.concat "," (List.map string_of_int (Ir.Iset.elements prim)))
   | Core.Ground_truth.Rejected r -> Printf.printf "ground truth rejected: %s\n" r)

(* ------------------------------------------------------------------ *)
(* Extension: value-check instrumentation (paper §4.4)                 *)
(* ------------------------------------------------------------------ *)

let print_value_checks () =
  section "Extension (§4.4): value checks after loops — % checks missed";
  let v =
    Campaign.Corpus.run_value ~jobs ~seed:20220228 ~count:(min 60 corpus_size) ()
  in
  print_string (Campaign.Corpus.value_table v);
  print_endline
    "(the paper proposes this mode as future work; checks probe scalar-evolution reasoning,";
  print_endline
    " so elimination tracks the unroll/promotion capabilities appearing at -O2)"

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §4)                                            *)
(* ------------------------------------------------------------------ *)

let print_ablations () =
  section "Ablation: interprocedural vs intraprocedural primary analysis";
  let inter = ref 0 and intra = ref 0 and missed_total = ref 0 in
  List.iter
    (fun (outcome, _) ->
      match outcome with
      | Core.Analysis.Analyzed a ->
        let truth = a.Core.Analysis.truth in
        (match Core.Analysis.find_config a "gcc-sim" C.Level.O3 with
         | Some pc ->
           let ir = Dce_ir.Lower.program a.Core.Analysis.instrumented in
           let g_intra = Core.Primary.build ~interprocedural:false ir in
           let p_intra =
             Core.Primary.primary_missed g_intra ~alive:truth.Core.Ground_truth.alive
               ~missed:pc.Core.Analysis.missed
           in
           inter := !inter + Ir.Iset.cardinal pc.Core.Analysis.primary_missed;
           intra := !intra + Ir.Iset.cardinal p_intra;
           missed_total := !missed_total + Ir.Iset.cardinal pc.Core.Analysis.missed
         | None -> ())
      | Core.Analysis.Rejected _ -> ())
    (Lazy.force analyses);
  Printf.printf
    "gcc-sim -O3: %d missed; %d primary (interprocedural) vs %d primary (intraprocedural)\n"
    !missed_total !inter !intra;
  print_endline "(intraprocedural over-reports primaries: callee-entry markers lose their dead callers)";

  section "Ablation: edge-aware memory propagation (the modeled LLVM O3 regression)";
  let count_missed feats_edit =
    let total = ref 0 in
    List.iter
      (fun (outcome, _) ->
        match outcome with
        | Core.Analysis.Analyzed a ->
          let instr = a.Core.Analysis.instrumented in
          let feats = feats_edit (C.Compiler.features C.Llvm_sim.compiler C.Level.O2) in
          let ir = Dce_ir.Lower.program instr in
          let opt = C.Pipeline.run feats ir in
          let asm = Dce_backend.Codegen.program opt in
          let surv = Dce_backend.Asm.surviving_markers asm in
          let dead = a.Core.Analysis.truth.Core.Ground_truth.dead in
          total := !total + List.length (List.filter (fun m -> Ir.Iset.mem m dead) surv)
        | Core.Analysis.Rejected _ -> ())
      (Dce_support.Listx.take 40 (Lazy.force analyses));
    !total
  in
  let with_edge = count_missed (fun f -> f) in
  let without_edge = count_missed (fun f -> { f with C.Features.memcp_edge_aware = false }) in
  Printf.printf "llvm-sim -O2 on 40 programs: %d missed with edge-aware memcp, %d without\n"
    with_edge without_edge

(* ------------------------------------------------------------------ *)
(* Reduction engine benchmark (§4.3 / lib/reduce)                      *)
(* ------------------------------------------------------------------ *)

module Reduce = Dce_reduce

(* (instrumented program, marker) pairs where gcc -O3 keeps a dead marker
   that llvm -O3 eliminates — the paper's reduction predicate, drawn from
   the differentials the campaign already computed *)
let reduction_corpus = lazy begin
  List.filter_map
    (fun (outcome, _) ->
      match outcome with
      | Core.Analysis.Analyzed a -> (
        match
          ( Core.Analysis.find_config a "gcc-sim" C.Level.O3,
            Core.Analysis.find_config a "llvm-sim" C.Level.O3 )
        with
        | Some g, Some l -> (
          let cand =
            Ir.Iset.filter
              (fun m -> not (Ir.Iset.mem m l.Core.Analysis.surviving))
              g.Core.Analysis.missed
          in
          match Ir.Iset.min_elt_opt cand with
          | Some m -> Some (a.Core.Analysis.instrumented, m)
          | None -> None)
        | _ -> None)
      | Core.Analysis.Rejected _ -> None)
    (Lazy.force analyses)
end

let reduce_bench_json : Campaign.Json.t ref = ref Campaign.Json.Null

let print_reduction () =
  section
    (Printf.sprintf "Reduction engine: staged + memoized predicate, %d worker domain(s)" jobs);
  let cases = Dce_support.Listx.take 8 (Lazy.force reduction_corpus) in
  if cases = [] then print_endline "no gcc-keeps/llvm-kills differential in this corpus; skipping"
  else begin
    C.Compiler.clear_caches ();
    let mk compiler = { Core.Differential.compiler; level = C.Level.O3; version = None } in
    let naive = ref 0 and staged = ref 0 and run_ = ref 0 and charged = ref 0 in
    let case_rows =
      List.mapi
        (fun i (prog, marker) ->
          let predicate =
            Reduce.Predicate.marker_diff ~compile_cache:true
              ~keep_missed_by:(mk C.Gcc_sim.compiler) ~eliminated_by:(mk C.Llvm_sim.compiler)
              ~marker ()
          in
          let r = Reduce.Engine.reduce ~max_tests:250 ~jobs ~predicate prog in
          let s = r.Reduce.Engine.stats in
          naive := !naive + s.Reduce.Engine.s_pipelines_naive;
          staged := !staged + s.Reduce.Engine.s_pipelines_staged;
          run_ := !run_ + s.Reduce.Engine.s_pipelines_run;
          charged := !charged + s.Reduce.Engine.s_charged;
          Printf.printf
            "  case %d marker %-3d  size %4d -> %-4d  %d rounds, %d tests, pipelines %d (naive %d)\n"
            i marker r.Reduce.Engine.initial_size r.Reduce.Engine.final_size
            r.Reduce.Engine.rounds r.Reduce.Engine.tests_run s.Reduce.Engine.s_pipelines_run
            s.Reduce.Engine.s_pipelines_naive;
          Campaign.Json.Obj
            [
              ("case", Campaign.Json.Int i);
              ("marker", Campaign.Json.Int marker);
              ("initial_size", Campaign.Json.Int r.Reduce.Engine.initial_size);
              ("final_size", Campaign.Json.Int r.Reduce.Engine.final_size);
              ("rounds", Campaign.Json.Int r.Reduce.Engine.rounds);
              ("tests_run", Campaign.Json.Int r.Reduce.Engine.tests_run);
              ("stats", Reduce.Engine.stats_json s);
            ])
        cases
    in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    Printf.printf
      "pipeline executions over %d cases (%d charged tests): %d actual vs %d naive (%.1fx fewer) \
       and %d staged-uncached (%.1fx)\n"
      (List.length cases) !charged !run_ !naive
      (ratio !naive !run_)
      !staged
      (ratio !staged !run_);
    let cs = C.Compiler.cache_stats () in
    Printf.printf "compile cache: surviving %d hits / %d misses; lower-fn %d hits / %d misses\n"
      cs.C.Compiler.cs_surviving.C.Compile_cache.hits
      cs.C.Compiler.cs_surviving.C.Compile_cache.misses
      cs.C.Compiler.cs_lower_fn.C.Compile_cache.hits
      cs.C.Compiler.cs_lower_fn.C.Compile_cache.misses;
    let doc =
      Campaign.Json.Obj
        [
          ("cases", Campaign.Json.List case_rows);
          ( "aggregate",
            Campaign.Json.Obj
              [
                ("charged_tests", Campaign.Json.Int !charged);
                ("pipelines_naive", Campaign.Json.Int !naive);
                ("pipelines_staged_uncached", Campaign.Json.Int !staged);
                ("pipelines_run", Campaign.Json.Int !run_);
                ("speedup_vs_naive", Campaign.Json.Float (ratio !naive !run_));
              ] );
        ]
    in
    reduce_bench_json := doc;
    let oc = open_out "BENCH_reduce.json" in
    output_string oc (Campaign.Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    print_endline "wrote BENCH_reduce.json"
  end

(* ------------------------------------------------------------------ *)
(* Oracles: size-hunt and level-hunt throughput + sibling reuse         *)
(* ------------------------------------------------------------------ *)

(* The observables memo stores markers and size together, so every analysis
   that looks at a (compiler, level, program) the corpus has already
   compiled pays nothing.  This section runs four consumers over one
   corpus — the size campaign, the inversion campaign, and the two classic
   marker analyses (per-level missed counts, cross-level regressions)
   re-run as standalone passes — and reports queries-per-compile.  Only the
   inversion campaign's level set actually compiles (8 keys per valid
   program); the other 24 queries per program are cache hits, so sibling
   reuse lands at 4 queries per pipeline execution. *)
let print_oracles_bench () =
  section (Printf.sprintf "Oracles: size-hunt and level-hunt, %d worker domain(s)" jobs);
  let module OC = Campaign.Oracle_campaign in
  C.Compiler.clear_caches ();
  let snap () = (C.Compiler.cache_stats ()).C.Compiler.cs_surviving in
  let c0 = snap () in
  let t0 = Dce_support.Clock.now () in
  let s = OC.run_size ~jobs ~seed:20220228 ~count:corpus_size () in
  let t_size = Dce_support.Clock.now () -. t0 in
  let t0 = Dce_support.Clock.now () in
  let inv = OC.run_inversion ~jobs ~seed:20220228 ~count:corpus_size () in
  let t_inv = Dce_support.Clock.now () -. t0 in
  let sf = OC.size_findings ~ratio:OC.default_ratio s in
  let cross, intra =
    List.partition (function _, Core.Differential.Size_cross _ -> true | _ -> false) sf
  in
  let invf = OC.inversion_findings inv in
  Printf.printf "size-hunt   %3d programs in %5.2fs (%6.1f programs/sec): %d findings (%d cross, %d intra)\n"
    corpus_size t_size
    (float_of_int corpus_size /. t_size)
    (List.length sf) (List.length cross) (List.length intra);
  Printf.printf "level-hunt  %3d programs in %5.2fs (%6.1f programs/sec): %d inversions\n"
    corpus_size t_inv
    (float_of_int corpus_size /. t_inv)
    (List.length invf);
  (* consumers three and four: the marker oracle's per-level missed counts
     and the paper's cross-level regressions, as independent passes over the
     same corpus — every surviving-set query below is a cache hit *)
  let valid =
    Array.to_list inv.Campaign.Engine.result.Campaign.Engine.outcomes
    |> List.filter_map (function
         | Campaign.Engine.Done ic when ic.OC.ic_rejected = None ->
           Some
             ( Core.Instrument.program (fst (Smith.generate (Smith.default_config ic.OC.ic_seed))),
               ic.OC.ic_dead )
         | _ -> None)
  in
  let compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ] in
  let missed_total = ref 0 in
  List.iter
    (fun (prog, dead) ->
      let session = C.Compiler.session ~cache:true prog in
      List.iter
        (fun compiler ->
          List.iter
            (fun level ->
              let surv = (C.Compiler.observe session compiler level).C.Compiler.obs_markers in
              missed_total :=
                !missed_total + List.length (List.filter (fun m -> Ir.Iset.mem m dead) surv))
            OC.inversion_levels)
        compilers)
    valid;
  let adjacent = [ (C.Level.O1, C.Level.Os); (C.Level.Os, C.Level.O2); (C.Level.O2, C.Level.O3) ] in
  let regressions = ref 0 in
  List.iter
    (fun (prog, dead) ->
      let session = C.Compiler.session ~cache:true prog in
      List.iter
        (fun compiler ->
          List.iter
            (fun (lo, hi) ->
              let at l = (C.Compiler.observe session compiler l).C.Compiler.obs_markers in
              let s_lo = at lo and s_hi = at hi in
              Ir.Iset.iter
                (fun m -> if (not (List.mem m s_lo)) && List.mem m s_hi then incr regressions)
                dead)
            adjacent)
        compilers)
    valid;
  Printf.printf
    "marker sweeps over the same corpus: %d missed-marker observations, %d adjacent-level \
     regressions (no new compiles)\n"
    !missed_total !regressions;
  let c1 = snap () in
  let probes =
    c1.C.Compile_cache.hits + c1.C.Compile_cache.misses - c0.C.Compile_cache.hits
    - c0.C.Compile_cache.misses
  in
  let pipelines = c1.C.Compile_cache.misses - c0.C.Compile_cache.misses in
  let hits = c1.C.Compile_cache.hits - c0.C.Compile_cache.hits in
  let reuse = if pipelines = 0 then 0.0 else float_of_int probes /. float_of_int pipelines in
  let hit_rate = if probes = 0 then 0.0 else float_of_int hits /. float_of_int probes in
  Printf.printf
    "compile cache: %d surviving-set queries answered by %d pipeline executions — %.1f queries \
     per compile, %.1f%% hit rate\n"
    probes pipelines reuse (100.0 *. hit_rate);
  if reuse < 3.0 then
    Printf.printf "WARNING: sibling reuse %.1fx is below the 3x bar\n" reuse;
  let doc =
    Campaign.Json.Obj
      [
        ("programs", Campaign.Json.Int corpus_size);
        ("valid", Campaign.Json.Int (List.length valid));
        ("jobs", Campaign.Json.Int jobs);
        ( "size",
          Campaign.Json.Obj
            [
              ("findings", Campaign.Json.Int (List.length sf));
              ("cross", Campaign.Json.Int (List.length cross));
              ("intra", Campaign.Json.Int (List.length intra));
              ("programs_per_sec", Campaign.Json.Float (float_of_int corpus_size /. t_size));
            ] );
        ( "inversion",
          Campaign.Json.Obj
            [
              ("findings", Campaign.Json.Int (List.length invf));
              ("programs_per_sec", Campaign.Json.Float (float_of_int corpus_size /. t_inv));
            ] );
        ( "cache",
          Campaign.Json.Obj
            [
              ("probes", Campaign.Json.Int probes);
              ("pipelines", Campaign.Json.Int pipelines);
              ("hits", Campaign.Json.Int hits);
              ("hit_rate", Campaign.Json.Float hit_rate);
              ("sibling_reuse", Campaign.Json.Float reuse);
              ("meets_3x_bar", Campaign.Json.Bool (reuse >= 3.0));
              ("meets_hit_rate_floor", Campaign.Json.Bool (hit_rate >= 0.6));
            ] );
      ]
  in
  let oc = open_out "BENCH_oracles.json" in
  output_string oc (Campaign.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_oracles.json"

(* ------------------------------------------------------------------ *)
(* campaign fabric: multi-process scaling and work stealing            *)
(* ------------------------------------------------------------------ *)

(* The scaling sections use a calibrated sleep-based workload: each case
   blocks for a fixed wall interval, so N worker processes overlap N sleeps
   even on a single-core machine (this container has one).  That measures
   exactly what the fabric adds — process-level overlap, chunk dispatch
   overhead, and work-stealing balance — without conflating it with CPU
   contention.  The warm-worker section then runs the real campaign, and
   the last one the real campaign on one and two domains. *)
let print_fabric_bench () =
  section "Campaign fabric: worker processes, work stealing, warm caches";
  if Campaign.Engine.domains_ever_spawned () then
    (* DCE_BENCH_JOBS > 1 makes earlier sections spawn domains, after which
       OCaml forbids the fork the fabric needs; the section (and its JSON
       baseline) is only meaningful at the default jobs=1 anyway *)
    Printf.printf
      "  skipped: earlier sections spawned worker domains (DCE_BENCH_JOBS=%d), and OCaml \
       forbids fork afterwards; rerun with DCE_BENCH_JOBS=1\n"
      jobs
  else begin
  let toy_codec =
    { Campaign.Engine.encode = (fun i -> Campaign.Json.Int i); decode = Campaign.Json.int_exn }
  in
  (* --- near-linear scaling on a uniform corpus ---------------------- *)
  let case_ms = 10.0 in
  let cases = 64 in
  let runner ctx i =
    Campaign.Engine.stage ctx "sleep" (fun () ->
        Unix.sleepf (case_ms /. 1000.0);
        i)
  in
  (* the median wall of three runs: one run's wall moves with host load,
     enough to carry the 4-worker speedup across the 3x bar by itself *)
  let timed_run workers =
    let once () =
      let t0 = Dce_support.Clock.now () in
      let settings = Campaign.Settings.v ~workers () in
      let r = Campaign.Engine.run ~codec:toy_codec ~settings ~jobs:1 ~count:cases runner in
      (Dce_support.Clock.now () -. t0, r)
    in
    let runs = List.sort (fun (a, _) (b, _) -> compare a b) (List.init 3 (fun _ -> once ())) in
    List.nth runs 1
  in
  let wall_1, r1 = timed_run 1 in
  let wall_2, _ = timed_run 2 in
  let wall_4, r4 = timed_run 4 in
  let speedup_2 = wall_1 /. wall_2 in
  let speedup_4 = wall_1 /. wall_4 in
  let outcomes_identical = r1.Campaign.Engine.outcomes = r4.Campaign.Engine.outcomes in
  Printf.printf
    "uniform corpus (%d cases x %.0fms): workers=1 %.2fs, workers=2 %.2fs (%.2fx), workers=4 \
     %.2fs (%.2fx); outcomes identical: %b\n"
    cases case_ms wall_1 wall_2 speedup_2 wall_4 speedup_4 outcomes_identical;
  if speedup_4 < 3.0 then
    Printf.printf "WARNING: 4-worker speedup %.2fx is below the 3x bar\n" speedup_4;
  (* --- skewed corpus: work stealing vs static sharding -------------- *)
  (* every 4th case is 25x heavier.  The static baseline pre-assigns one
     round-robin block per worker on the same grid: four grid cases, one
     per worker, where grid case b runs the block of cases b, b + 4, ..,
     b + 28 in order, so block 0 carries every heavy case.  The dynamic run
     hands out the 32 cases in chunks of 2 (32 / (4 workers x 4)), which
     spread the tail across whichever workers are free. *)
  let skew_cases = 32 in
  let skew_runner ctx i =
    Campaign.Engine.stage ctx "sleep" (fun () ->
        Unix.sleepf (if i mod 4 = 0 then 0.025 else 0.001);
        i)
  in
  let timed_skew codec ~count runner =
    let t0 = Dce_support.Clock.now () in
    let r =
      Campaign.Engine.run ~codec ~settings:(Campaign.Settings.v ~workers:4 ()) ~jobs:1 ~count
        runner
    in
    (Dce_support.Clock.now () -. t0, r.Campaign.Engine.outcomes)
  in
  let block_codec =
    {
      Campaign.Engine.encode =
        (fun l -> Campaign.Json.List (List.map (fun i -> Campaign.Json.Int i) l));
      decode = (fun j -> List.map Campaign.Json.int_exn (Option.get (Campaign.Json.to_list j)));
    }
  in
  let wall_static, blocks =
    timed_skew block_codec ~count:4 (fun ctx b ->
        List.init (skew_cases / 4) (fun k -> skew_runner ctx ((k * 4) + b)))
  in
  let static_outcomes = Array.make skew_cases (Campaign.Engine.Done (-1)) in
  Array.iteri
    (fun b -> function
      | Campaign.Engine.Done block ->
        List.iteri (fun k i -> static_outcomes.((k * 4) + b) <- Campaign.Engine.Done i) block
      | Campaign.Engine.Crashed _ as c ->
        for k = 0 to (skew_cases / 4) - 1 do
          static_outcomes.((k * 4) + b) <- c
        done)
    blocks;
  let wall_dynamic, dynamic_outcomes = timed_skew toy_codec ~count:skew_cases skew_runner in
  let dyn_vs_static = wall_static /. wall_dynamic in
  Printf.printf
    "skewed corpus (%d cases, every 4th 25x heavier): static %.2fs, dynamic %.2fs — %.2fx from \
     work stealing; outcomes identical: %b\n"
    skew_cases wall_static wall_dynamic dyn_vs_static
    (static_outcomes = dynamic_outcomes);
  if dyn_vs_static < 1.5 then
    Printf.printf "WARNING: work-stealing gain %.2fx is below the 1.5x bar\n" dyn_vs_static;
  (* --- warm workers on the real campaign ---------------------------- *)
  (* worker processes persist across chunks, so the analysis caches heat up
     for the whole campaign; the farewell message ships the counters back *)
  let warm_count = min corpus_size 24 in
  let solo = Campaign.Corpus.run ~jobs:1 ~seed:20220228 ~count:warm_count () in
  let grid =
    Campaign.Corpus.run ~settings:(Campaign.Settings.v ~workers:2 ())
      ~jobs:1 ~seed:20220228 ~count:warm_count ()
  in
  let report c =
    let st = Campaign.Corpus.stats c in
    R.Stats.prevalence st ^ R.Stats.table1 st ^ R.Stats.table2 st
    ^ R.Stats.differential_summary st ^ R.Stats.attribution_table st
  in
  let report_identical = report solo = report grid in
  let hit_rate = C.Passmgr.hit_rate grid.Campaign.Corpus.c_metrics.Campaign.Metrics.cache in
  let memo_hit_rate =
    C.Passmgr.memo_hit_rate grid.Campaign.Corpus.c_metrics.Campaign.Metrics.cache
  in
  let chunks, cases_per_worker =
    match grid.Campaign.Corpus.c_metrics.Campaign.Metrics.fabric with
    | Some f -> (f.Campaign.Metrics.f_chunks, f.Campaign.Metrics.f_cases_per_worker)
    | None -> (0, [])
  in
  Printf.printf
    "real campaign (%d programs, 2 warm workers): analysis-cache hit rate %.1f%% (stage memo \
     %.1f%%), %d chunks (cases/worker: %s); report identical to workers=1: %b\n"
    warm_count (100.0 *. hit_rate) (100.0 *. memo_hit_rate) chunks
    (String.concat "/" (List.map string_of_int cases_per_worker))
    report_identical;
  (* --- two domains on the real campaign ----------------------------- *)
  (* the sections above sleep and allocate nothing, so they cannot see the
     stop-the-world minor collections every domain takes part in; this one
     times the compile path on the benchmark ledger's 8-case corpus.  It
     spawns domains, so it comes after every fork above. *)
  let domains_count = 8 in
  let timed_domains jobs =
    let once () =
      C.Compiler.clear_caches ();
      let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
      let t0 = Dce_support.Clock.now () in
      ignore (Campaign.Corpus.run ~jobs ~seed:20220228 ~count:domains_count ());
      let wall = Dce_support.Clock.now () -. t0 in
      (wall, (Gc.quick_stat ()).Gc.minor_collections - minor0)
    in
    List.nth (List.sort compare (List.init 3 (fun _ -> once ()))) 1
  in
  let dwall_1, minor_1 = timed_domains 1 in
  let dwall_2, minor_2 = timed_domains 2 in
  let domains_speedup = dwall_1 /. dwall_2 in
  Printf.printf
    "real campaign (%d programs, median of 3): jobs=1 %.3fs (%d minor GCs), jobs=2 %.3fs (%d \
     minor GCs) — %.2fx from a second domain\n"
    domains_count dwall_1 minor_1 dwall_2 minor_2 domains_speedup;
  let doc =
    Campaign.Json.Obj
      [
        ( "scaling",
          Campaign.Json.Obj
            [
              ("cases", Campaign.Json.Int cases);
              ("case_ms", Campaign.Json.Float case_ms);
              ("wall_1", Campaign.Json.Float wall_1);
              ("wall_2", Campaign.Json.Float wall_2);
              ("wall_4", Campaign.Json.Float wall_4);
              ("speedup_2", Campaign.Json.Float speedup_2);
              ("speedup_4", Campaign.Json.Float speedup_4);
              ("meets_scaling_bar", Campaign.Json.Bool (speedup_4 >= 3.0));
              ("outcomes_identical", Campaign.Json.Bool outcomes_identical);
            ] );
        ( "skew",
          Campaign.Json.Obj
            [
              ("cases", Campaign.Json.Int skew_cases);
              ("wall_static", Campaign.Json.Float wall_static);
              ("wall_dynamic", Campaign.Json.Float wall_dynamic);
              ("dyn_vs_static_speedup", Campaign.Json.Float dyn_vs_static);
              ("meets_1_5x_bar", Campaign.Json.Bool (dyn_vs_static >= 1.5));
            ] );
        ( "warm",
          Campaign.Json.Obj
            [
              ("programs", Campaign.Json.Int warm_count);
              ("workers", Campaign.Json.Int 2);
              ("hit_rate", Campaign.Json.Float hit_rate);
              ("memo_hit_rate", Campaign.Json.Float memo_hit_rate);
              ("chunks", Campaign.Json.Int chunks);
              ( "cases_per_worker",
                Campaign.Json.List (List.map (fun n -> Campaign.Json.Int n) cases_per_worker) );
              ("report_identical", Campaign.Json.Bool report_identical);
            ] );
        ( "domains",
          Campaign.Json.Obj
            [
              ("programs", Campaign.Json.Int domains_count);
              ("wall_1", Campaign.Json.Float dwall_1);
              ("wall_2", Campaign.Json.Float dwall_2);
              ("speedup_2", Campaign.Json.Float domains_speedup);
              ("minor_collections_1", Campaign.Json.Int minor_1);
              ("minor_collections_2", Campaign.Json.Int minor_2);
            ] );
      ]
  in
  let oc = open_out "BENCH_fabric.json" in
  output_string oc (Campaign.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_fabric.json"
  end

(* ------------------------------------------------------------------ *)
(* Repair: closed-loop search + A/B campaign verification              *)
(* ------------------------------------------------------------------ *)

let print_repair_bench () =
  section "Repair: closed-loop search and A/B campaign verification";
  (* the seeded known-fixable regression: gcc-sim -O3 keeps dead marker 34
     of corpus program 1 (the hunt's first primary finding) *)
  let seeds = Smith.corpus_seeds ~seed:20220228 ~count:2 in
  let prog =
    Core.Instrument.program (fst (Smith.generate (Smith.default_config (List.nth seeds 1))))
  in
  let marker = 34 in
  let timed f =
    let t0 = Dce_support.Clock.now () in
    let r = f () in
    (Dce_support.Clock.now () -. t0, r)
  in
  (* every probe is a patched-compiler compile through the content-addressed
     cache, so a re-search is nearly free — that is the probes-per-repair
     economics the repair loop depends on *)
  let search () = Repair.Search.search ~jobs C.Gcc_sim.compiler C.Level.O3 prog ~marker in
  let search_cold, s = timed search in
  let search_warm, _ = timed search in
  let search_cache_speedup = search_cold /. Float.max 1e-9 search_warm in
  Printf.printf
    "search: %d probes (%d singles, %d pairs), %d passing; cold %.3fs, re-search %.3fs (%.1fx \
     from the compile cache)\n"
    s.Repair.Search.so_probes s.Repair.Search.so_singles s.Repair.Search.so_pairs
    (List.length s.Repair.Search.so_passing) search_cold search_warm search_cache_speedup;
  let smoke = min corpus_size 10 in
  let verify_wall, r =
    timed (fun () ->
        Repair.Driver.run ~jobs ~seed:20220228 ~count:smoke C.Gcc_sim.compiler C.Level.O3 prog
          ~marker)
  in
  let found = r.Repair.Driver.rr_accepted <> None in
  let verified_clean =
    match r.Repair.Driver.rr_accepted with
    | Some (_, v) -> not (Campaign.Run_diff.has_regressions v)
    | None -> false
  in
  let campaigns = 1 + List.length r.Repair.Driver.rr_tried in
  let yield =
    float_of_int (List.length (List.filter (fun cv -> cv.Repair.Driver.cv_clean) r.Repair.Driver.rr_tried))
    /. float_of_int (max 1 (List.length r.Repair.Driver.rr_tried))
  in
  (* the patched verification run re-uses every rival cell of the base run
     (same compiler name, same programs), so its cache hit rate is the
     "verification is cheap" claim in one number *)
  let patched_hit_rate, patched_memo_hit_rate =
    match r.Repair.Driver.rr_patched_metrics with
    | Some m ->
      ( C.Passmgr.hit_rate m.Campaign.Metrics.cache,
        C.Passmgr.memo_hit_rate m.Campaign.Metrics.cache )
    | None -> (0.0, 0.0)
  in
  Printf.printf
    "verify (%d-program smoke corpus): %d campaigns in %.2fs, verified-repair yield %.0f%%, \
     patched-run cache hit rate %.1f%% (stage memo %.1f%%); repair %s\n"
    smoke campaigns verify_wall (100.0 *. yield) (100.0 *. patched_hit_rate)
    (100.0 *. patched_memo_hit_rate)
    (match r.Repair.Driver.rr_accepted with
     | Some (edits, _) ->
       "accepted: "
       ^ String.concat "+" (List.map (fun e -> e.Core.Diagnose.repair_name) edits)
     | None -> "NOT FOUND");
  let doc =
    Campaign.Json.Obj
      [
        ("marker", Campaign.Json.Int marker);
        ("smoke_corpus", Campaign.Json.Int smoke);
        ( "search",
          Campaign.Json.Obj
            [
              ("probes", Campaign.Json.Int s.Repair.Search.so_probes);
              ("singles", Campaign.Json.Int s.Repair.Search.so_singles);
              ("pairs", Campaign.Json.Int s.Repair.Search.so_pairs);
              ("passing", Campaign.Json.Int (List.length s.Repair.Search.so_passing));
              ("cold_wall_s", Campaign.Json.Float search_cold);
              ("warm_wall_s", Campaign.Json.Float search_warm);
              ("search_cache_speedup", Campaign.Json.Float search_cache_speedup);
            ] );
        ( "verify",
          Campaign.Json.Obj
            [
              ("campaigns", Campaign.Json.Int campaigns);
              ("wall_s", Campaign.Json.Float verify_wall);
              ("probes_per_repair", Campaign.Json.Int r.Repair.Driver.rr_search.Repair.Search.so_probes);
              ("verified_yield", Campaign.Json.Float yield);
              ("hit_rate", Campaign.Json.Float patched_hit_rate);
              ("memo_hit_rate", Campaign.Json.Float patched_memo_hit_rate);
              ("found_repair", Campaign.Json.Bool found);
              ("verified_clean", Campaign.Json.Bool verified_clean);
            ] );
      ]
  in
  let oc = open_out "BENCH_repair.json" in
  output_string oc (Campaign.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_repair.json"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure                      *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "Bechamel micro-benchmarks (time to produce each artifact)";
  let open Bechamel in
  let sample_raw = fst (Smith.generate (Smith.default_config 4242)) in
  let sample = Core.Instrument.program sample_raw in
  let sample_ir = Dce_ir.Lower.program sample in
  let tests =
    [
      Test.make ~name:"prevalence: ground truth by execution"
        (Staged.stage (fun () -> ignore (Core.Ground_truth.compute sample)));
      Test.make ~name:"table1: compile gcc-sim -O3"
        (Staged.stage (fun () ->
             ignore (C.Compiler.observe (C.Compiler.session sample) C.Gcc_sim.compiler C.Level.O3)));
      Test.make ~name:"table1: compile llvm-sim -O3"
        (Staged.stage (fun () ->
             ignore (C.Compiler.observe (C.Compiler.session sample) C.Llvm_sim.compiler C.Level.O3)));
      Test.make ~name:"table2: primary marker graph"
        (Staged.stage (fun () -> ignore (Core.Primary.build sample_ir)));
      Test.make ~name:"tables: full 10-config analysis of one program"
        (Staged.stage (fun () -> ignore (Core.Analysis.run sample_raw)));
      Test.make ~name:"tables3/4: one bisection probe (compile at old version)"
        (Staged.stage (fun () ->
             ignore
               (C.Compiler.observe (C.Compiler.session sample) C.Gcc_sim.compiler ~version:10
                  C.Level.O3)));
      Test.make ~name:"table5: one diagnosis (feature flips)"
        (Staged.stage (fun () ->
             ignore (Core.Diagnose.run C.Gcc_sim.compiler C.Level.O3 sample ~marker:0)));
      Test.make ~name:"corpus: generate one program (Smith)"
        (Staged.stage (fun () -> ignore (Smith.generate (Smith.default_config 99))));
    ]
  in
  List.iter
    (fun t ->
      List.iter
        (function
          | name, Some ns -> Printf.printf "  %-52s %10.1f us/run\n" name (ns /. 1000.0)
          | name, None -> Printf.printf "  %-52s (no estimate)\n" name)
        (bechamel_ns (Test.make_grouped ~name:"dce" [ t ])))
    tests

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "DCE-lens reproduction harness — corpus of %d generated programs\n" corpus_size;
  let t0 = Dce_support.Clock.now () in
  C.Passmgr.reset_counters ();
  List.iter
    (fun (name, f) -> run_section name f)
    [
      ("prevalence", print_prevalence);
      ("table1", print_table1);
      ("table2", print_table2);
      ("differentials", print_differentials);
      ("passmgr", print_passmgr);
      ("campaign_metrics", print_campaign_metrics);
      ("tables34", print_tables34);
      ("bisect_bench", print_bisect_bench);
      ("table5", print_table5);
      ("figure1", figure1_demo);
      ("figure2", figure2_demo);
      (* before the sections that time with Bechamel: its runs grow the
         heap (to 240 MB resident at DCE_BENCH_PROGRAMS=10), OCaml 5.1 does
         not give it back, and forking the fabric's workers from that
         process pulls the 4-worker speedup under its 3x bar *)
      ("fabric", print_fabric_bench);
      ("supervision", print_supervision_bench);
      ("exec", print_exec_bench);
      ("value_checks", print_value_checks);
      ("ablations", print_ablations);
      ("reduction", print_reduction);
      ("oracles", print_oracles_bench);
      ("repair", print_repair_bench);
    ];
  Printf.printf "\nreproduction sections completed in %.1fs\n" (Dce_support.Clock.now () -. t0);
  run_section "micro_benchmarks" micro_benchmarks;
  match json_path with
  | None -> ()
  | Some path ->
    let sections =
      List.rev_map
        (fun (name, seconds, text) ->
          Campaign.Json.Obj
            [
              ("name", Campaign.Json.String name);
              ("seconds", Campaign.Json.Float seconds);
              ("text", Campaign.Json.String text);
            ])
        !section_log
    in
    let doc =
      Campaign.Json.Obj
        [
          ("corpus_size", Campaign.Json.Int corpus_size);
          ("jobs", Campaign.Json.Int jobs);
          ("wall_seconds", Campaign.Json.Float (Dce_support.Clock.now () -. t0));
          ("sections", Campaign.Json.List sections);
          ("reduce", !reduce_bench_json);
          ("bisect", !bisect_bench_json);
        ]
    in
    let oc = open_out path in
    output_string oc (Campaign.Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Printf.printf "wrote %s\n" path
