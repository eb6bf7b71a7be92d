(* dce_hunt — command-line front end to the missed-optimization detector.

   Subcommands mirror the paper's workflow (Figure 1):
     generate   produce random MiniC test programs (Csmith role)
     analyze    instrument one program, compute ground truth, compare configs
     compile    run one simulated compiler and show IR/assembly
     reduce     shrink a test case while preserving an oracle finding
     bisect     find the commit that introduced a regression
     repair     search feature-edit fixes for a missed marker and A/B-verify them
     campaign-diff
                compare two persisted campaign runs table by table
     explain    show a configuration's feature matrix, pass schedule, history
   plus one corpus campaign subcommand per Campaign.Mode.all entry (hunt,
   triage, value-hunt, size-hunt, level-hunt, bisect-campaign), built by
   [corpus_cmd], and the campaign service's serve/submit/... clients.

   Argument errors (unknown compiler/level/oracle, missing --marker)
   are reported as a one-line usage error naming the offending flag, exit 2 —
   never as an escaped exception with a backtrace. *)

open Cmdliner
module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir

let read_program path =
  let src = Dce_support.Fsx.read_file path in
  Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program src)

let compiler_of_string ?(flag = "--compiler") s =
  let name = match s with "gcc" | "llvm" -> s ^ "-sim" | _ -> s in
  try Core.Analysis.compiler_of_name name
  with Failure _ -> failwith (Printf.sprintf "%s: unknown compiler %S (use gcc or llvm)" flag s)

let level_of_string ?(flag = "--level") s =
  match C.Level.of_string s with
  | Some l -> l
  | None -> failwith (Printf.sprintf "%s: unknown level %S (use O0, O1, Os, O2, O3)" flag s)

let iset_to_string s = String.concat "," (List.map string_of_int (Ir.Iset.elements s))

(* ---------- generate ---------- *)

let generate_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.") in
  let count = Arg.(value & opt int 10 & info [ "count" ] ~docv:"N" ~doc:"Programs to generate.") in
  let out = Arg.(value & opt string "corpus" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.") in
  let run seed count out =
    Dce_campaign.Settings.check_cases ~count Dce_campaign.Settings.default;
    Dce_support.Fsx.mkdir_p out;
    List.iteri
      (fun i (prog, kinds) ->
        let path = Filename.concat out (Printf.sprintf "p%04d.c" i) in
        let oc = open_out path in
        output_string oc (Dce_minic.Pretty.program_to_string prog);
        close_out oc;
        Printf.printf "%s: %s\n" path
          (String.concat " "
             (List.map
                (fun (k, n) -> Printf.sprintf "%s=%d" (Dce_smith.Smith.kind_name k) n)
                kinds)))
      (Dce_smith.Smith.generate_corpus ~seed ~count)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate random MiniC test programs (the Csmith role).")
    Term.(const run $ seed $ count $ out)

(* ---------- analyze ---------- *)

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")

let analyze_cmd =
  let diagnose =
    Arg.(value & flag & info [ "diagnose" ] ~doc:"Root-cause each primary -O3 miss.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Show per-configuration pass attribution (which stage eliminated which marker).")
  in
  let run path diagnose trace =
    let prog = read_program path in
    match Core.Analysis.run prog with
    | Core.Analysis.Rejected reason -> Printf.printf "rejected: %s\n" reason
    | Core.Analysis.Analyzed a ->
      let truth = a.Core.Analysis.truth in
      Printf.printf "markers: %d (%d alive, %d dead)\n"
        (Ir.Iset.cardinal truth.Core.Ground_truth.all)
        (Ir.Iset.cardinal truth.Core.Ground_truth.alive)
        (Ir.Iset.cardinal truth.Core.Ground_truth.dead);
      Printf.printf "alive: {%s}\n" (iset_to_string truth.Core.Ground_truth.alive);
      List.iter
        (fun pc ->
          Printf.printf "%-9s %-4s keeps {%s}  missed {%s}  primary {%s}\n"
            pc.Core.Analysis.cfg_compiler
            (C.Level.to_string pc.Core.Analysis.cfg_level)
            (iset_to_string pc.Core.Analysis.surviving)
            (iset_to_string pc.Core.Analysis.missed)
            (iset_to_string pc.Core.Analysis.primary_missed);
          if trace then
            List.iter
              (fun (stage, markers) ->
                Printf.printf "    %s eliminated {%s}\n" stage
                  (String.concat "," (List.map string_of_int markers)))
              (C.Passmgr.attribution pc.Core.Analysis.cfg_trace))
        a.Core.Analysis.configs;
      if diagnose then
        List.iter
          (fun pc ->
            if pc.Core.Analysis.cfg_level = C.Level.O3 then
              Ir.Iset.iter
                (fun m ->
                  let d =
                    Core.Diagnose.run
                      (compiler_of_string pc.Core.Analysis.cfg_compiler)
                      C.Level.O3 a.Core.Analysis.instrumented ~marker:m
                  in
                  Printf.printf "diagnosis: %s -O3 marker %d -> %s%s\n"
                    pc.Core.Analysis.cfg_compiler m (Core.Diagnose.signature d)
                    (match d.Core.Diagnose.guilty_stage with
                     | Some s -> Printf.sprintf " (guilty stage: %s)" s
                     | None -> ""))
                pc.Core.Analysis.primary_missed)
          a.Core.Analysis.configs
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Instrument a program, execute it for ground truth, and compare both simulated \
          compilers at every level.")
    Term.(const run $ file_arg $ diagnose $ trace)

(* ---------- compile ---------- *)

let compile_cmd =
  let comp = Arg.(value & opt string "gcc" & info [ "compiler" ] ~docv:"gcc|llvm") in
  let level = Arg.(value & opt string "O2" & info [ "level" ] ~docv:"O0..O3") in
  let version =
    Arg.(value & opt (some int) None & info [ "at-version" ] ~docv:"N" ~doc:"Historic version.")
  in
  let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print optimized IR instead of assembly.") in
  let instrument = Arg.(value & flag & info [ "instrument" ] ~doc:"Insert DCE markers first.") in
  let run path comp level version dump_ir instrument =
    let prog = read_program path in
    let prog = if instrument then Core.Instrument.program prog else prog in
    let compiler = compiler_of_string comp in
    let level = level_of_string level in
    let ir, _ = C.Compiler.run (C.Compiler.session prog) compiler ?version level in
    if dump_ir then print_string (Dce_ir.Printer.program_to_string ir)
    else print_string (Dce_backend.Asm.to_string (Dce_backend.Codegen.program ir))
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile one program and print assembly (or IR).")
    Term.(const run $ file_arg $ comp $ level $ version $ dump_ir $ instrument)

(* ---------- the flags every campaign subcommand shares ---------- *)

module Campaign = Dce_campaign

let jobs_arg =
  Term.(
    const Campaign.Settings.jobs
    $ Arg.(
        value & opt int 1
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:
              "Worker domains, each taking the next pending case as it frees up.  Findings and \
               reports are identical for every $(docv), and $(docv)=1 runs the historical \
               sequential path."))

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker processes.  With $(docv) > 1 the campaign forks $(docv) persistent workers (each \
           running $(b,--jobs) domains) and hands out case chunks on demand, so a slow chunk never \
           stalls the rest of the corpus.  Output is byte-identical for every $(docv); a crashed worker \
           only quarantines the cases it was holding.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "JSONL checkpoint journal.  Each completed case is appended as it finishes; re-running \
           with the same $(docv) resumes, skipping every case already recorded (a journal \
           truncated mid-line resumes from the last complete record).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print campaign metrics: throughput, analysis-cache hit rate, supervision counters, \
           and per-stage wall-time percentiles aggregated across workers.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-case wall-clock deadline.  Budgets are cooperative (poll points at stage \
           boundaries, between passes, and in the interpreter step loop): a case that blows the \
           deadline is quarantined as a timeout naming the guilty stage instead of stalling its \
           worker.")

let step_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "step-budget" ] ~docv:"N"
        ~doc:
          "Per-case poll-point budget — the deterministic sibling of $(b,--deadline): the same \
           case trips at the same poll on every run, independent of machine speed.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-run a case whose fault is classified transient up to $(docv) extra attempts, each \
           under a fresh deadline/budget, before quarantining it.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault plan: comma-separated KIND@CASE[:STAGE] entries, KIND one of \
           crash, hang, slow, corrupt, transient[N].  Example: \
           \"crash@1,transient@3:differential,hang@5:ground-truth\".  Hangs require \
           $(b,--deadline) or $(b,--step-budget); corrupt implies $(b,--checked).")

let checked_arg =
  Arg.(
    value & flag
    & info [ "checked" ]
        ~doc:
          "Validate the IR after every optimization pass; a pass emitting invalid IR \
           quarantines the case as ir-invalid blaming that pass.")

(* The one term every campaign command builds its Settings.t from:
   --workers always, and the supervision flags (budgets, retries,
   --chaos, --checked) unless [~supervised:false], for repair's
   verification campaigns.  Settings.v validates here, at the CLI
   boundary. *)
let settings_arg ?(supervised = true) () =
  let v deadline step_budget retries chaos checked workers =
    Campaign.Settings.v ?deadline ?step_budget ~retries ?chaos ~checked ~workers ()
  in
  let if_ arg absent = if supervised then arg else Term.const absent in
  Term.(
    const v
    $ if_ deadline_arg None
    $ if_ step_budget_arg None
    $ if_ retries_arg 0
    $ if_ chaos_arg None
    $ if_ checked_arg false
    $ workers_arg)

let run_root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run-root" ] ~docv:"DIR"
        ~doc:
          "Persist the run as $(docv)/run-$(i,ID)/ — meta.json, report.json, metrics.json, \
           report.txt, and the checkpoint journal (unless $(b,--journal) points elsewhere).  The \
           run id is a pure function of the campaign parameters, so re-running lands in (and \
           resumes from) the same directory, and two such directories feed \
           $(b,dce_hunt campaign-diff).")

(* ---------- the corpus subcommands: one per Campaign.Mode entry ---------- *)

(* What a corpus subcommand's own flags select: its table entry rebuilt
   with their knobs, or (value-hunt FILE) a single-program run instead of
   a campaign. *)
type own = Run of Campaign.Mode.t | Instead of (unit -> unit)

let value_file path =
  let prog = read_program path in
  match Core.Value_instrument.instrument prog with
  | None -> print_endline "profiling failed (trap or non-termination)"
  | Some (vi, stats) ->
    Printf.printf "// %d probes, %d dead value checks planted\n"
      stats.Core.Value_instrument.probes_inserted stats.Core.Value_instrument.checks_planted;
    print_string (Dce_minic.Pretty.program_to_string vi);
    let session = C.Compiler.session vi in
    List.iter
      (fun compiler ->
        List.iter
          (fun level ->
            let surv = (C.Compiler.observe session compiler level).C.Compiler.obs_markers in
            Printf.printf "%-9s %-4s keeps value checks {%s}\n" compiler.C.Compiler.name
              (C.Level.to_string level)
              (String.concat "," (List.map string_of_int surv)))
          C.Level.all)
      Core.Analysis.default_compilers

let own_flags (m : Campaign.Mode.t) =
  match m.name with
  | "hunt" ->
    let bundle_dir =
      Arg.(
        value
        & opt (some string) None
        & info [ "bundle-dir" ] ~docv:"DIR"
            ~doc:
              "Write a self-contained crash bundle (meta.json + repro.c) under \
               $(docv)/case-NNNN/ for every quarantined case.")
    in
    let minimize_bundles =
      Arg.(
        value & flag
        & info [ "minimize-bundles" ]
            ~doc:
              "Auto-minimize each written crash bundle through the reduction engine (best \
               effort; adds repro-min.c when the fault reproduces and shrinks).")
    in
    let hunt bundle_dir minimize_bundles =
      let minimize ~still_faulty ~dir =
        Dce_reduce.Minimize_bundle.minimize_dir ~still_faulty ~dir ()
      in
      Run
        (Campaign.Mode.hunt ?bundle_dir
           ?minimize:(if minimize_bundles then Some minimize else None)
           ())
    in
    Term.(const hunt $ bundle_dir $ minimize_bundles)
  | "value-hunt" ->
    let file =
      Arg.(
        value
        & pos 0 (some file) None
        & info [] ~docv:"FILE.c"
            ~doc:"Single-program mode; omit to run a generated-corpus campaign instead.")
    in
    Term.(
      const (function Some path -> Instead (fun () -> value_file path) | None -> Run m) $ file)
  | "size-hunt" ->
    let ratio =
      Arg.(
        value
        & opt float Campaign.Oracle_campaign.default_ratio
        & info [ "ratio" ] ~docv:"R"
            ~doc:
              "Cross-compiler threshold: flag a case when one compiler's -Os output is at least \
               $(docv) times the other's.  A reporting parameter only — the journal stores \
               size curves, so resuming with a different $(docv) re-thresholds without \
               recompiling.")
    in
    Term.(const (fun ratio -> Run (Campaign.Mode.size ~ratio)) $ ratio)
  | "level-hunt" ->
    let bisect =
      Arg.(
        value & flag
        & info [ "bisect" ]
            ~doc:
              "Also bisect every inversion through the keeping level's feature-flag commit \
               history (probe-cached, on the worker pool) and print the offending commits.")
    in
    Term.(const (fun bisect -> Run (Campaign.Mode.level ~bisect)) $ bisect)
  | "bisect" ->
    let level = Arg.(value & opt string "O3" & info [ "level" ] ~docv:"O0..O3") in
    Term.(
      const (fun level -> Run (Campaign.Mode.bisect ~level:(level_of_string level))) $ level)
  | _ -> Term.const (Run m)

let corpus_cmd (m : Campaign.Mode.t) =
  let seed = Arg.(value & opt int 20220228 & info [ "seed" ] ~docv:"N") in
  let count = Arg.(value & opt int m.count & info [ "count" ] ~docv:"N") in
  let run own seed count jobs settings journal run_root metrics =
    match own with
    | Instead f -> f ()
    | Run m ->
      let journal =
        match (journal, run_root) with
        | None, Some root ->
          let id = Campaign.Run_store.campaign_run_id ~campaign:m.name ~seed ~count settings in
          Some (Campaign.Run_store.journal_path (Campaign.Run_store.dir_of ~root ~id))
        | j, _ -> j
      in
      let r = m.run ?journal ~settings ~jobs ~seed ~count () in
      print_string r.text;
      print_string (Campaign.Mode.epilogue ~metrics r);
      print_string r.coda;
      Option.iter
        (fun root ->
          Printf.printf "run artifacts written to %s\n" (Campaign.Mode.persist ~root settings r))
        run_root
  in
  Cmd.v (Cmd.info m.command ~doc:m.doc)
    Term.(
      const run $ own_flags m $ seed $ count $ jobs_arg $ settings_arg () $ journal_arg
      $ run_root_arg $ metrics_arg)

(* ---------- reduce ---------- *)

let reduce_cmd =
  let marker =
    Arg.(
      value
      & opt (some int) None
      & info [ "marker" ] ~docv:"N"
          ~doc:"Marker to preserve (required for $(b,--oracle) markers and inversion).")
  in
  let oracle =
    Arg.(
      value & opt string "markers"
      & info [ "oracle" ] ~docv:"markers|size|inversion"
          ~doc:
            "Which finding the reduction must preserve.  $(b,markers) (default): \
             $(b,--missed-by)/$(b,--missed-at) keeps marker $(b,--marker), \
             $(b,--eliminated-by)/$(b,--eliminated-at) kills it.  $(b,size): \
             $(b,--missed-by)/$(b,--missed-at) names the larger config, \
             $(b,--eliminated-by)/$(b,--eliminated-at) the smaller (e.g. --missed-by gcc \
             --missed-at Os --eliminated-by llvm --eliminated-at Os; use the same compiler at \
             Os vs O2 with --min-ratio 1.0 for an intra finding).  $(b,inversion): \
             $(b,--missed-by) is the compiler, $(b,--missed-at) the level keeping \
             $(b,--marker), $(b,--eliminated-at) the weaker level killing it.")
  in
  let min_ratio =
    Arg.(
      value & opt float 1.25
      & info [ "min-ratio" ] ~docv:"R"
          ~doc:"Size oracle only: the reduced program must keep larger >= $(docv) * smaller.")
  in
  let min_gap =
    Arg.(
      value & opt int 1
      & info [ "min-gap" ] ~docv:"N"
          ~doc:
            "Size oracle only: absolute instruction-count floor on the gap (stops tiny \
             programs passing on ratio alone).")
  in
  let keeper = Arg.(value & opt string "gcc" & info [ "missed-by" ] ~docv:"gcc|llvm") in
  let keeper_level = Arg.(value & opt string "O3" & info [ "missed-at" ] ~docv:"O0..O3") in
  let elim = Arg.(value & opt string "llvm" & info [ "eliminated-by" ] ~docv:"gcc|llvm") in
  let elim_level = Arg.(value & opt string "O3" & info [ "eliminated-at" ] ~docv:"O0..O3") in
  let max_tests = Arg.(value & opt int 4000 & info [ "max-tests" ] ~docv:"N") in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print engine statistics on stderr: per-stage hit/reject counters, verdict- and \
             compile-cache counters, pipeline executions vs the naive predicate, and per-stage \
             wall-time percentiles.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the content-addressed verdict cache (every charged candidate re-evaluates). \
             The reduction result is identical either way; this exists for measurement.")
  in
  let run path marker oracle min_ratio min_gap keeper keeper_level elim elim_level max_tests jobs
      journal stats no_cache =
    let prog = Core.Instrument.ensure (read_program path) in
    let mk ~cflag ~lflag c l =
      {
        Core.Differential.compiler = compiler_of_string ~flag:cflag c;
        level = level_of_string ~flag:lflag l;
        version = None;
      }
    in
    let keep = mk ~cflag:"--missed-by" ~lflag:"--missed-at"
    and kill = mk ~cflag:"--eliminated-by" ~lflag:"--eliminated-at" in
    let required_marker () =
      match marker with
      | Some m -> m
      | None -> failwith (Printf.sprintf "--marker is required with --oracle %s" oracle)
    in
    let predicate =
      match oracle with
      | "markers" ->
        Dce_reduce.Predicate.marker_diff ~compile_cache:(not no_cache)
          ~keep_missed_by:(keep keeper keeper_level) ~eliminated_by:(kill elim elim_level)
          ~marker:(required_marker ()) ()
      | "size" ->
        Dce_reduce.Predicate.size_gap ~compile_cache:(not no_cache)
          ~larger:(keep keeper keeper_level) ~smaller:(kill elim elim_level) ~min_ratio ~min_gap ()
      | "inversion" ->
        Dce_reduce.Predicate.level_inversion ~compile_cache:(not no_cache)
          ~compiler:(compiler_of_string ~flag:"--missed-by" keeper)
          ~low:(level_of_string ~flag:"--eliminated-at" elim_level)
          ~high:(level_of_string ~flag:"--missed-at" keeper_level)
          ~marker:(required_marker ()) ()
      | other ->
        failwith
          (Printf.sprintf "--oracle: unknown oracle %S (use markers, size, or inversion)" other)
    in
    let result =
      Dce_reduce.Engine.reduce ~max_tests ~jobs ~cache:(not no_cache) ?journal ~predicate prog
    in
    Printf.printf "// reduced in %d rounds, %d predicate runs (size %d -> %d)\n"
      result.Dce_reduce.Engine.rounds result.Dce_reduce.Engine.tests_run
      result.Dce_reduce.Engine.initial_size result.Dce_reduce.Engine.final_size;
    print_string (Dce_minic.Pretty.program_to_string result.Dce_reduce.Engine.program);
    if stats then begin
      let s = result.Dce_reduce.Engine.stats in
      prerr_string (Dce_reduce.Engine.stats_to_string s);
      prerr_string (Campaign.Metrics.to_string s.Dce_reduce.Engine.s_metrics)
    end
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Shrink a test case while preserving a finding of the chosen $(b,--oracle): a marker \
          difference between two configurations (default), a code-size gap, or a level \
          inversion.  The engine stages the predicate cheapest-check-first, memoizes verdicts \
          and compiles by content hash, and searches candidates on a worker pool ($(b,--jobs)); \
          results are byte-identical for every jobs value and cache setting.")
    Term.(
      const run $ file_arg $ marker $ oracle $ min_ratio $ min_gap $ keeper $ keeper_level $ elim
      $ elim_level $ max_tests $ jobs_arg $ journal_arg $ stats $ no_cache)

(* ---------- bisect ---------- *)

let bisect_cmd =
  let marker = Arg.(required & opt (some int) None & info [ "marker" ] ~docv:"N") in
  let comp = Arg.(value & opt string "gcc" & info [ "compiler" ] ~docv:"gcc|llvm") in
  let level = Arg.(value & opt string "O3" & info [ "level" ] ~docv:"O0..O3") in
  let run path marker comp level =
    let prog = Core.Instrument.ensure (read_program path) in
    let compiler = compiler_of_string comp in
    match
      Dce_bisect.Bisect.find_regression compiler (level_of_string level) prog ~marker
    with
    | Dce_bisect.Bisect.Not_missed -> print_endline "marker is eliminated at HEAD: nothing to bisect"
    | Dce_bisect.Bisect.Always_missed -> print_endline "missed at every version: not a regression"
    | Dce_bisect.Bisect.Regression r ->
      let c = r.Dce_bisect.Bisect.offending in
      Printf.printf "regression introduced at version %d (last good %d, %d probes)\n"
        r.Dce_bisect.Bisect.offending_index r.Dce_bisect.Bisect.last_good
        r.Dce_bisect.Bisect.compilations;
      Printf.printf "offending commit %s: %s\n  component: %s\n  files: %s\n" c.C.Version.id
        c.C.Version.summary c.C.Version.component
        (String.concat ", " c.C.Version.files)
  in
  Cmd.v (Cmd.info "bisect" ~doc:"Bisect a missed marker to the commit that introduced it.")
    Term.(const run $ file_arg $ marker $ comp $ level)

(* ---------- repair ---------- *)

let repair_cmd =
  let marker =
    Arg.(
      value
      & opt (some int) None
      & info [ "marker" ] ~docv:"N" ~doc:"The missed (dead but surviving) marker to repair.")
  in
  let comp = Arg.(value & opt string "gcc" & info [ "compiler" ] ~docv:"gcc|llvm") in
  let level = Arg.(value & opt string "O3" & info [ "level" ] ~docv:"O0..O3") in
  let seed =
    Arg.(
      value & opt int 20220228
      & info [ "seed" ] ~docv:"N" ~doc:"Smoke-corpus seed for the verification campaigns.")
  in
  let count =
    Arg.(
      value & opt int 20
      & info [ "count" ] ~docv:"N" ~doc:"Smoke-corpus size for the verification campaigns.")
  in
  let verify_limit =
    Arg.(
      value & opt int 3
      & info [ "verify-limit" ] ~docv:"N"
          ~doc:
            "How many passing candidates get a full verification campaign before the search \
             gives up (each costs a patched-compiler sweep over the smoke corpus).")
  in
  let max_pairs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-pairs" ] ~docv:"N"
          ~doc:"Probe budget for the pair stage of the search (default 64).")
  in
  let run path marker comp level seed count verify_limit max_pairs jobs settings run_root =
    let marker =
      match marker with
      | Some m -> m
      | None -> failwith "--marker is required: name the missed marker to repair"
    in
    let prog = Core.Instrument.ensure (read_program path) in
    let compiler = compiler_of_string comp in
    let level = level_of_string level in
    let r =
      Dce_repair.Driver.run ~jobs ~settings ~seed ~count ~verify_limit ?max_pairs ?run_root
        compiler level prog ~marker
    in
    let s = r.Dce_repair.Driver.rr_search in
    Printf.printf "search: %d probe(s) (%d single(s), %d pair(s)), %d passing candidate(s)%s\n"
      s.Dce_repair.Search.so_probes s.Dce_repair.Search.so_singles s.Dce_repair.Search.so_pairs
      (List.length s.Dce_repair.Search.so_passing)
      (match s.Dce_repair.Search.so_guilty_stage with
       | Some g -> Printf.sprintf "; guilty stage %s" g
       | None -> "");
    List.iter
      (fun cv ->
        Printf.printf "candidate %s: %s\n"
          (String.concat "+" cv.Dce_repair.Driver.cv_edits)
          (if cv.Dce_repair.Driver.cv_clean then "verified clean on the smoke corpus"
           else "REJECTED (regressions on the smoke corpus)"))
      r.Dce_repair.Driver.rr_tried;
    (match r.Dce_repair.Driver.rr_accepted with
     | Some (edits, verdict) ->
       Printf.printf "repair: %s\n"
         (String.concat " + " (List.map (fun e -> e.Core.Diagnose.repair_name) edits));
       print_string (Campaign.Run_diff.render verdict)
     | None -> print_endline "no verified repair found");
    print_endline (Campaign.Json.to_string (Dce_repair.Driver.record_to_json r));
    (match Dce_repair.Driver.write_record r with
     | Some path -> Printf.printf "repair record written to %s\n" path
     | None -> ());
    match (r.Dce_repair.Driver.rr_base_dir, r.Dce_repair.Driver.rr_patched_dir) with
    | Some a, Some b ->
      Printf.printf "reproduce the verdict: dce_hunt campaign-diff --run-a %s --run-b %s\n" a b
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Close the loop on a reduced repro: search minimal pipeline-feature edits (guilty \
          component first, then single flags, then bounded pairs — every probe through the \
          compile cache) under which the compiler eliminates marker $(b,--marker), then verify \
          each passing candidate with a patched-compiler campaign over the smoke corpus and \
          accept only a candidate whose campaign diff shows no regressions.  The printed repair \
          record is byte-identical across $(b,--jobs) and $(b,--workers).")
    Term.(
      const run $ file_arg $ marker $ comp $ level $ seed $ count $ verify_limit $ max_pairs
      $ jobs_arg $ settings_arg ~supervised:false () $ run_root_arg)

(* ---------- campaign-diff ---------- *)

let campaign_diff_cmd =
  let run_a =
    Arg.(
      required
      & opt (some string) None
      & info [ "run-a" ] ~docv:"DIR" ~doc:"Baseline run directory (as written by --run-root).")
  in
  let run_b =
    Arg.(
      required
      & opt (some string) None
      & info [ "run-b" ] ~docv:"DIR" ~doc:"Candidate run directory to compare against --run-a.")
  in
  let run run_a run_b =
    let a = Campaign.Run_store.load_report run_a in
    let b = Campaign.Run_store.load_report run_b in
    let v = Campaign.Run_diff.diff a b in
    let stage_deltas =
      Campaign.Run_diff.stage_deltas
        (Campaign.Run_store.load_stage_totals run_a)
        (Campaign.Run_store.load_stage_totals run_b)
    in
    print_string (Campaign.Run_diff.render ~stage_deltas v);
    print_endline (Campaign.Json.to_string (Campaign.Run_diff.to_json ~stage_deltas v));
    if Campaign.Run_diff.has_regressions v then exit 1
  in
  Cmd.v
    (Cmd.info "campaign-diff"
       ~doc:
         "Compare two persisted campaign runs table by table: new and fixed misses, new and \
          fixed level inversions, per-cell size deltas (growth at -Os is a regression), new \
          quarantines, and informational per-stage timing deltas.  Prints the human tables and \
          one machine-readable JSON verdict line; exits 1 when run B regresses run A, so the \
          verdict can gate CI.")
    Term.(const run $ run_a $ run_b)

(* ---------- explain ---------- *)

let explain_cmd =
  let comp = Arg.(value & opt string "gcc" & info [ "compiler" ] ~docv:"gcc|llvm") in
  let level = Arg.(value & opt string "O2" & info [ "level" ] ~docv:"O0..O3") in
  let history = Arg.(value & flag & info [ "history" ] ~doc:"Also print the commit history.") in
  let trace =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE.c"
          ~doc:
            "Compile $(docv) (instrumenting it if it has no markers) and print the executed \
             stage trace: per-stage wall time, IR deltas, and markers eliminated.")
  in
  let run comp level history trace =
    let compiler = compiler_of_string comp in
    let lv = level_of_string level in
    let feats = C.Compiler.features compiler lv in
    Printf.printf "%s %s features: %s\n" compiler.C.Compiler.name (C.Level.to_string lv)
      (C.Features.describe feats);
    Printf.printf "pass schedule: %s\n" (String.concat " -> " (C.Pipeline.stage_names feats));
    (match trace with
     | None -> ()
     | Some path ->
       let prog = Core.Instrument.ensure (read_program path) in
       let _, t = C.Compiler.run (C.Compiler.session prog) compiler lv in
       Printf.printf "stage trace of %s (%d of %d scheduled stages executed):\n" path
         (List.length t)
         (List.length (C.Pipeline.stage_names feats));
       print_string (C.Passmgr.trace_to_string t));
    if history then begin
      Printf.printf "history (%d commits, HEAD at %d):\n"
        (List.length compiler.C.Compiler.history)
        (C.Compiler.head compiler);
      List.iteri
        (fun i (c : C.Version.commit) ->
          Printf.printf "  v%-3d %s %-28s [%s]%s\n" (i + 1) c.C.Version.id
            c.C.Version.component c.C.Version.summary
            (if c.C.Version.post_head then " (post-HEAD fix)" else ""))
        compiler.C.Compiler.history
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show a configuration's features, schedule, history, and per-program stage trace.")
    Term.(const run $ comp $ level $ history $ trace)

(* ---------- the campaign service: serve + client subcommands ---------- *)

module Serve = Dce_serve
module Json = Campaign.Json

let spool_arg =
  Arg.(
    value & opt string "dce-spool"
    & info [ "spool" ] ~docv:"DIR"
        ~doc:
          "Service spool directory: the job queue ($(docv)/jobs), run artifacts ($(docv)/runs), \
           the daemon lock, and the default socket ($(docv)/serve.sock).")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket path (default: $(b,--spool)/serve.sock).")

let serve_socket spool socket =
  match socket with Some s -> s | None -> Filename.concat spool "serve.sock"

let json_str k j = Option.bind (Json.member k j) Json.to_str
let json_int k j = Option.bind (Json.member k j) Json.to_int

let print_job_line j =
  Printf.printf "%-12s %-10s %-10s %-10s strikes=%d seed=%d count=%d%s%s\n"
    (Option.value ~default:"?" (json_str "job" j))
    (Option.value ~default:"?" (json_str "kind" j))
    (Option.value ~default:"?" (json_str "lane" j))
    (Option.value ~default:"?" (json_str "state" j))
    (Option.value ~default:0 (json_int "strikes" j))
    (Option.value ~default:0 (json_int "seed" j))
    (Option.value ~default:0 (json_int "count" j))
    (match json_int "progress" j with
     | Some p -> Printf.sprintf " progress=%d" p
     | None -> "")
    (match json_str "reason" j with Some r -> Printf.sprintf " (%s)" r | None -> "")

let serve_cmd =
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc:"Worker processes per job.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains per job.")
  in
  let slots =
    Arg.(value & opt int 1 & info [ "slots" ] ~docv:"N" ~doc:"Jobs running concurrently.")
  in
  let grace =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"Drain patience between SIGTERM and SIGKILL for in-flight jobs.")
  in
  let backoff =
    Arg.(
      value & opt float 0.5
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:"Retry backoff base; strike $(i,k) waits $(docv)*2^(k-1).")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"PLAN"
          ~doc:
            "Service-level fault injection: $(b,kill-job@N) SIGKILLs the running job's process \
             group once its journal shows N cases; $(b,crash-daemon@N) exits the daemon without \
             cleanup at that point.  Comma-separate to combine.  Each fires once.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the supervision log.") in
  let run spool socket workers jobs slots grace backoff chaos quiet =
    let chaos =
      Option.map
        (fun s ->
          match Serve.Daemon.parse_chaos s with Ok c -> c | Error msg -> failwith msg)
        chaos
    in
    Serve.Daemon.run
      {
        (Serve.Daemon.default ~spool) with
        Serve.Daemon.cf_socket = socket;
        cf_workers = workers;
        cf_jobs = jobs;
        cf_slots = slots;
        cf_drain_grace = grace;
        cf_backoff = backoff;
        cf_chaos = chaos;
        cf_quiet = quiet;
      }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign service daemon: accept jobs over a Unix socket, supervise them in \
          forked children, journal every queue transition, survive kill -9.")
    Term.(
      const run $ spool_arg $ socket_arg $ workers $ jobs $ slots $ grace $ backoff $ chaos
      $ quiet)

let job_pos_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB")

let submit_cmd =
  let kind =
    Arg.(
      value & opt string "hunt"
      & info [ "kind" ] ~docv:"KIND"
          ~doc:("Campaign kind: " ^ Arg.doc_alts Serve.Job.kind_names ^ "."))
  in
  let seed = Arg.(value & opt int 20220228 & info [ "seed" ] ~docv:"N") in
  let count = Arg.(value & opt int 50 & info [ "count" ] ~docv:"N") in
  let lane =
    Arg.(
      value & opt string "default"
      & info [ "lane" ] ~docv:"NAME"
          ~doc:
            "Fair-queueing lane.  The daemon round-robins across lanes, so one lane's backlog \
             cannot starve another's.")
  in
  let job_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "job-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Whole-job wall budget, daemon-enforced: the job's process group is killed when it \
             expires (and the job is failed, not retried — a deadline trips deterministically).")
  in
  let strikes =
    Arg.(
      value & opt int 2
      & info [ "strikes" ] ~docv:"N"
          ~doc:"Attempts before the job is quarantined (default 2: two strikes).")
  in
  let source =
    Arg.(
      value
      & opt (some file) None
      & info [ "source" ] ~docv:"FILE.c" ~doc:"Reduce jobs: the program to reduce.")
  in
  let marker =
    Arg.(
      value
      & opt (some int) None
      & info [ "marker" ] ~docv:"N" ~doc:"Reduce jobs: the marker to preserve.")
  in
  let run spool socket kind seed count lane job_deadline case_deadline step_budget retries strikes
      chaos source marker =
    let kind = Serve.Job.kind_of_string kind in
    let source = Option.map Dce_support.Fsx.read_file source in
    let spec =
      {
        Serve.Job.sp_kind = kind;
        sp_seed = seed;
        sp_count = count;
        sp_lane = lane;
        sp_deadline = job_deadline;
        sp_case_deadline = case_deadline;
        sp_step_budget = step_budget;
        sp_retries = retries;
        sp_strikes = strikes;
        sp_chaos = chaos;
        sp_source = source;
        sp_marker = marker;
      }
    in
    match Serve.Client.submit ~socket:(serve_socket spool socket) spec with
    | Ok id -> print_endline id
    | Error e -> failwith e
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a campaign job to the service; prints the job id.")
    Term.(
      const run $ spool_arg $ socket_arg $ kind $ seed $ count $ lane $ job_deadline
      $ deadline_arg $ step_budget_arg $ retries_arg $ strikes $ chaos_arg $ source $ marker)

let status_cmd =
  let job = Arg.(value & pos 0 (some string) None & info [] ~docv:"JOB") in
  let run spool socket job =
    let socket = serve_socket spool socket in
    match Serve.Client.status ?job ~socket () with
    | Error e -> failwith e
    | Ok j -> (
      match job with
      | Some _ -> (
        match Json.member "job_status" j with
        | Some js -> print_job_line js
        | None -> failwith "malformed response")
      | None ->
        (match Json.member "daemon" j with
         | Some d ->
           Printf.printf "daemon: up %.1fs, %d running / %d queued, slots=%d%s\n"
             (Option.value ~default:0.
                (Option.bind (Json.member "uptime" d) (function
                  | Json.Float f -> Some f
                  | Json.Int i -> Some (float_of_int i)
                  | _ -> None)))
             (Option.value ~default:0 (json_int "running" d))
             (Option.value ~default:0 (json_int "queued" d))
             (Option.value ~default:0 (json_int "slots" d))
             (match Json.member "draining" d with
              | Some (Json.Bool true) -> " (draining)"
              | _ -> "")
         | None -> ());
        (match Json.member "jobs" j with
         | Some (Json.List js) -> List.iter print_job_line js
         | _ -> ()))
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Show the daemon and its jobs (or one job).")
    Term.(const run $ spool_arg $ socket_arg $ job)

let watch_cmd =
  let run spool socket job =
    let socket = serve_socket spool socket in
    let on_event ev =
      match json_str "event" ev with
      | Some "progress" ->
        Printf.printf "%s: %d/%d (%s)\n" job
          (Option.value ~default:0 (json_int "done" ev))
          (Option.value ~default:0 (json_int "total" ev))
          (Option.value ~default:"?" (json_str "state" ev));
        flush stdout
      | _ -> ()
    in
    match Serve.Client.watch ~socket ~job ~on_event with
    | Ok j ->
      Printf.printf "%s: %s\n" job (Option.value ~default:"finished" (json_str "state" j))
    | Error e -> failwith e
  in
  Cmd.v
    (Cmd.info "watch" ~doc:"Stream a job's progress until it finishes.")
    Term.(const run $ spool_arg $ socket_arg $ job_pos_arg)

let cancel_cmd =
  let run spool socket job =
    match Serve.Client.cancel ~socket:(serve_socket spool socket) ~job with
    | Ok _ -> Printf.printf "%s: cancel requested\n" job
    | Error e -> failwith e
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a job: dequeue it if still queued, SIGTERM its process group if running.")
    Term.(const run $ spool_arg $ socket_arg $ job_pos_arg)

let result_cmd =
  let report = Arg.(value & flag & info [ "report" ] ~doc:"Also print the full report text.") in
  let run spool socket job report =
    match Serve.Client.result_ ~socket:(serve_socket spool socket) ~job with
    | Error e -> failwith e
    | Ok j ->
      let state = Option.value ~default:"?" (json_str "state" j) in
      Printf.printf "%s: %s\n" job state;
      (match Json.member "outcome" j with
       | Some (Json.Obj _ as oc) ->
         let o = Serve.Runjob.outcome_of_json oc in
         (match o.Serve.Runjob.oc_run_dir with
          | Some d -> Printf.printf "run dir: %s\n" d
          | None -> ());
         Printf.printf "cases=%d resumed=%d quarantined=%d findings=%d\n"
           o.Serve.Runjob.oc_cases o.Serve.Runjob.oc_resumed o.Serve.Runjob.oc_quarantined
           o.Serve.Runjob.oc_findings;
         if o.Serve.Runjob.oc_summary <> "" then print_endline o.Serve.Runjob.oc_summary
       | _ ->
         (match Option.bind (Json.member "job_status" j) (json_str "reason") with
          | Some r -> Printf.printf "reason: %s\n" r
          | None -> ()));
      if report then
        match Json.member "report" j with
        | Some (Json.String t) -> print_string t
        | _ -> ()
  in
  Cmd.v
    (Cmd.info "result" ~doc:"Fetch a finished job's outcome (and optionally its report).")
    Term.(const run $ spool_arg $ socket_arg $ job_pos_arg $ report)

let shutdown_cmd =
  let run spool socket =
    match Serve.Client.shutdown ~socket:(serve_socket spool socket) with
    | Ok _ -> print_endline "daemon draining"
    | Error e -> failwith e
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask the daemon to drain: finish in-flight jobs, persist the queue, exit.")
    Term.(const run $ spool_arg $ socket_arg)

(* ---------- runs: enumerate and prune the run store ---------- *)

let runs_root_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"ROOT")

let runs_list_cmd =
  let run root =
    let entries = Campaign.Run_store.list_runs ~root in
    if entries = [] then print_endline "no runs"
    else begin
      Printf.printf "%-20s %-12s %-10s %6s %6s %8s\n" "RUN" "CAMPAIGN" "SEED" "COUNT" "CASES"
        "AGE";
      let now = Unix.gettimeofday () in
      List.iter
        (fun e ->
          let age = now -. e.Campaign.Run_store.e_mtime in
          let age_s =
            if age > 86400. then Printf.sprintf "%.1fd" (age /. 86400.)
            else if age > 3600. then Printf.sprintf "%.1fh" (age /. 3600.)
            else if age > 60. then Printf.sprintf "%.1fm" (age /. 60.)
            else Printf.sprintf "%.0fs" (Float.max age 0.)
          in
          Printf.printf "%-20s %-12s %-10d %6d %6d %8s\n" e.Campaign.Run_store.e_id
            e.Campaign.Run_store.e_campaign e.Campaign.Run_store.e_seed
            e.Campaign.Run_store.e_count e.Campaign.Run_store.e_cases age_s)
        entries
    end
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List run directories under ROOT, newest first.")
    Term.(const run $ runs_root_pos)

let runs_gc_cmd =
  let keep_last =
    Arg.(
      value
      & opt (some int) None
      & info [ "keep-last" ] ~docv:"N" ~doc:"Protect the $(docv) newest runs; prune the rest.")
  in
  let older_than =
    Arg.(
      value
      & opt (some float) None
      & info [ "older-than" ] ~docv:"SECONDS"
          ~doc:"Prune only candidates whose last write is older than $(docv) seconds.")
  in
  let dry_run =
    Arg.(value & flag & info [ "dry-run" ] ~doc:"Report the victims without deleting them.")
  in
  let run root keep_last older_than dry_run =
    if keep_last = None && older_than = None then
      failwith "runs gc: give --keep-last and/or --older-than (refusing to guess)";
    let victims = Campaign.Run_store.gc ~dry_run ?keep_last ?older_than ~root () in
    if victims = [] then print_endline "nothing to prune"
    else
      List.iter
        (fun id -> Printf.printf "%s %s\n" (if dry_run then "would prune" else "pruned") id)
        victims
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"Prune old run directories by age and/or keep-last-N.")
    Term.(const run $ runs_root_pos $ keep_last $ older_than $ dry_run)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs" ~doc:"Enumerate and prune the per-run artifact store.")
    [ runs_list_cmd; runs_gc_cmd ]

let () =
  let doc = "finding missed optimizations through the lens of dead code elimination" in
  let info = Cmd.info "dce_hunt" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      ([ generate_cmd; analyze_cmd; compile_cmd ]
      @ List.map corpus_cmd Campaign.Mode.all
      @ [
        reduce_cmd;
        bisect_cmd;
        repair_cmd;
        campaign_diff_cmd;
        explain_cmd;
        serve_cmd;
        submit_cmd;
        status_cmd;
        watch_cmd;
        cancel_cmd;
        result_cmd;
        shutdown_cmd;
        runs_cmd;
        ])
  in
  (* the CLI boundary: argument and input errors surface as one-line usage
     errors naming the offending flag, never as an escaped backtrace *)
  exit
    (try Cmd.eval ~catch:false group with
     | Campaign.Engine.Interrupted signo ->
       (* fleet killed, journal closed — the campaign resumes from the
          journal on the next run.  Conventional 128+N exit codes. *)
       prerr_endline "dce_hunt: interrupted — worker fleet stopped, journal closed; re-run to resume";
       if signo = Sys.sigterm then 143 else 130
     | Failure msg | Sys_error msg ->
       prerr_endline ("dce_hunt: " ^ msg);
       2)
