module Json = Dce_campaign.Json
module Campaign = Dce_campaign
module Core = Dce_core
module C = Dce_compiler

(* Executing one job inside the forked job child.  Each kind maps onto the
   corresponding campaign entry point with the journal routed into the
   job's Run_store directory, so a killed job (worker death, daemon crash,
   drain) resumes from its journal on the next attempt. *)

let run_id_of spec =
  match spec.Job.sp_kind with
  | Job.Reduce -> None
  | kind ->
    Some
      (Campaign.Run_store.campaign_run_id ~campaign:(Job.kind_to_string kind)
         ~seed:spec.Job.sp_seed ~count:spec.Job.sp_count (Job.settings spec))

let journal_of ~runs_root spec =
  Option.map
    (fun id -> Campaign.Run_store.journal_path (Campaign.Run_store.dir_of ~root:runs_root ~id))
    (run_id_of spec)

type outcome = {
  oc_run_dir : string option;
  oc_cases : int;
  oc_resumed : int;
  oc_quarantined : int;
  oc_findings : int;
  oc_summary : string;
}

let outcome_to_json o =
  Json.Obj
    [
      ("run_dir", match o.oc_run_dir with Some d -> Json.String d | None -> Json.Null);
      ("cases", Json.Int o.oc_cases);
      ("resumed", Json.Int o.oc_resumed);
      ("quarantined", Json.Int o.oc_quarantined);
      ("findings", Json.Int o.oc_findings);
      ("summary", Json.String o.oc_summary);
    ]

let outcome_of_json j =
  {
    oc_run_dir = Option.bind (Json.member "run_dir" j) Json.to_str;
    oc_cases = Option.value ~default:0 (Option.bind (Json.member "cases" j) Json.to_int);
    oc_resumed = Option.value ~default:0 (Option.bind (Json.member "resumed" j) Json.to_int);
    oc_quarantined =
      Option.value ~default:0 (Option.bind (Json.member "quarantined" j) Json.to_int);
    oc_findings = Option.value ~default:0 (Option.bind (Json.member "findings" j) Json.to_int);
    oc_summary = Option.value ~default:"" (Option.bind (Json.member "summary" j) Json.to_str);
  }

(* Every campaign kind ends alike: persist the run under its id through the
   same Run_store call as `dce_hunt hunt --run-root`, and summarize it. *)
let persist ~runs_root ~settings ~report_text ~metrics ~resumed ~quarantine ~findings ~summary
    (report : Campaign.Run_store.report) =
  let dir = Campaign.Run_store.persist ~report_text ~root:runs_root settings ~metrics report in
  {
    oc_run_dir = Some dir;
    oc_cases = report.r_count;
    oc_resumed = resumed;
    oc_quarantined = List.length quarantine;
    oc_findings = findings;
    oc_summary = summary;
  }

let run_corpus ~runs_root ~settings ~jobs spec =
  Campaign.Corpus.run ?journal:(journal_of ~runs_root spec) ~settings ~jobs
    ~seed:spec.Job.sp_seed ~count:spec.Job.sp_count ()

let persist_corpus ~runs_root ~settings ~report_text ~findings ~summary ~campaign spec
    (c : Campaign.Corpus.t) =
  persist ~runs_root ~settings ~report_text ~metrics:c.c_metrics ~resumed:c.c_resumed
    ~quarantine:c.c_quarantine ~findings ~summary
    (Campaign.Corpus.report ~campaign ~seed:spec.Job.sp_seed ~count:spec.Job.sp_count c)

let persist_seeded ~runs_root ~settings ~report_text ~findings ~summary
    (s : _ Campaign.Engine.seeded) report =
  persist ~runs_root ~settings ~report_text ~metrics:s.result.metrics ~resumed:s.result.resumed
    ~quarantine:s.result.quarantine ~findings ~summary report

let execute_hunt ~runs_root ~settings ~jobs spec =
  let c = run_corpus ~runs_root ~settings ~jobs spec in
  let stats = Campaign.Corpus.stats c in
  persist_corpus ~runs_root ~settings ~report_text:(Campaign.Corpus.report_text c)
    ~findings:(List.length stats.Dce_report.Stats.findings)
    ~summary:(Dce_report.Stats.prevalence stats) ~campaign:"hunt" spec c

let execute_triage ~runs_root ~settings ~jobs spec =
  let c = run_corpus ~runs_root ~settings ~jobs spec in
  let reports = Campaign.Corpus.triage c in
  persist_corpus ~runs_root ~settings ~report_text:(Dce_report.Triage.table5 reports)
    ~findings:(List.length reports)
    ~summary:(Printf.sprintf "%d deduplicated reports" (List.length reports))
    ~campaign:"triage" spec c

let execute_size ~runs_root ~settings ~jobs spec =
  let module O = Campaign.Oracle_campaign in
  let seed = spec.Job.sp_seed and ratio = O.default_ratio in
  let s =
    O.run_size ?journal:(journal_of ~runs_root spec) ~settings ~jobs ~seed
      ~count:spec.Job.sp_count ()
  in
  let findings = List.length (O.size_findings ~ratio s) in
  persist_seeded ~runs_root ~settings ~report_text:(O.size_report ~ratio s) ~findings
    ~summary:(Printf.sprintf "%d size findings" findings)
    s (O.size_run_report ~ratio ~seed s)

let execute_level ~runs_root ~settings ~jobs spec =
  let module O = Campaign.Oracle_campaign in
  let seed = spec.Job.sp_seed in
  let t =
    O.run_inversion ?journal:(journal_of ~runs_root spec) ~settings ~jobs ~seed
      ~count:spec.Job.sp_count ()
  in
  let findings = List.length (O.inversion_findings t) in
  persist_seeded ~runs_root ~settings ~report_text:(O.inversion_report t) ~findings
    ~summary:(Printf.sprintf "%d level inversions" findings)
    t (O.inversion_run_report ~seed t)

let execute_bisect ~runs_root ~settings ~jobs spec =
  let module B = Campaign.Bisect_campaign in
  (* the corpus re-generates deterministically, under the same supervision;
     the expensive bisection half journals into the run directory and
     resumes *)
  let corpus =
    Campaign.Corpus.run ~settings ~jobs ~seed:spec.Job.sp_seed ~count:spec.Job.sp_count ()
  in
  let b = B.run ?journal:(journal_of ~runs_root spec) ~settings ~jobs corpus in
  persist ~runs_root ~settings ~report_text:(B.summary b ^ B.component_tables b)
    ~metrics:b.B.b_metrics ~resumed:b.B.b_resumed ~quarantine:b.B.b_quarantine ~findings:0
    ~summary:(String.trim (B.summary b))
    (Campaign.Corpus.report ~campaign:"bisect" ~seed:spec.Job.sp_seed
       ~count:spec.Job.sp_count corpus)

let execute_reduce ~jobs spec =
  let source =
    match spec.Job.sp_source with
    | Some s -> s
    | None -> failwith "reduce job: spec carries no source"
  in
  let marker =
    match spec.Job.sp_marker with
    | Some m -> m
    | None -> failwith "reduce job: spec carries no marker"
  in
  let prog =
    match Dce_minic.Typecheck.check (Dce_minic.Parser.parse_program source) with
    | Ok p -> p
    | Error errs -> failwith (String.concat "\n" errs)
  in
  let prog =
    if Dce_minic.Ast.markers_of_program prog = [] then Core.Instrument.program prog else prog
  in
  let cfg compiler =
    { Core.Differential.compiler; level = C.Level.O3; version = None }
  in
  let predicate =
    Dce_reduce.Predicate.marker_diff ~compile_cache:true
      ~keep_missed_by:(cfg C.Gcc_sim.compiler) ~eliminated_by:(cfg C.Llvm_sim.compiler) ~marker ()
  in
  let result = Dce_reduce.Engine.reduce ~jobs ~predicate prog in
  {
    oc_run_dir = None;
    oc_cases = result.Dce_reduce.Engine.tests_run;
    oc_resumed = 0;
    oc_quarantined = 0;
    oc_findings = 1;
    oc_summary =
      Printf.sprintf "reduced in %d rounds (size %d -> %d)\n%s"
        result.Dce_reduce.Engine.rounds result.Dce_reduce.Engine.initial_size
        result.Dce_reduce.Engine.final_size
        (Dce_minic.Pretty.program_to_string result.Dce_reduce.Engine.program);
  }

let execute ~runs_root ~workers ~jobs spec =
  let settings = Job.settings ~workers spec in
  match spec.Job.sp_kind with
  | Job.Hunt -> execute_hunt ~runs_root ~settings ~jobs spec
  | Job.Triage -> execute_triage ~runs_root ~settings ~jobs spec
  | Job.Size_hunt -> execute_size ~runs_root ~settings ~jobs spec
  | Job.Level_hunt -> execute_level ~runs_root ~settings ~jobs spec
  | Job.Bisect -> execute_bisect ~runs_root ~settings ~jobs spec
  | Job.Reduce -> execute_reduce ~jobs spec
