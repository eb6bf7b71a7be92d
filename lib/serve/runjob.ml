module Json = Dce_campaign.Json
module Campaign = Dce_campaign
module Core = Dce_core
module C = Dce_compiler
module Fsx = Dce_support.Fsx

(* Executing one job inside the forked job child.  Each kind maps onto the
   corresponding campaign entry point with the journal routed into the
   job's Run_store directory, so a killed job (worker death, daemon crash,
   drain) resumes from its journal on the next attempt — and a hunt job's
   artifacts are byte-identical to `dce_hunt hunt --run-root` with the same
   parameters, because both sides share Corpus.report / Corpus.report_text
   and the same run-id derivation. *)

let campaign_of_kind = function
  | Job.Hunt -> "hunt"
  | Job.Triage -> "triage"
  | Job.Size_hunt -> "size-hunt"
  | Job.Level_hunt -> "level-hunt"
  | Job.Bisect -> "bisect"
  | Job.Reduce -> "reduce"

let run_id_of spec =
  match spec.Job.sp_kind with
  | Job.Reduce -> None
  | kind ->
    Some
      (Campaign.Run_store.campaign_run_id ~campaign:(campaign_of_kind kind)
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

let persist ~runs_root ~spec ~report_text ~metrics report =
  let meta =
    Campaign.Run_store.meta ~campaign:(campaign_of_kind spec.Job.sp_kind) ~seed:spec.Job.sp_seed
      ~count:spec.Job.sp_count (Job.settings spec)
  in
  Campaign.Run_store.write ~report_text ~root:runs_root ~id:(Option.get (run_id_of spec)) ~meta
    ~metrics report

let run_corpus ~runs_root ~settings ~jobs spec =
  Campaign.Corpus.run ?journal:(journal_of ~runs_root spec) ~settings ~jobs
    ~seed:spec.Job.sp_seed ~count:spec.Job.sp_count ()

let execute_hunt ~runs_root ~settings ~jobs spec =
  let seed = spec.Job.sp_seed and count = spec.Job.sp_count in
  let c = run_corpus ~runs_root ~settings ~jobs spec in
  let report = Campaign.Corpus.report ~campaign:"hunt" ~seed ~count c in
  let dir =
    persist ~runs_root ~spec
      ~report_text:(Campaign.Corpus.report_text c)
      ~metrics:c.Campaign.Corpus.c_metrics report
  in
  let stats = Campaign.Corpus.stats c in
  {
    oc_run_dir = Some dir;
    oc_cases = count;
    oc_resumed = c.Campaign.Corpus.c_resumed;
    oc_quarantined = List.length c.Campaign.Corpus.c_quarantine;
    oc_findings = List.length stats.Dce_report.Stats.findings;
    oc_summary = Dce_report.Stats.prevalence stats;
  }

let execute_triage ~runs_root ~settings ~jobs spec =
  let seed = spec.Job.sp_seed and count = spec.Job.sp_count in
  let c = run_corpus ~runs_root ~settings ~jobs spec in
  let stats = Campaign.Corpus.stats c in
  let programs = Campaign.Corpus.instrumented_programs c in
  let reports =
    Dce_report.Triage.triage ~programs
      (stats.Dce_report.Stats.findings @ stats.Dce_report.Stats.regression_findings)
  in
  let report = Campaign.Corpus.report ~campaign:"triage" ~seed ~count c in
  let dir =
    persist ~runs_root ~spec
      ~report_text:(Dce_report.Triage.table5 reports)
      ~metrics:c.Campaign.Corpus.c_metrics report
  in
  {
    oc_run_dir = Some dir;
    oc_cases = count;
    oc_resumed = c.Campaign.Corpus.c_resumed;
    oc_quarantined = List.length c.Campaign.Corpus.c_quarantine;
    oc_findings = List.length reports;
    oc_summary = Printf.sprintf "%d deduplicated reports" (List.length reports);
  }

let execute_size ~runs_root ~settings ~jobs spec =
  let seed = spec.Job.sp_seed and count = spec.Job.sp_count in
  let s =
    Campaign.Oracle_campaign.run_size ?journal:(journal_of ~runs_root spec) ~settings ~jobs ~seed
      ~count ()
  in
  let findings = Campaign.Oracle_campaign.size_findings s in
  (* fold the finding sizes into report rows so campaign-diff can compare
     two size runs cell by cell *)
  let sizes =
    List.concat_map
      (fun (i, f) ->
        match (f : Core.Differential.size_finding) with
        | Core.Differential.Size_cross { level; larger; larger_size; smaller; smaller_size } ->
          [
            { Campaign.Run_store.z_case = i; z_compiler = larger; z_level = level; z_size = larger_size };
            { Campaign.Run_store.z_case = i; z_compiler = smaller; z_level = level; z_size = smaller_size };
          ]
        | Core.Differential.Size_intra { compiler; os_size; o2_size } ->
          [
            { Campaign.Run_store.z_case = i; z_compiler = compiler; z_level = C.Level.Os; z_size = os_size };
            { Campaign.Run_store.z_case = i; z_compiler = compiler; z_level = C.Level.O2; z_size = o2_size };
          ])
      findings
  in
  let report =
    Campaign.Run_store.sort_report
      {
        Campaign.Run_store.r_campaign = "size-hunt";
        r_seed = seed;
        r_count = count;
        r_compilers = [ "gcc-sim"; "llvm-sim" ];
        r_misses = [];
        r_sizes = sizes;
        r_inversions = [];
        r_rejected = [];
        r_quarantined =
          List.map
            (fun q -> q.Campaign.Engine.q_case)
            s.Campaign.Oracle_campaign.s_quarantine;
      }
  in
  let dir =
    persist ~runs_root ~spec
      ~report_text:(Campaign.Oracle_campaign.size_report s)
      ~metrics:s.Campaign.Oracle_campaign.s_metrics report
  in
  {
    oc_run_dir = Some dir;
    oc_cases = count;
    oc_resumed = s.Campaign.Oracle_campaign.s_resumed;
    oc_quarantined = List.length s.Campaign.Oracle_campaign.s_quarantine;
    oc_findings = List.length findings;
    oc_summary = Printf.sprintf "%d size findings" (List.length findings);
  }

let execute_level ~runs_root ~settings ~jobs spec =
  let seed = spec.Job.sp_seed and count = spec.Job.sp_count in
  let t =
    Campaign.Oracle_campaign.run_inversion ?journal:(journal_of ~runs_root spec) ~settings ~jobs
      ~seed ~count ()
  in
  let findings = Campaign.Oracle_campaign.inversion_findings t in
  let invs =
    List.map
      (fun (i, (f : Campaign.Oracle_campaign.inv_finding)) ->
        {
          Campaign.Run_store.v_case = i;
          v_compiler = f.Campaign.Oracle_campaign.if_compiler;
          v_marker = f.Campaign.Oracle_campaign.if_inversion.Core.Differential.iv_marker;
          v_low = f.Campaign.Oracle_campaign.if_inversion.Core.Differential.iv_low;
          v_high = f.Campaign.Oracle_campaign.if_inversion.Core.Differential.iv_high;
        })
      findings
  in
  let report =
    Campaign.Run_store.sort_report
      {
        Campaign.Run_store.r_campaign = "level-hunt";
        r_seed = seed;
        r_count = count;
        r_compilers = [ "gcc-sim"; "llvm-sim" ];
        r_misses = [];
        r_sizes = [];
        r_inversions = invs;
        r_rejected = [];
        r_quarantined =
          List.map
            (fun q -> q.Campaign.Engine.q_case)
            t.Campaign.Oracle_campaign.i_quarantine;
      }
  in
  let dir =
    persist ~runs_root ~spec
      ~report_text:(Campaign.Oracle_campaign.inversion_report t)
      ~metrics:t.Campaign.Oracle_campaign.i_metrics report
  in
  {
    oc_run_dir = Some dir;
    oc_cases = count;
    oc_resumed = t.Campaign.Oracle_campaign.i_resumed;
    oc_quarantined = List.length t.Campaign.Oracle_campaign.i_quarantine;
    oc_findings = List.length findings;
    oc_summary = Printf.sprintf "%d level inversions" (List.length findings);
  }

let execute_bisect ~runs_root ~settings ~jobs spec =
  let seed = spec.Job.sp_seed and count = spec.Job.sp_count in
  (* the corpus re-generates deterministically, under the same supervision;
     the expensive bisection half journals into the run directory and
     resumes *)
  let corpus = Campaign.Corpus.run ~settings ~jobs ~seed ~count () in
  let b =
    Campaign.Bisect_campaign.run ?journal:(journal_of ~runs_root spec) ~settings ~jobs corpus
  in
  let report = Campaign.Corpus.report ~campaign:"bisect" ~seed ~count corpus in
  let report_text =
    Campaign.Bisect_campaign.summary b ^ Campaign.Bisect_campaign.component_tables b
  in
  let dir =
    persist ~runs_root ~spec ~report_text ~metrics:b.Campaign.Bisect_campaign.b_metrics report
  in
  {
    oc_run_dir = Some dir;
    oc_cases = count;
    oc_resumed = b.Campaign.Bisect_campaign.b_resumed;
    oc_quarantined = List.length b.Campaign.Bisect_campaign.b_quarantine;
    oc_findings = 0;
    oc_summary = String.trim (Campaign.Bisect_campaign.summary b);
  }

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
