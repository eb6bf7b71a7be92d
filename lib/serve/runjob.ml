module Json = Dce_campaign.Json
module Campaign = Dce_campaign
module Core = Dce_core
module C = Dce_compiler

(* Executing one job inside the forked job child.  A campaign job runs its
   Mode entry with the journal routed into the job's Run_store directory,
   so a killed job (worker death, daemon crash, drain) resumes from its
   journal on the next attempt. *)

let run_id_of spec =
  match spec.Job.sp_kind with
  | Job.Reduce -> None
  | Job.Mode campaign ->
    Some
      (Campaign.Run_store.campaign_run_id ~campaign ~seed:spec.Job.sp_seed
         ~count:spec.Job.sp_count (Job.settings spec))

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
    Core.Instrument.ensure (Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program source))
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
  match spec.Job.sp_kind with
  | Job.Reduce -> execute_reduce ~jobs spec
  | Job.Mode name ->
    let m =
      match Campaign.Mode.find name with
      | Some m -> m
      | None -> failwith (Printf.sprintf "job: unknown kind %S" name)
    in
    let settings = Job.settings ~workers spec in
    let r =
      m.run ?journal:(journal_of ~runs_root spec) ~settings ~jobs ~seed:spec.Job.sp_seed
        ~count:spec.Job.sp_count ()
    in
    {
      oc_run_dir = Some (Campaign.Mode.persist ~root:runs_root settings r);
      oc_cases = spec.Job.sp_count;
      oc_resumed = r.resumed;
      oc_quarantined = r.quarantined;
      oc_findings = r.findings;
      oc_summary = r.summary;
    }
