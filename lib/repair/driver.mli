(** The closed loop: repair search → A/B verification campaign → diff.

    Given a repro, {!run} searches feature-edit sets ({!Search}), then runs
    the base compiler and each candidate's patched compiler over the smoke
    corpus ({!Verify.campaign}) and diffs the two reports
    ({!Dce_campaign.Run_diff}).  A candidate is accepted only when its diff
    shows no regressions — no new misses, no new inversions, no [-Os] size
    growth, no new quarantines; a candidate that fixes the repro but breaks
    another case is recorded as rejected and the next passing candidate is
    tried, up to [verify_limit].

    Everything in the {!result} except the metrics is a pure function of the
    inputs: {!record_to_json} is byte-identical across [jobs] and [workers]. *)

type candidate_verdict = {
  cv_edits : string list;  (** repair names of the edit set *)
  cv_verdict : Dce_campaign.Run_diff.verdict;
  cv_clean : bool;
}

type result = {
  rr_compiler : string;
  rr_level : Dce_compiler.Level.t;
  rr_marker : int;
  rr_search : Search.outcome;
  rr_tried : candidate_verdict list;  (** verified candidates, in order *)
  rr_accepted : (Dce_core.Diagnose.repair list * Dce_campaign.Run_diff.verdict) option;
  rr_base_report : Dce_campaign.Run_store.report;
  rr_base_metrics : Dce_campaign.Metrics.summary;
  rr_patched_metrics : Dce_campaign.Metrics.summary option;  (** accepted run's *)
  rr_base_dir : string option;  (** written only when [run_root] is given *)
  rr_patched_dir : string option;
}

val run :
  ?jobs:int ->
  ?settings:Dce_campaign.Settings.t ->
  ?seed:int ->
  ?count:int ->
  ?verify_limit:int ->
  ?max_pairs:int ->
  ?run_root:string ->
  ?candidates:Dce_core.Diagnose.repair list list ->
  Dce_compiler.Compiler.t ->
  Dce_compiler.Level.t ->
  Dce_minic.Ast.program ->
  marker:int ->
  result
(** [run compiler level repro ~marker].  [seed]/[count] shape the smoke
    corpus (defaults 20220228/20); [verify_limit] (default 3) bounds how
    many passing candidates get a full verification campaign; [candidates]
    are edit sets to verify {e before} the search's own passing candidates
    (e.g. a human suggestion).  The other built-in simulator is the rival
    that anchors the differential rows shared by both runs.  [settings]
    place the verification campaigns; when [settings.workers > 1] the search
    stage runs [jobs=1] so the process stays fork-clean for the
    multi-process verification grid.  When [run_root] is given, base and
    accepted-patched runs are journalled and written as per-run artifact
    directories under stable run ids.  Raises [Failure] naming the flag,
    before any search, when {!Dce_campaign.Settings.check_cases} refuses
    [count] (a negative count, or a chaos plan naming a case past it). *)

val record_to_json : result -> Dce_campaign.Json.t
(** The repair record: timing-free, deterministic across [jobs]/[workers]. *)

val record_path : string -> string
(** [record_path dir] is [dir ^ "/repair.json"]. *)

val write_record : result -> string option
(** Write the repair record into the accepted run's artifact directory;
    [None] when no candidate was accepted or no [run_root] was given. *)
