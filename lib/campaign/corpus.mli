(** The standard DCE campaign run through the {!Engine}: generate the seeded
    corpus, analyze every program (ground truth + both compilers at all
    levels), aggregate statistics — run on the engine's worker pool, fault
    isolated, and journaled.

    The corpus is a {!Case} campaign: program [i] is generated from the
    [i]-th corpus seed regardless of [jobs], which worker ran it, or resume
    history, so findings and reports are identical across any worker count
    — [jobs = 1] reproduces the historical sequential path byte for byte.

    {b Journal payloads} store what is expensive to recompute (ground-truth
    execution, ten per-config compiles) and re-derive the rest on decode:
    the program is regenerated from its seed, re-instrumented, and the
    primary-marker graph is rebuilt from the journaled block-liveness; the
    per-config stage traces are reconstituted from the journaled per-stage
    marker attribution (timings are not preserved — they are measurements,
    not results). *)

type case_result =
  | Case of Dce_core.Analysis.outcome * Dce_minic.Ast.program
      (** analysis outcome and the raw (uninstrumented) program *)
  | Quarantined of Engine.quarantined

type t = {
  c_seed : int;
  c_count : int;
  c_jobs : int;
  c_seeds : int array;             (** per-program generator seeds *)
  c_cases : case_result array;     (** indexed by corpus position *)
  c_quarantine : Engine.quarantined list;
  c_metrics : Metrics.summary;
  c_resumed : int;                 (** cases restored from the journal *)
}

type payload
(** One case's journaled analysis outcome. *)

val codec : payload Engine.codec
(** The hunt's journal record codec (exposed for tests).  Hunt records
    predate {!Json.envelope}: ["seed"] comes first, then a ["kind"] of
    ["analyzed"] or ["rejected"]. *)

val run :
  ?journal:string ->
  ?settings:Settings.t ->
  ?bundle_dir:string ->
  jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  t
(** [settings] (default {!Settings.default}) are the supervision, chaos and
    placement controls, run through {!Engine.run}: [workers] processes ×
    [jobs] domains each, with output byte-identical to [workers = 1].  When
    {!Settings.checked} holds, the IR is validated after every optimization
    pass, quarantining validation failures as [Ir_invalid] blaming the
    guilty pass.  [bundle_dir] writes a {!Bundle} repro directory for every
    quarantined case (the source is regenerated from the case seed).  Ground
    truth runs on {!Dce_exec.Exec.run}, which picks its own backend. *)

val outcomes : t -> (int * (Dce_core.Analysis.outcome * Dce_minic.Ast.program)) list
(** Non-quarantined cases with their corpus indices, ascending — the input
    shape of {!Dce_report.Stats.collect_indexed}. *)

val stats : t -> Dce_report.Stats.t
(** Campaign statistics: {!Dce_report.Stats.collect_indexed} of
    {!outcomes}. *)

val instrumented_programs : t -> Dce_minic.Ast.program array
(** Instrumented program per corpus slot (the triage/bisect input);
    quarantined slots hold a trivial empty [main]. *)

val triage : t -> Dce_report.Triage.report list
(** The Table-5 reports: every cross-compiler and cross-level finding,
    diagnosed and deduplicated by {!Dce_report.Triage.triage}. *)

val report : campaign:string -> seed:int -> count:int -> t -> Run_store.report
(** Fold the campaign into the canonical (sorted) cross-run comparison
    report: per-case missed markers per configuration plus each compiler's
    level inversions; size rows stay empty (the oracle campaigns' concern).
    One definition shared by [dce_hunt hunt --run-root] and the serve
    daemon, so both persist byte-identical [report.json]s. *)

val report_text : t -> string
(** The rendered human report persisted as [report.txt]: prevalence,
    Tables 1/2, and the differential summary. *)

(** {1 The §4.4 value-check campaign} *)

type value_case = {
  vc_seed : int;
  vc_checks : int;  (** validated dead value checks planted in this program *)
  vc_kept : (string * Dce_compiler.Level.t * int) list;
      (** (compiler, level, surviving check count) per configuration *)
}

val value_codec : value_case Engine.codec
(** The value-hunt journal record codec (exposed for tests); no
    {!Json.envelope} either. *)

val run_value :
  ?journal:string ->
  ?settings:Settings.t ->
  jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  value_case Engine.seeded

val value_table : value_case Engine.seeded -> string
(** Totals line plus the per-level "% checks missed" table (the bench's
    §4.4 extension table, now campaign-powered). *)
