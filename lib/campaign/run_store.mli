(** Per-run artifact directories under stable run ids.

    A campaign run can persist itself as [<root>/<run-id>/] holding
    [meta.json] (the campaign parameters), [report.json] (the cross-run
    comparison report below), [metrics.json] ({!Metrics.summary_to_json}),
    optionally [report.txt] (the rendered human report) and
    [journal.jsonl] (the campaign's checkpoint journal, written by the
    engine itself when the caller routes it here via {!journal_path}).

    The run id is a {e pure function of the campaign parameters} — no
    timestamps, no pids — so re-running the same campaign lands in the same
    directory, and ids are identical across [--jobs]/[--workers] settings.
    [campaign-diff] consumes two such directories and compares their
    reports table by table ({!Run_diff}). *)

val run_id : campaign:string -> seed:int -> count:int -> string list -> string
(** [run_id ~campaign ~seed ~count extras]: deterministic id
    ["run-<15 hex digits>"].  [extras] folds in whatever else distinguishes
    the run (compiler names, a patch signature). *)

val campaign_run_id : campaign:string -> seed:int -> count:int -> Settings.t -> string
(** The id of a corpus campaign run ([hunt], and the serve daemon's jobs):
    {!run_id} with the requested [checked] flag and the chaos-plan spec as
    extras.  Budgets, jobs and workers are excluded on purpose — the report
    is identical across them. *)

(** {1 The comparison report} *)

type miss = {
  m_case : int;  (** corpus index *)
  m_compiler : string;
  m_level : Dce_compiler.Level.t;
  m_marker : int;  (** dead marker the configuration kept *)
}

type size_row = {
  z_case : int;
  z_compiler : string;
  z_level : Dce_compiler.Level.t;
  z_size : int;  (** {!Dce_backend.Asm.size} of the output *)
}

type inv_row = {
  v_case : int;
  v_compiler : string;
  v_marker : int;
  v_low : Dce_compiler.Level.t;   (** weakest level eliminating the marker *)
  v_high : Dce_compiler.Level.t;  (** strongest level keeping it *)
}

type report = {
  r_campaign : string;
  r_seed : int;
  r_count : int;
  r_compilers : string list;  (** display names, in campaign order *)
  r_misses : miss list;
  r_sizes : size_row list;
  r_inversions : inv_row list;
  r_rejected : int list;     (** ground-truth-rejected corpus indices *)
  r_quarantined : int list;  (** quarantined corpus indices *)
}

val sort_report : report -> report
(** Canonical row order (by case, then compiler, level rank, marker) and
    deduplicated index lists — applied by {!write}, so persisted reports
    are byte-stable regardless of collection order. *)

val case_rows :
  int -> (string * Dce_compiler.Level.t * Dce_ir.Ir.Iset.t) list -> miss list * inv_row list
(** [case_rows case missed]: the miss rows and level-inversion rows of corpus
    case [case], from its [(compiler, level, missed dead markers)] sets —
    one miss row per marker, and per compiler the
    {!Dce_core.Differential.inversions} of its levels. *)

val seeded_report :
  campaign:string ->
  seed:int ->
  rejected:('a -> bool) ->
  sizes:size_row list ->
  inversions:inv_row list ->
  'a Engine.seeded ->
  report
(** The sorted report of a seeded campaign with no miss rows (the oracle
    and value-check modes): the given rows, the default compilers, the
    cases whose outcome is [rejected] and the quarantined cases. *)

val report_to_json : report -> Json.t
val report_of_json : Json.t -> report
(** Raises [Failure] on a malformed document. *)

(** {1 The artifact directory} *)

val dir_of : root:string -> id:string -> string

val journal_path : string -> string
(** [journal_path dir]: where a campaign journaling into the run directory
    should write ([<dir>/journal.jsonl]). *)

val write :
  ?report_text:string ->
  root:string ->
  id:string ->
  meta:Json.t ->
  metrics:Metrics.summary ->
  report ->
  string
(** Create [<root>/<id>/] (parents included) and write [meta.json],
    [report.json] (sorted canonically), [metrics.json], and — when given —
    [report.txt].  Returns the directory path. *)

val persist :
  report_text:string -> root:string -> Settings.t -> metrics:Metrics.summary -> report -> string
(** {!write} a corpus campaign run under its {!campaign_run_id}, with the
    campaign, seed and count taken from the report, and a [meta.json]
    holding those three plus the same two settings the id folds in.  The
    one persist path of [dce_hunt hunt --run-root] and of the serve
    daemon's jobs, so both write byte-identical [meta.json]s. *)

val load_report : string -> report
(** Read back [<dir>/report.json]; raises [Failure] naming the path when the
    directory holds no parseable report. *)

(** {1 Enumeration and garbage collection} *)

type entry = {
  e_id : string;
  e_dir : string;
  e_campaign : string;  (** ["?"] when meta.json is missing or unreadable *)
  e_seed : int;
  e_count : int;
  e_mtime : float;      (** directory mtime — last artifact write *)
  e_cases : int;        (** journal records past the header; 0 when absent *)
}

val list_runs : root:string -> entry list
(** Every [run-*] directory under [root], newest first (directory mtime,
    run id as tie-break).  Unreadable metadata degrades to placeholder
    fields rather than hiding the run — gc must still be able to see it. *)

val gc :
  ?dry_run:bool -> ?keep_last:int -> ?older_than:float -> root:string -> unit -> string list
(** Prune run directories; returns the pruned ids (newest first).  With
    [keep_last:n] the [n] newest runs are protected and the rest are
    candidates; with [older_than:secs] only candidates older than that are
    removed (with {e only} [keep_last], every unprotected run is removed).
    [dry_run] reports the victims without deleting.  Neither flag — no-op. *)

val load_stage_totals : string -> (string * float) list
(** The per-stage summed wall seconds of [<dir>/metrics.json], for the
    diff's timing-delta table; [[]] when missing or unreadable (timings are
    measurements, never verdict inputs). *)
