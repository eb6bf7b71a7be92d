(** The bisection campaign: {!Dce_bisect.Bisect.find_regression} fanned out
    over every (case, missed-marker) pair of a corpus on the {!Engine}'s
    Domain pool (paper §4.2, the step that turns differential-testing hits
    into the offending-commit Tables 3/4).

    {b Pairs} are derived purely from the corpus: for each analyzed case, in
    the analysis' config order, every marker of the config's missed set at
    the campaign level.  Output is therefore a pure function of the corpus —
    [jobs = N] is byte-identical to [jobs = 1], which equals running
    sequential per-marker {!Dce_bisect.Bisect.find_regression} yourself.

    {b Probe sessions.}  Each case gets one [~cache:true]
    {!Dce_compiler.Compiler.session}, shared by both compilers and every
    marker.  A probe first asks the whole-compile memo keyed by
    [(compiler, version, level, program)] — one compiled probe version
    answers for {e every} marker of that program, so sibling markers of a
    case (and journal-resumed re-runs) share compiles — and a miss runs the
    pipeline on the session's stage memo, replaying what adjacent versions
    already ran.  In checked mode ({!Settings.checked}) every stage a probe
    executes is validated.  The caches are observably transparent: outcomes
    and probe counts equal those of sequential
    {!Dce_bisect.Bisect.find_regression_counted} calls without a session,
    which compile every probe from scratch.

    {b Journal.}  Every corpus case appends a ["bisect-case"] JSONL record,
    an empty one when it has nothing to bisect; resume skips them.  Records of unknown kind or verdict (e.g. from a
    newer build) are skipped and counted, never fatal. *)

type bisection = {
  bs_compiler : string;  (** ["gcc-sim"] or ["llvm-sim"] *)
  bs_marker : int;
  bs_probes : int;       (** compile-and-check probes spent on this pair *)
  bs_outcome : Dce_bisect.Bisect.outcome;
}

type case_report = {
  br_case : int;  (** corpus index *)
  br_seed : int;  (** generator seed of the case *)
  br_probes : int;
  br_bisections : bisection list;  (** config order, then ascending marker *)
}

type t = {
  b_level : Dce_compiler.Level.t;
  b_cases : case_report Engine.case_outcome array;
      (** indexed by corpus case; a case with no missed marker at the level
          holds a report without bisections *)
  b_bisected : int;  (** corpus cases with at least one pair to bisect *)
  b_seeds : int array;
  b_pairs : int;   (** total (case, marker) pairs bisected *)
  b_probes : int;  (** total compile-and-check probes *)
  b_quarantine : Engine.quarantined list;  (** by corpus case, like [b_cases] *)
  b_metrics : Metrics.summary;
  b_resumed : int;
}

val run :
  ?journal:string ->
  ?level:Dce_compiler.Level.t ->
  ?settings:Settings.t ->
  jobs:int ->
  Corpus.t ->
  t
(** [level] defaults to [O3], the level with the most regressions in both
    simulated histories.  [settings] are the {!Engine.run} supervision and
    placement controls, bounding each case's bisections (byte-identical
    output at any [workers]).  Pass the settings the [corpus] was run
    under, so both halves are supervised alike and name cases alike: engine
    case [i] is corpus case [i], and a case with nothing to bisect
    completes at once.  Raises [Failure] like {!Settings.check_cases}. *)

val codec : case_report Engine.codec
(** The ["bisect-case"] journal record codec (exposed for tests). *)

val regressions :
  t -> (int * string * int * Dce_bisect.Bisect.regression) list
(** [(corpus case, compiler, marker, regression)] for every pair that
    bisected to an offending commit, in campaign order. *)

val commits_by_compiler :
  t -> (string * Dce_compiler.Version.commit list) list
(** Offending commits per compiler, ["llvm-sim"] first (Table 3), then
    ["gcc-sim"] (Table 4); duplicates preserved (one entry per regression —
    {!Dce_bisect.Bisect.component_table} deduplicates). *)

val summary : t -> string
(** One line: pairs, cases, level, verdict counts, total probes. *)

val component_tables : t -> string
(** The rendered Tables 3/4: per compiler, offending commits deduplicated
    and grouped by component with distinct-file counts. *)
