(** The bisection campaign, the one runner that turns missed markers into
    offending commits: {!Dce_bisect.Bisect.find_regression} fanned out over
    (case, compiler, level, marker) targets on the {!Engine} (paper §4.2,
    the step that turns differential-testing hits into the offending-commit
    Tables 3/4).

    {b Targets} are derived purely from the campaign's input, per corpus
    case, and engine case [i] is corpus case [i].  {!run} bisects every
    marker of an analyzed corpus missed at one level, in the analysis'
    config order; {!inversions} bisects every level inversion of a
    level-inversion campaign at the level that keeps the marker, in finding
    order.  Output is therefore a pure function of the input — [jobs = N]
    and any [workers] are byte-identical to [jobs = 1], which equals
    running sequential per-marker {!Dce_bisect.Bisect.find_regression}
    yourself.

    {b Probe sessions.}  Each case attempt gets one [~cache:true]
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

    {b Supervision} is the engine's: one deadline and step budget per case
    attempt, covering all of the case's bisections, and a case that trips
    it or faults is quarantined whole.

    {b Journal.}  Every corpus case of {!run} appends a ["bisect-case"]
    JSONL record, an empty one when it has nothing to bisect; resume skips
    them.  Records of unknown kind or verdict (e.g. from a newer build) are
    skipped and counted, never fatal.  The record carries no level: a
    pair's level is its target's. *)

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
  b_levels : Dce_compiler.Level.t list;
      (** the distinct levels bisected at, weakest first *)
  b_cases : case_report Engine.case_outcome array;
      (** indexed by corpus case; a case with nothing to bisect holds a
          report without bisections *)
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
(** Bisect every marker the corpus misses at [level] (default [O3], the
    level with the most regressions in both simulated histories).
    [settings] are the {!Engine.run} supervision and placement controls.
    Pass the settings the [corpus] was run under, so both halves are
    supervised alike and name cases alike.  Raises [Failure] like
    {!Settings.check_cases}. *)

val inversions :
  ?settings:Settings.t ->
  jobs:int ->
  Oracle_campaign.inv_case Engine.seeded ->
  t
(** Bisect every level inversion of the campaign through the history of
    the level that keeps its marker ([iv_high]).  A case regenerates its
    program from its seed ({!Case.program}) in a ["regenerate"] stage;
    unjournaled.  Otherwise as {!run}. *)

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
(** One line: pairs, cases, levels, verdict counts, total probes. *)

val component_tables : t -> string
(** The rendered Tables 3/4: per compiler, offending commits deduplicated
    and grouped by component with distinct-file counts. *)
