(** Campaign metrics: per-stage wall-time samples, throughput, supervision
    counters, and the analysis-cache hit rate aggregated across workers.

    Each worker records [(stage, seconds)] samples — plus retry events — into
    its own [t] (no cross-domain sharing); the engine {!merge}s them after
    the join and {!summarize}s the union. *)

type t
(** A mutable per-worker sample accumulator. *)

val create : unit -> t
val record : t -> string -> float -> unit

val retried : t -> unit
(** Count one retry attempt of a transient-classified fault. *)

val recovered : t -> unit
(** Count one case that succeeded after at least one retry. *)

val merge : t -> t -> t
(** Functional union of two accumulators' samples and counters (inputs
    unchanged).  Associative and — up to sample order, which {!summarize}
    erases — commutative, so per-worker-process accumulators merge to the
    same summary in any order (property-tested). *)

val to_json : t -> Json.t
(** Wire form of an accumulator, for shipping across a process boundary
    (the fabric's worker farewell message). *)

val of_json : Json.t -> t
(** Inverse of {!to_json}; raises [Failure] on a malformed record.  The
    round trip may reorder samples, which is invisible after
    {!summarize}. *)

type stage_summary = {
  ss_stage : string;
  ss_samples : int;
  ss_total : float;   (** summed wall seconds across all samples *)
  ss_p50 : float;
  ss_p90 : float;
  ss_p99 : float;
}

(** Worker-process grid counters, present when {!Engine.run} ran the
    campaign over more than one worker process. *)
type fabric = {
  f_workers : int;  (** worker processes forked *)
  f_jobs : int;     (** domains per worker process *)
  f_chunks : int;   (** case chunks dispatched by the coordinator *)
  f_cases_per_worker : int list;
      (** cases completed per worker slot, in slot order — the work-stealing
          balance at a glance *)
  f_reassigned : int;  (** cases re-queued after their worker died *)
  f_deaths : int;      (** worker processes that died mid-campaign *)
  f_respawns : int;    (** replacement workers forked *)
}

type summary = {
  cases : int;            (** cases newly executed (journal replays excluded) *)
  wall : float;           (** campaign wall-clock seconds *)
  throughput : float;     (** cases / wall, 0 when wall is 0 *)
  stages : stage_summary list;  (** by summed time, largest first *)
  cache : Dce_compiler.Passmgr.counters;
      (** pass-manager analysis-cache and stage-memo counter deltas over
          the campaign, aggregated across every worker domain *)
  journal_skipped : int;
      (** journal records ignored on resume: unreadable lines, unknown
          record kinds (a journal written by a different build), or indices
          outside this campaign — each skipped case simply re-executes *)
  crashed : int;     (** quarantined with a plain exception *)
  timeouts : int;    (** quarantined by the deadline / step budget *)
  ir_invalid : int;  (** quarantined by checked-mode IR validation *)
  retries : int;     (** transient-fault retry attempts across all cases *)
  recovered : int;   (** cases that succeeded after at least one retry *)
  chaos_fired : int; (** chaos faults actually injected during the run *)
  chaos_unfired : Chaos.injection list;
      (** planned injections whose case ran in this run but which never
          fired (their case never reached the named stage), plan order *)
  fabric : fabric option;
      (** multi-process execution counters; [None] outside the fabric *)
}

val summarize :
  ?journal_skipped:int ->
  ?crashed:int ->
  ?timeouts:int ->
  ?ir_invalid:int ->
  ?chaos_fired:int ->
  ?chaos_unfired:Chaos.injection list ->
  ?fabric:fabric ->
  cases:int ->
  wall:float ->
  cache:Dce_compiler.Passmgr.counters ->
  t ->
  summary
(** The retry counters come from [t] itself; the fault-kind and chaos counts
    are passed in by the engine (computed from the quarantine bucket and the
    chaos firing log). *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0,1]: nearest-rank on a sorted array;
    0 on the empty array.  Exposed for tests. *)

val summary_to_json : summary -> Json.t
(** Artifact form of a summary (a run directory's [metrics.json]): counters,
    analysis-cache and stage-memo hit rates, per-stage rows with summed totals and percentiles, and
    the fabric block when present.  {!Run_diff} reads the per-stage totals
    back for its timing-delta table. *)

val to_string : summary -> string
(** Human-readable block: throughput line, analysis-cache hit-rate line
    (with the stage-memo hit rate), a
    supervision line when any fault/retry/chaos counter is nonzero, and one
    row per stage with sample count, total, and p50/p90/p99. *)
