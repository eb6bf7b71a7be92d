(** The parallel campaign engine: a Domain-based work-stealing pool with
    per-case fault isolation, cooperative supervision, and JSONL
    checkpoint/resume.

    The engine runs [count] cases through a user-supplied runner.  The
    cases still to run are claimed one at a time from a shared atomic
    counter by [min jobs n] worker domains, so a slow case delays only the
    domain running it.  Results land in a [count]-sized array indexed by
    case — so the campaign's output is a pure function of the case set,
    independent of [jobs], which domain ran which case, or resume history.
    With [jobs = 1] no domain is spawned and the engine is a plain
    sequential loop in case order.

    {b Fault isolation.}  A runner exception (from a generator bug, a
    compiler crash, a step-budget blow-up surfacing as an exception…) kills
    only its case: the case is quarantined with the innermost {!stage} name
    active at the throw point, the exception text, its captured backtrace,
    and a {!fault_kind} classification, and the worker moves on.  The
    quarantine bucket is part of the result and of the journal.

    {b Supervision.}  With a {!Settings.t} deadline or step budget, each
    case attempt runs under a fresh {!Dce_support.Guard}: poll points at every {!stage}
    boundary, inside the pass manager, and in the interpreter's step loop
    raise [Guard.Budget_exceeded] when the budget trips, quarantining the
    case as a [Timeout] naming the guilty stage instead of stalling its
    worker.  Pure OCaml cannot be preempted, so this is cooperative by
    design — see DESIGN.md.

    {b Retries.}  With [retries > 0], a fault classified transient by
    {!Chaos.is_transient} re-runs the case up to that many extra attempts,
    each under a fresh guard; retry and recovery counts land in the metrics.

    {b Chaos.}  The settings' {!Chaos.plan} is deterministic: faults fire
    at matching stage boundaries of the targeted cases only.  The plan
    signature is baked into the journal campaign name, so a resume under a
    different plan is rejected as a parameter mismatch.

    {b Checkpoint/resume.}  With [~journal], every completed case (done or
    quarantined) is appended to a JSONL file as it finishes.  Re-running
    the same campaign with the same journal path skips every case already
    recorded, decoding its payload via the codec instead of re-executing;
    a journal truncated mid-line resumes from the last complete record. *)

type ctx
(** Per-worker execution context handed to the runner. *)

val worker : ctx -> int
(** Index of the worker domain running the current case, in [\[0, jobs)]. *)

val stage : ctx -> string -> (unit -> 'a) -> 'a
(** [stage ctx name f] runs [f], recording its wall time under [name] in the
    campaign metrics.  Nests; on an exception the innermost active name is
    what the quarantine records as the guilty stage.  Stage entry is also
    the engine's supervision poll point and chaos injection point. *)

(** Why a case was quarantined. *)
type fault_kind =
  | Crash       (** plain exception from the runner *)
  | Timeout     (** deadline or step budget exceeded *)
  | Ir_invalid  (** checked-mode IR validation failed, blaming a pass *)

val fault_kind_name : fault_kind -> string
(** ["crash"], ["timeout"], ["ir-invalid"] — the journal encoding. *)

val classify : exn -> fault_kind
(** [Guard.Budget_exceeded] → [Timeout], [Passmgr.Ir_invalid] →
    [Ir_invalid], anything else → [Crash]. *)

type quarantined = {
  q_case : int;        (** corpus index of the crashed case *)
  q_stage : string;    (** innermost {!stage} active when it threw *)
  q_error : string;    (** [Printexc.to_string] of the exception *)
  q_kind : fault_kind;
  q_backtrace : string;
      (** backtrace captured at the quarantine site; may be [""] when the
          runtime recorded none *)
  q_retries : int;     (** retry attempts consumed before giving up *)
}

type 'a case_outcome =
  | Done of 'a
  | Crashed of quarantined

type 'a codec = {
  encode : 'a -> Json.t;
  decode : Json.t -> 'a;
      (** may raise; an undecodable journal payload re-runs the case *)
}

type 'a result = {
  outcomes : 'a case_outcome array;  (** indexed by case, length [count] *)
  quarantine : quarantined list;     (** crashed cases, ascending *)
  metrics : Metrics.summary;
  resumed : int;  (** cases restored from the journal instead of executed *)
}

type 'a seeded = {
  seeds : int array;  (** generator seed of each corpus case *)
  result : 'a result;
}
(** A corpus campaign's outcome: the engine result plus the per-case
    generator seeds, which name a quarantined case to the user and let a
    later stage regenerate it. *)

val quarantine_to_string : seeds:int array -> quarantined list -> string
(** The quarantine printer of every campaign: one line per case,
    ["  case I (seed S): VERB in stage STAGE: ERROR"], where [S] is
    [seeds.(I)], VERB is [crashed], [timed out] or [produced invalid IR],
    and [" (after N retries)"] follows the stage when retries were
    spent. *)

val run :
  ?journal:string ->
  ?codec:'a codec ->
  ?campaign:string ->
  ?seed:int ->
  ?settings:Settings.t ->
  jobs:int ->
  count:int ->
  (ctx -> int -> 'a) ->
  'a result
(** [run ~jobs ~count runner] — [runner ctx i] computes case [i].

    [journal] names the JSONL checkpoint file (created, parents included, if
    missing; resumed if present).  Journaling requires [codec];
    [campaign]/[seed] identify the campaign in the journal header and guard
    resume against parameter mismatches (which raise [Failure]).  A non-empty
    chaos plan in [settings] extends the campaign name with the plan
    signature.

    [settings] (default {!Settings.default}) supplies the per-case deadline,
    step budget, retry count and chaos plan; its [workers] and [chunk] are
    the {!Fabric}'s concern and are ignored here.

    The journal is closed, and its lock released, on every exit path —
    an exception escaping the codec or a journal write included.

    Raises [Invalid_argument] when [jobs < 1], [count < 0], or [journal] is
    given without [codec]. *)

(** {1 Fabric building blocks}

    The multi-process {!Fabric} reuses the engine's scheduler and journal
    lifecycle verbatim — same pool, same attempt loop, same journal
    records, same replay — which is what makes its merged output
    byte-identical to an in-process run.  These entry points exist for it;
    campaign code should call {!run} or {!Fabric.run}. *)

val pool :
  ?settings:Settings.t ->
  jobs:int ->
  int array ->
  (ctx -> int -> 'a) ->
  (int -> 'a case_outcome -> unit) ->
  Metrics.t
(** [pool ~jobs cases runner on_outcome] runs every case index in [cases]
    through the full supervision machinery (chaos arming, a fresh guard per
    attempt, bounded transient retries, fault classification) and hands
    each outcome to [on_outcome], possibly from another domain.  It uses
    [min jobs n] domains, each claiming the next unclaimed position from
    one shared atomic counter (work stealing), or runs inline when
    [jobs = 1] or there is at most one case.  Returns the merged per-worker
    metrics.  An exception from [on_outcome] propagates once every domain
    has been joined. *)

val case_to_json : 'a codec -> int -> 'a case_outcome -> Json.t
(** The JSONL case record: [{"case";"status";...}] with the codec payload
    for [Done] and stage/error/kind/backtrace/retries for [Crashed]. *)

val case_of_json : 'a codec -> Json.t -> (int * 'a case_outcome) option
(** Inverse of {!case_to_json}; [None] for records of unknown status,
    raises when a known shape is malformed (both are skip-with-count during
    replay).  Decodes pre-supervision records (missing kind/backtrace/
    retries) with defaults. *)

type 'a session
(** One campaign's journal lifecycle: the case-indexed outcome slots, the
    open journal (if any), and the counter snapshots the summary is
    computed against. *)

val with_session :
  ?journal:string ->
  ?codec:'a codec ->
  ?campaign:string ->
  ?seed:int ->
  ?settings:Settings.t ->
  count:int ->
  ('a session -> 'r) ->
  'r
(** Open the session, run the body, and close the journal on every exit
    path, exceptions included.  With [journal] and [codec], the journal is
    loaded; when its header matches [campaign] (extended with the
    signature of the [settings]' chaos plan, if any), [seed] and [count],
    its records are replayed into the outcome slots — unreadable,
    unknown-kind and out-of-range records are skipped and counted.  The
    journal is then opened for appending ({!Journal.open_append}: locked,
    a mismatched header raises [Failure]).  Without both, nothing is
    journaled. *)

val pending : 'a session -> int array
(** Case indices not restored from the journal nor recorded since,
    ascending. *)

val completed : 'a session -> int -> bool

val record : 'a session -> ?json:Json.t -> int -> 'a case_outcome -> unit
(** Record case [i]'s outcome and append its journal record: [json] when
    given (the fabric passes each worker's record through verbatim),
    otherwise {!case_to_json}.  A no-op when the case is already recorded.
    Safe to call from several domains for distinct cases. *)

val finish :
  ?fabric:Metrics.fabric ->
  ?cache:Dce_compiler.Passmgr.counters list ->
  ?chaos_fired:int ->
  stage:string ->
  'a session ->
  Metrics.t ->
  'a result
(** The campaign result: slots never recorded are quarantined as "case
    never completed" blamed on [stage], and the metrics are summarized
    with this process's cache and chaos deltas since the session opened,
    plus [cache] and [chaos_fired] (the fabric workers' deltas) and the
    [fabric] counters. *)

val counters_delta :
  Dce_compiler.Passmgr.counters -> Dce_compiler.Passmgr.counters -> Dce_compiler.Passmgr.counters
(** [counters_delta before after]: the analysis-cache activity between two
    snapshots of the global pass-manager counters. *)

val domains_ever_spawned : unit -> bool
(** Whether this process has ever spawned worker domains ({!pool} with
    [jobs > 1] and more than one case).  OCaml's [Unix.fork] refuses after
    any domain creation, so {!Fabric.run} checks this to refuse a
    multi-process grid with a clear message instead of the runtime's bare
    [Failure]. *)
