(** The campaign engine, the one runner of every campaign: a Domain-based
    work-stealing pool, optionally under a grid of forked worker processes,
    with per-case fault isolation, cooperative supervision, and JSONL
    checkpoint/resume.

    The engine runs [count] cases through a user-supplied runner.  The
    cases still to run are claimed one at a time from a shared atomic
    counter by [min jobs n] workers, so a slow case delays only the
    domain running it.  Worker 0 is the calling domain and the others are
    [min jobs n - 1] spawned domains, all joined before [run] returns or
    re-raises.  Results land in a [count]-sized array indexed by
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
(** Index of the worker running the current case, in [\[0, jobs)]; worker 0
    is the domain that called {!run}. *)

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
    step budget, retry count and chaos plan, and the process grid: with
    [workers = 1] the cases run in this process; with [workers > 1] they
    run in forked worker processes (see "Worker processes" below).  Either
    way the result is the same function of the case set, and a journal
    written by one resumes under the other.

    The journal is closed, and its lock released, on every exit path —
    an exception escaping the codec or a journal write included.

    Raises [Invalid_argument] when [jobs < 1], [count < 0], [journal] is
    given without [codec], or [workers > 1] without [codec] (case results
    cross a process boundary, journal or not).  Raises [Failure] when
    [workers > 1] in a process that has already spawned worker domains
    (OCaml forbids [fork] once any domain has ever existed).

    {b Worker processes.}  The coordinator forks [workers] persistent
    worker processes, each connected by a socketpair speaking {!Wire}'s
    line JSON, and never spawns a domain itself.  Cases still to run are
    sliced into chunks of pending/(workers·4) cases, clamped to [1, 32], on
    a coordinator-side queue; a worker that finishes
    its chunk pulls the next, and runs each chunk on the Domain pool over
    [jobs] domains — a processes × domains grid.  Workers ship the exact
    {!case_to_json} record of each case, which the coordinator journals
    verbatim.  Workers persist across chunks, so the compile and analysis
    caches stay warm; each reports its cache-counter delta when it quits,
    folded into the campaign metrics along with the grid counters
    ({!Metrics.summary.fabric}).

    A worker that dies quarantines nothing by itself: its unfinished
    in-flight cases are re-queued once, and a case whose worker dies twice
    is quarantined (stage ["fabric"]) so the campaign always terminates.
    When every surviving worker has been told to quit, a replacement is
    forked, at most [2 * workers] times.

    During a multi-process run the coordinator handles SIGINT/SIGTERM: the
    first signal drains (in-flight chunks finish, nothing new is
    dispatched), a second kills the fleet.  Either way the journal is
    closed, the prior signal dispositions are restored, and [run] raises
    {!Interrupted}.  Cases not journaled by then re-run on resume. *)

exception Interrupted of int
(** Raised by a multi-process {!run} (after the fleet is dead, the journal
    closed, and signal dispositions restored) when SIGINT or SIGTERM
    arrived.  Carries the OCaml signal number. *)

val in_worker : unit -> bool
(** True inside a worker process of a multi-process {!run} — exposed so
    tests can behave differently in a worker, e.g. deliberately killing
    one to exercise crash containment. *)

val case_to_json : 'a codec -> int -> 'a case_outcome -> Json.t
(** The JSONL case record: [{"case";"status";...}] with the codec payload
    for [Done] and stage/error/kind/backtrace/retries for [Crashed]. *)

val case_of_json : 'a codec -> Json.t -> (int * 'a case_outcome) option
(** Inverse of {!case_to_json}; [None] for records of unknown status,
    raises when a known shape is malformed (both are skip-with-count during
    replay).  Decodes pre-supervision records (missing kind/backtrace/
    retries) with defaults. *)

val counters_delta :
  Dce_compiler.Passmgr.counters -> Dce_compiler.Passmgr.counters -> Dce_compiler.Passmgr.counters
(** [counters_delta before after]: the analysis-cache activity between two
    snapshots of the global pass-manager counters. *)

val domains_ever_spawned : unit -> bool
(** Whether this process has ever spawned worker domains (a [jobs > 1] run
    with more than one case to run).  OCaml's [Unix.fork] refuses after any
    domain creation, which is why a multi-process {!run} must come first. *)
