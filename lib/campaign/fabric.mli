(** The multi-process campaign fabric: a coordinator/worker execution grid
    layered on the {!Engine}.

    {b Process model.}  The coordinator forks [workers] persistent worker
    processes, each connected by a Unix-domain socketpair speaking a
    line-JSON protocol (the dependency-free {!Json}).  Fork happens before
    any domain is spawned — the OCaml 5 fork-safety rule: the runtime
    forbids [Unix.fork] once any domain has {e ever} been created, even
    after it is joined, so a multi-process grid must run before any
    [jobs > 1] campaign in the same process ([run] checks
    {!Engine.domains_ever_spawned} and fails with that diagnosis) — and fork
    inheritance carries the runner and codec closures into the workers, so
    the fabric is as generic as {!Engine.run}.  Each worker then runs its
    chunks over [jobs] domains, giving a processes × domains grid.

    {b Work stealing, twice over.}  Cases still to run are sliced into
    chunks on a coordinator-side queue; a worker that finishes its chunk
    immediately pulls the next (["chunk-done"] → dispatch).  Inside a
    worker, the chunk runs on {!Engine.pool}, whose domains claim cases one
    at a time from a shared counter.  One pathological case therefore
    delays only its own domain, not a pre-assigned share of the corpus.

    {b Determinism.}  Workers execute cases through {!Engine.pool} and ship
    the exact {!Engine.case_to_json} record; the coordinator records each
    into the engine's journal session ({!Engine.with_session}) — the same
    case-indexed outcome slots, the same journal replay and append path
    {!Engine.run} uses.  Output is a pure function of the case set —
    independent of [workers], [jobs], chunking, arrival order, and resume
    history — so reports are byte-identical to [~workers:1 ~jobs:1], and a
    journal written by a fabric run resumes under a non-fabric run and vice
    versa.

    {b Warm workers.}  Worker processes persist across chunks, so the
    content-addressed compile cache and the pass-manager analysis caches
    accumulate for the whole campaign; each worker reports its cache-counter
    delta in its farewell message and the coordinator folds them into the
    campaign metrics ({!Metrics.summary.cache}, plus the fabric counters in
    {!Metrics.summary.fabric}).

    {b Crash and hang containment.}  A dead socket (worker crash) or an
    expired [chunk_deadline] (worker hang, killed by the coordinator)
    quarantines nothing by itself: the dead worker's {e unfinished} in-flight
    cases are re-queued for the surviving workers, once — a case whose
    worker dies twice is the poison pill and is quarantined (stage
    ["fabric"], reusing the {!Engine.fault_kind} machinery) so the campaign
    always terminates.  When every surviving worker has already been told to
    quit, a replacement is forked, at most [2 * workers] times.

    {b Signals.}  The coordinator installs SIGINT/SIGTERM handlers for the
    duration of a multi-process run: the first signal drains — in-flight
    chunks finish streaming their records, no new chunk is dispatched,
    workers are told to quit — and a second signal kills the fleet outright.
    Either way the journal is closed (lock released), the prior signal
    dispositions are restored, and [run] raises {!Interrupted} carrying the
    signal number.  Cases not journaled by then simply re-run on resume;
    nothing is quarantined by a drain. *)

exception Interrupted of int
(** Raised (after the fleet is dead, the journal closed, and signal
    dispositions restored) when SIGINT or SIGTERM arrived during a
    multi-process run.  Carries the OCaml signal number ([Sys.sigint] /
    [Sys.sigterm]). *)

val run :
  ?journal:string ->
  ?codec:'a Engine.codec ->
  ?campaign:string ->
  ?seed:int ->
  ?settings:Settings.t ->
  ?chunk_deadline:float ->
  jobs:int ->
  count:int ->
  (Engine.ctx -> int -> 'a) ->
  'a Engine.result
(** Same contract as {!Engine.run} plus the fabric controls.  With
    [settings.workers = 1] (the default) this {e is} {!Engine.run} — no
    process is forked and the fabric-only options are ignored; that
    degenerate case anchors the byte-identity guarantee for larger grids.

    [settings.chunk] is the cases-per-chunk grain (default:
    pending/(workers·4), clamped to [1, 32]).  [chunk_deadline] (wall
    seconds) bounds one chunk's execution; an overdue worker is killed and
    handled like a crash.

    Raises [Invalid_argument] when [jobs < 1], [count < 0], or [workers > 1]
    without a codec (case results must cross the process boundary, journal
    or not). *)

val in_worker : unit -> bool
(** True inside a fabric worker process — exposed so tests (and diagnostics)
    can behave differently in a worker, e.g. deliberately killing one to
    exercise crash containment. *)
