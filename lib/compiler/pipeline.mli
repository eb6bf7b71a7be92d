(** The generic optimization pipeline, instantiated by a feature matrix and
    driven through the {!Passmgr} subsystem.

    Stage order (each stage gated/configured by {!Features.t}):

    + the {e front}: front-end simplification (the only thing [-O0] gets),
      then SSA construction — no stage here reads a {!Features.t} field, so
      it is computed once per program and shared by every config (see
      {!prepare});
    + {e early} unreachable-function removal, when [function_dce_early] —
      the Listing 9b pass-ordering flaw: functions that later folding will
      orphan are no longer deleted;
    + inlining, vectorizer model;
    + the main round — SCCP → MemCP → GVN → VRP → peephole → jump
      threading → DCE → SimplifyCFG — iterated to a fixpoint, bounded by
      [opt_rounds];
    + full unrolling, then another round (unrolled conditions need folding);
    + unswitching, then another round;
    + late DSE, late unreachable-function removal, final cleanup.

    Every pass executes under one {!Passmgr.t} per [run], so memory
    analysis, predecessors, and dominators are computed once and reused
    until a pass reports a change.  Rounds stop early once a whole round
    leaves the IR unchanged; because every pass is a deterministic function
    of the program, the skipped rounds could not have changed it either, so
    the output is identical to the historical fixed-count schedule —
    checked program-for-program by the [run_reference] differential test.

    [run] never changes observable behaviour: this is checked by the
    differential-interpretation tests and the qcheck property suite. *)

val run : ?validate:bool -> Features.t -> Dce_ir.Ir.program -> Dce_ir.Ir.program
(** [validate] (default false) re-checks IR well-formedness after every
    stage and raises [Failure] naming the offending stage. *)

val run_traced :
  ?validate:bool -> Features.t -> Dce_ir.Ir.program -> Dce_ir.Ir.program * Passmgr.trace
(** Like {!run}, also returning the per-stage trace: wall time, IR deltas,
    and the markers each stage eliminated.  Consumed by
    {!Dce_core.Diagnose} and [dce_hunt explain --trace].  This is
    [run_prepared feats (prepare ?validate prog)]. *)

(** {1 The shared front} *)

type prepared
(** One program with its front stages computed lazily, each at most once.
    Mutable and single-domain: share it among the configs of one program
    inside one analysis, never across programs or domains. *)

val prepare : ?validate:bool -> Dce_ir.Ir.program -> prepared
(** Runs nothing yet: the first {!run_prepared} that needs a front stage
    executes it — polling the ambient guard, applying the ambient IR hook
    and, when [validate] (default false), validating its output — and later
    configs replay it.  Every run on the result validates its stages when
    [validate] is set, as {!run}'s [validate] does. *)

val run_prepared : Features.t -> prepared -> Dce_ir.Ir.program * Passmgr.trace
(** The schedule's one executor: the front (computed or replayed) and then
    the per-config rest.  The result and the trace are those of
    {!run_traced} on the prepared program; a replayed front stage reuses its
    stage record (including [sr_time]) and still polls the ambient guard
    once, so step budgets count the same polls. *)

val run_reference : Features.t -> Dce_ir.Ir.program -> Dce_ir.Ir.program
(** The pre-pass-manager pipeline semantics, kept as a differential
    oracle: the full static schedule with no fixpoint early exit, and a
    fresh analysis computation for every stage (no caching).  Test-only;
    {!run} must produce an identical program. *)

val stage_names : Features.t -> string list
(** The maximal schedule [run] executes, in order (for [--explain] and
    tests).  Fixpoint sections appear fully expanded; an actual run may
    stop a round sequence early once the IR reaches a fixpoint. *)
