(** The generic optimization pipeline, instantiated by a feature matrix and
    driven through the {!Passmgr} subsystem.

    Stage order (each stage gated/configured by {!Features.t}):

    + front-end simplification (the only thing [-O0] gets), then SSA
      construction;
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
    for as long as the IR each one reads stays the same.  Rounds stop early once a whole round
    leaves the IR unchanged; because every pass is a deterministic function
    of the program, the skipped rounds could not have changed it either, so
    the output is identical to the historical fixed-count schedule —
    checked program-for-program against a reference that runs
    {!static_passes} uncached, in the test suite.

    The configs of one program share a stage memo ({!prepare}): a pass
    whose key (label and config, {!Passmgr.make_pass}) and input program
    were already seen replays the stored stage instead of running.

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

(** {1 The stage memo} *)

type prepared
(** One program with its stage memo ({!Passmgr.memo}, one per IR form) and
    its Meminfo memo ({!Passmgr.meminfo_memo}), which every config's run
    consults, so a program any config reaches is analyzed once.
    Mutable and single-domain: share it among the configs of one program
    (callers reach it through {!Compiler.session}), never across programs
    or domains; it keeps every stage input it has seen alive until dropped. *)

val prepare : ?validate:bool -> Dce_ir.Ir.program -> prepared
(** Runs nothing yet.  Every run on the result validates its stages when
    [validate] (default false) is set, as {!run}'s [validate] does. *)

val run_prepared : Features.t -> prepared -> Dce_ir.Ir.program * Passmgr.trace
(** The schedule's one executor.  A stage the memo holds is replayed
    ({!Passmgr.run_pass}): it polls the ambient guard once and reuses the
    stored record (including [sr_time]), but neither applies the ambient IR
    hook nor re-validates, so a corruption the hook plants is blamed on the
    first config that executes the stage.  Any other stage executes and is
    stored.  The result and the untimed trace are those of {!run_traced} on
    the prepared program. *)

val static_passes : Features.t -> Passmgr.pass list
(** The maximal schedule [run] executes, in order, with fixpoint sections
    fully expanded: what a run with no early exit would execute. *)

val stage_names : Features.t -> string list
(** The labels of {!static_passes} (for [--explain] and tests); an actual
    run may stop a round sequence early once the IR reaches a fixpoint. *)
