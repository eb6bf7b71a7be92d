(** Staged interestingness predicates.

    The original reducer's predicate was one opaque [program -> bool] whose
    every call cost two full compiler pipelines plus a ground-truth
    interpreter run.  A staged predicate splits that check into an ordered
    list of stages, cheapest first, each of which can reject on its own —
    so a candidate that fails to typecheck, or that no longer even contains
    the marker, never reaches a compiler.  Each stage is individually
    counted (entered / rejected, process-wide atomics, so counts are exact
    under the parallel engine) and individually timed.

    A stage may rewrite the program it passes on: the typecheck stage
    forwards the {e normalized} program, exactly as the original reducer
    did before calling its predicate.

    The pipeline stages of the built-in predicates compile each
    configuration in a fresh {!Dce_compiler.Compiler.session}.

    Stage exceptions are caught and attributed ([Crashed]) rather than
    propagated — the engine's per-candidate fault isolation. *)

open Dce_minic

type cost =
  | Free       (** syntactic / table lookup — negligible *)
  | Execution  (** one reference-interpreter run *)
  | Pipeline   (** one full compiler pipeline *)

type stage = {
  st_name : string;
  st_cost : cost;
  st_run : Ast.program -> Ast.program option;
      (** [Some p'] passes (possibly rewritten program), [None] rejects *)
}

type outcome =
  | Pass
  | Rejected of int  (** index of the rejecting stage *)
  | Crashed of { at : string; error : string }
      (** a stage raised; treated as a rejection by the engine *)

type stage_count = {
  sc_name : string;
  sc_cost : cost;
  sc_entered : int;
  sc_rejected : int;
}

type t

val v : ?compile_cached:bool -> stage list -> t
(** Build a predicate from ordered stages (cheapest first by convention).
    [compile_cached] declares that pipeline stages compile in
    [~cache:true] sessions, through the whole-compile memo, which tells the
    engine to read real pipeline counts off the compile cache.  Raises
    [Invalid_argument] on an empty list. *)

val of_fun : (Ast.program -> bool) -> t
(** Wrap an opaque predicate as [typecheck; predicate] — the exact check
    sequence of the original reducer. *)

val marker_diff :
  compile_cache:bool ->
  keep_missed_by:Dce_core.Differential.config ->
  eliminated_by:Dce_core.Differential.config ->
  marker:int ->
  unit ->
  t
(** The paper's reduction predicate, staged:
    typecheck → marker-present (free syntactic filter) → ground-truth
    (marker dead under execution) → keeper-survives → eliminator-kills.
    Equivalent to {!Dce_reduce.Reduce.marker_diff_predicate} preceded by
    typechecking. *)

val size_gap :
  compile_cache:bool ->
  larger:Dce_core.Differential.config ->
  smaller:Dce_core.Differential.config ->
  ?min_ratio:float ->
  ?min_gap:int ->
  unit ->
  t
(** The size-oracle predicate, staged: typecheck → valid-execution (the
    candidate must still be a campaign-valid test case: no trap, no fuel
    exhaustion) → size-gap ([larger]'s output strictly bigger than
    [smaller]'s, by at least [min_ratio] (default 1.25) {e and} [min_gap]
    instructions (default 1 — raise it to stop tiny programs passing on
    ratio alone)).  For an intra-compiler finding, pass the same compiler at
    [-Os] as [larger] and [-O2] as [smaller] with [min_ratio = 1.0].  The
    size-gap stage runs two pipelines (both sizes at once), which
    {!pipelines_for} counts as one — with [compile_cache] the engine reads
    real pipeline counts off the compile cache instead. *)

val level_inversion :
  compile_cache:bool ->
  compiler:Dce_compiler.Compiler.t ->
  low:Dce_compiler.Level.t ->
  high:Dce_compiler.Level.t ->
  marker:int ->
  unit ->
  t
(** The inversion-oracle predicate, staged like {!marker_diff} but within
    one compiler: typecheck → marker-present → ground-truth (marker dead) →
    low-eliminates ([low] kills the marker) → high-keeps ([high] keeps
    it). *)

val run : t -> Ast.program -> outcome * (string * float) list
(** Evaluate, first stage first, stopping at the first rejection.  Returns
    the outcome and the [(stage, seconds)] wall-time samples of the stages
    that actually ran.  Domain-safe. *)

val stage_names : t -> string list
val counts : t -> stage_count list
(** Cumulative per-stage counters, in stage order (process lifetime; the
    engine reports deltas per reduction). *)

val uses_compile_cache : t -> bool
val pipeline_stages : t -> int
(** Number of [Pipeline]-cost stages — the per-test pipeline cost of the
    naive (unstaged) predicate. *)

val pipelines_for : t -> outcome -> int
(** Pipelines an uncached staged evaluation runs to reach this outcome. *)
