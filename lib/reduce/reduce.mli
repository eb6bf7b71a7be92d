(** Test-case reduction (the C-Reduce role in the paper's workflow).

    Greedy delta debugging over MiniC ASTs, coarse-to-fine like ddmin: first
    try deleting large contiguous statement chunks (halves, quarters,
    eighths), then single-statement edits — delete a statement, promote a
    branch body over its [if], unwrap loops and switches, drop whole
    functions or globals, simplify condition expressions to constants —
    keeping an edit whenever the caller's interestingness predicate still
    holds (the paper's predicate: one compiler eliminates the marker, the
    other does not; §4.3).

    Candidates that fail the type checker are rejected before the predicate
    runs, so the predicate only ever sees well-formed programs.  Marker ids
    are never renumbered (predicates usually name a specific marker).

    This module is the stable opaque-predicate interface; it delegates to
    {!Engine}, which additionally offers staged predicates ({!Predicate}),
    verdict caching, parallel candidate search, and per-stage statistics. *)

type result = {
  program : Dce_minic.Ast.program;  (** the reduced program *)
  tests_run : int;                  (** predicate evaluations *)
  rounds : int;                     (** accepted-edit iterations *)
  initial_size : int;               (** statement count before *)
  final_size : int;
}

val reduce :
  ?max_tests:int ->
  predicate:(Dce_minic.Ast.program -> bool) ->
  Dce_minic.Ast.program ->
  result
(** [reduce ~predicate prog] — [prog] must satisfy the predicate (raises
    [Invalid_argument] otherwise). Default test budget: 4000. *)

val marker_diff_predicate :
  keep_missed_by:Dce_core.Differential.config ->
  eliminated_by:Dce_core.Differential.config ->
  marker:int ->
  Dce_minic.Ast.program ->
  bool
(** The paper's interestingness check for an (already instrumented) program:
    ground truth accepts it, [marker] is dead, the first configuration keeps
    it, the second eliminates it.  The staged equivalent (cheaper and
    cache-aware) is {!Predicate.marker_diff}. *)
