(** Optimization-marker instrumentation (step ① of the paper, Figure 1).

    Inserts a [DCEMarker<n>();] call at the head of every source construct
    that roughly corresponds to a basic block — exactly the positions the
    paper's LibTooling instrumenter uses:

    - then-branches and else-branches of [if];
    - [while]/[for] loop bodies;
    - [switch] case bodies and default bodies;
    - the continuation of a function body after a statement whose subtree
      contains a conditional [return] (the "function bodies after conditional
      returns" positions).

    Marker ids are assigned sequentially in syntactic order; instrumenting an
    already-instrumented program is rejected. *)

val program : Dce_minic.Ast.program -> Dce_minic.Ast.program
(** Raises [Invalid_argument] if the program already contains markers. *)

val ensure : Dce_minic.Ast.program -> Dce_minic.Ast.program
(** {!program}, unless the program already carries markers. *)

val marker_count : Dce_minic.Ast.program -> int
(** Number of markers in an instrumented program. *)
