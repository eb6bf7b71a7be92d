(** Value-check instrumentation — the paper's §4.4 "future directions"
    extension, implemented.

    Instead of relying on existing dead blocks, this mode {e manufactures}
    them: after every loop, for each scalar variable the loop assigns, it
    plants [if (v != C) DCEMarker<n>();] where [C] is the value [v] actually
    has at that point — obtained by profiling (running the program once with
    probes).  Every such check is dead by construction, and eliminating it
    requires the compiler to {e compute the loop's result}: this is a targeted
    probe of scalar-evolution-style reasoning (full unrolling, induction
    folding), exactly the use case the paper sketches.

    Probes whose value is not a compile-run-stable integer (several observed
    values, pointer values, never executed) produce no check.

    The result composes with the ordinary pipeline: ground truth re-verifies
    the checks are dead, and the differential machinery measures which
    configurations prove them. *)

type stats = {
  probes_inserted : int;   (** candidate (loop, variable) positions *)
  checks_planted : int;    (** positions with a stable profiled value *)
}

val instrument :
  ?max_checks:int ->
  Dce_minic.Ast.program ->
  (Dce_minic.Ast.program * stats) option
(** [instrument raw_program] (must be marker-free and have [main]).
    [None] when profiling fails (trap, fuel).  Default cap: 32 checks. *)
