(** Function inlining.

    Splices the callee's CFG into the caller at the call site: parameters are
    substituted by the argument operands, returns become jumps to a
    continuation block (with a phi for the result when the callee has several
    returns), and the callee's frame slots are cloned into fresh caller-owned
    symbols per call site.  Recursive cycles are never inlined; [main] is
    never inlined into anyone.

    Inlining is the enabler for most interprocedural dead-code discovery in
    the corpus: constants only propagate into a callee's branches once its
    body lives in the caller, which is why [-O0]/[-O1] miss interprocedural
    dead blocks that [-O2] finds (paper Tables 1/2).

    [threshold] bounds the callee size (instructions).  Inlining into a
    caller stops once it holds more than [600 + 12 * threshold]
    instructions. *)

type config = { threshold : int }

val default_config : config

val run : config -> Dce_ir.Ir.program -> Dce_ir.Ir.program
