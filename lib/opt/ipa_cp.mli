(** Interprocedural constant propagation (the GCC ipa-cp role).

    If every call site of a [static] function passes the same compile-time
    constant for a parameter, uses of that parameter inside the callee are
    replaced by the constant.  This proves callee-side branches dead {e
    without} inlining — the cases inlining thresholds are too small for —
    and is a distinct bisection component ("Interprocedural Analyses") in the
    simulated histories.

    Only direct calls exist in MiniC and non-static functions may have unseen
    callers, so the transformation is sound exactly for statics with at least
    one visible call site. *)

val run : Dce_ir.Ir.program -> Dce_ir.Ir.program
