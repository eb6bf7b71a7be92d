(** Dead instruction elimination (SSA def-use based).

    Deletes pure definitions (arithmetic, address computations, loads, phis)
    whose results are transitively unused.  [Store]s, [Call]s and [Marker]s
    are roots: removing stores is {!Dse}'s job, calls are always observable in
    this compiler model, and markers can only disappear when their whole block
    is proven unreachable — the property the paper's technique measures. *)

val run : Dce_ir.Ir.func -> Dce_ir.Ir.func
