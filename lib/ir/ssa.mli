(** SSA construction (semi-pruned, via dominance frontiers).

    {!construct} turns the pre-SSA form produced by {!Lower} into SSA: every
    register has a single definition, joins are expressed with [Phi]
    definitions at block heads.  Unreachable blocks are removed first (they
    cannot be renamed meaningfully).

    Frame symbols are unaffected — memory never enters SSA; the memory
    optimizations (store-to-load forwarding, DSE) handle it instead, which is
    exactly the split real compilers use (mem2reg having been subsumed by the
    register/frame classification in {!Lower}). *)

val construct : Ir.func -> Ir.func
(** Raises [Failure] on malformed input (validated internally).  A function
    construction leaves structurally equal (no register defined, no block
    unreachable) is returned itself. *)

val construct_program : Ir.program -> Ir.program
(** {!construct} on every function; the program itself when it returns
    every function itself. *)
