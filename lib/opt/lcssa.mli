(** Loop-closed SSA: make loop-defined values cross the loop boundary only
    through phis at the exit block.

    The loop-cloning transformations (unrolling, unswitching) replicate a
    loop's registers per copy; a use {e outside} the loop of a register
    defined {e inside} would be left dangling.  [close_loop] inserts, at the
    unique exit target, one phi per such register and rewrites all outside
    uses to it — after which the cloners' exit-phi replication handles
    everything uniformly.

    Returns [None] (transformation must be skipped) when the loop has outside
    uses but more than one exit target, or when an exit target has
    predecessors outside the loop (the phi placement would need full SSA
    reconstruction, which real compilers also avoid in their fast paths). *)

val close_loop : Dce_ir.Ir.func -> Dce_ir.Loops.loop -> Dce_ir.Ir.func option
