(** Dead store elimination.

    Strength levels (so pipelines can differ where the paper's compilers do —
    GCC keeps the dead [c = 0;] at the end of Listing 1's [main], LLVM
    removes it):

    - 0: off;
    - 1: block-local — a store overwritten by a later store to the same cell
      with no intervening read/call that may observe it;
    - 2: additionally, {e post-lifetime} stores — at a [ret] of any function
      its own frame slots die, and at a [ret] of [main] every non-escaped
      static dies, so stores that can only be observed after those points are
      deleted (scanning backward from the terminator). *)

type config = {
  strength : int;
  precision : Alias.precision;
  use_call_summaries : bool;
}

val default_config : config

val run : config -> Meminfo.t -> is_main:bool -> Dce_ir.Ir.func -> Dce_ir.Ir.func
