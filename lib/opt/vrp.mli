(** Value range propagation.

    Computes integer intervals per SSA register (RPO iteration with widening)
    and refines them with dominating branch conditions (a register's value
    never changes in SSA, so a condition tested on a dominating edge holds
    everywhere below it).  Comparisons whose operand ranges decide them fold
    to constants; branches whose condition range excludes (or is exactly) zero
    fold to jumps.

    Rule flags correspond to individually reported paper bugs:
    - [shift_rule] — refine through shifts: on an edge where [x << y != 0]
      holds, conclude [x != 0] (GCC bug 102546 / Listing 9a; fixed upstream by
      5f9ccf17de7, modeled here as a fix commit);
    - [mod_singleton] — ranges of the form [\[x,x\] % \[y,y\]] evaluate
      exactly (LLVM bug 49731 / Listing 8b; fixed by 611a02cce509). *)

type config = {
  shift_rule : bool;
  mod_singleton : bool;
  block_limit : int;
}

val default_config : config

val run :
  ?dom:(unit -> Dce_ir.Dom.t) ->
  ?preds:(unit -> Dce_ir.Ir.label list Dce_ir.Ir.Imap.t) ->
  config ->
  Dce_ir.Ir.func ->
  Dce_ir.Ir.func
(** [dom]/[preds], when provided, supply (possibly cached) CFG analyses for
    the input function instead of recomputing them. *)
