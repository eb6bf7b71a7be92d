(** Value numbering: copy propagation, dominator-scoped CSE of pure
    expressions, and block-local store-to-load forwarding.

    Forwarding is deliberately block-local (real compilers use MemorySSA;
    here, {!Simplify_cfg}'s block merging plus {!Memcp}'s global constant
    dataflow recover most of the cross-block cases).  This is one of the
    places where pipelines differ: a compiler that unrolls and merges blocks
    before running this pass folds array initialization loops (paper Listing
    9e); one that runs a vectorizer first does not. *)

type config = {
  cse : bool;                  (** dominator-scoped common subexpressions *)
  load_forward : bool;         (** store-to-load and load-to-load forwarding *)
  precision : Alias.precision;
  use_call_summaries : bool;   (** only clobber a callee's mod/ref sets *)
}

val default_config : config

val run :
  ?dom:(unit -> Dce_ir.Dom.t) -> config -> Meminfo.t -> Dce_ir.Ir.func -> Dce_ir.Ir.func
(** [dom], when provided, supplies a (possibly cached) dominator tree for the
    input function instead of recomputing one for the CSE walk. *)
