(** Pass registration metadata.

    Every transformation pass declares itself against the pass manager
    ({!Dce_compiler.Passmgr}) with a canonical name, the analyses it
    consumes, and the analyses that remain valid even when the pass reports
    that it changed the IR.  The pass manager uses the declarations to
    decide which cached analysis results to invalidate after a stage runs:

    - an analysis in [preserves] survives the pass {e unconditionally}
      (e.g. {!Dce} deletes instructions but never touches terminators, so
      predecessor maps and dominator trees stay exact);
    - any other analysis survives only when the pass left the IR
      structurally unchanged.

    Declaring [preserves] is a soundness promise: the pass must leave the
    analysis result {e bit-identical} to a fresh recomputation, not merely
    conservatively usable, because the manager's caching must never change
    the pipeline's output. *)

(** The analyses the manager knows how to cache. *)
type analysis =
  | Meminfo
      (** whole-program {!Meminfo.analyze}; the manager looks it up by
          program, so declaring it preserved has no effect *)
  | Cfg          (** per-function predecessor maps *)
  | Dominators   (** per-function dominator trees *)

type t = {
  pass_name : string;        (** canonical name, e.g. ["sccp"] *)
  requires : analysis list;  (** analyses the pass consumes *)
  preserves : analysis list; (** analyses still exact after an IR change *)
}

val v : ?requires:analysis list -> ?preserves:analysis list -> string -> t

val preserves : t -> analysis -> bool
val requires : t -> analysis -> bool

val analysis_name : analysis -> string
