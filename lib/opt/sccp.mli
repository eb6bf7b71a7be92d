(** Sparse conditional constant propagation over SSA.

    Tracks a constant lattice per register — integers {e and} address
    constants ([&sym + k]) — along only the CFG edges proven executable, so
    constants that hold on every feasible path fold even through joins.
    Branches whose condition becomes constant are rewritten to jumps (the
    unreachable side is left for {!Simplify_cfg} to delete — which is what
    ultimately removes dead markers).

    Configuration knobs model documented compiler asymmetries:
    - [addr_cmp] — how pointer equalities fold.  [Cmp_zero_only] reproduces
      LLVM's EarlyCSE blind spot from Listing 3: [&a == &b\[1\]] is not
      simplified although [&a == &b\[0\]] is;
    - [gva_mode] — which loads of globals fold to their initializers
      (see {!Gva}).

    The pass bails out on functions with more than {!block_limit} blocks (a
    real-compiler cost cap; regressions in the paper's Listing 7/8a style
    arise when an earlier pass duplicates code past such a cap). *)

type addr_cmp =
  | Cmp_none       (** never fold pointer comparisons *)
  | Cmp_zero_only  (** fold only when both element offsets are zero *)
  | Cmp_full       (** fold all compile-time address comparisons *)

type config = {
  addr_cmp : addr_cmp;
  gva_mode : Gva.mode;
}

val default_config : config
(** [Cmp_full], [Flow_insensitive]. *)

val block_limit : int
(** 512: functions with more blocks are returned unchanged. *)

val run : config -> Meminfo.t -> Dce_ir.Ir.func -> Dce_ir.Ir.func
(** One SCCP round: analyze and rewrite. Idempotent up to newly exposed
    simplifications from other passes. *)
