(** Flow-sensitive memory constant propagation.

    A forward dataflow over the cells of every (small enough) symbol.  Extern
    and marker calls clobber the cells unknown pointers may touch (non-static
    globals and escaped symbols); calls to defined functions clobber their
    transitive mod-sets; everything else is tracked precisely.  The entry
    state is all-unknown — a compiler may {e not} assume a global still holds
    its initializer at function entry (that unfounded assumption would "fix"
    the paper's Listings 4 and 6a); constants enter the dataflow from stores.
    Combined with edge-aware propagation this is what lets a compiler fold
    [b = 0; while (a) ... if (b) dead();] (paper Listing 7): the store [b=0]
    dominates the loop and the [if (b)] body never becomes feasible, so the
    marker's clobber of [b] never applies.

    Loads from cells whose dataflow value is a single constant are rewritten
    to that constant.

    Knobs:
    - [use_call_summaries] — with it off, any call clobbers every tracked
      cell (a -O1-strength model); with it on, only the callee's transitive
      mod-set is clobbered.

    Cost caps: functions over 512 blocks are skipped, and only symbols of at
    most 32 cells are tracked.  The block cap models the real compilers' pass
    budgets and is the mechanism behind the unswitching regressions
    (Listings 7, 8a): a loop pass that duplicates blocks can push a function
    past the budget of a later run of this pass. *)

type config = {
  use_call_summaries : bool;
  edge_aware : bool;
      (** SCCP-style conditional propagation: a branch whose condition is a
          register constant or a load of a tracked constant cell only
          propagates state along the feasible edge.  This is what breaks the
          back-edge meet in [while (a) … marker …] when [a] starts 0: the
          body never becomes feasible, so the marker's clobber never reaches
          the header.  Turning it off is the modeled LLVM "unswitching ×
          constant propagation" regression (Listings 7, 8a). *)
  uniform_arrays : bool;
      (** fold a load with an {e unknown} index when every cell of the array
          currently holds the same constant (paper Listing 9f / GCC 99419) *)
  precision : Alias.precision;
      (** below [Full], a store through an unknown pointer clobbers every
          tracked cell, not just the escape-reachable ones *)
}

val default_config : config
(** summaries on, edge-aware, uniform arrays, [Full] precision. *)

val run : config -> Meminfo.t -> Dce_ir.Ir.func -> Dce_ir.Ir.func
(** [run config info] is the pass over the functions of the program [info]
    describes.  Apply it once per program: it builds the symbol-cell table
    then, and returns a function without a load, or over 512 blocks,
    unchanged and without analyzing it. *)
