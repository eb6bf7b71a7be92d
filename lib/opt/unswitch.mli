(** Loop unswitching (with a LICM-lite prepass).

    Hoists loop-invariant branches out of loops by cloning the loop: a
    dispatch block tests the invariant condition once and enters either a copy
    in which the branch is pinned true or one in which it is pinned false.
    The LICM prepass hoists invariant pure definitions — including loads that
    no store or call in the loop can clobber (alias oracle + mod summaries) —
    into the preheader, which is what makes conditions like [if (b)] inside
    [while (a) while (c) …] (paper Listing 7) invariant in the first place.

    Unswitching is enabled only at the highest optimization levels and is the
    paper's canonical O3-only regression source: it duplicates every block of
    the loop, and any later pass with a block-count budget (see {!Memcp},
    {!Sccp}) may now bail out where it previously folded.

    Only loops of at most 80 instructions are unswitched, at most 4 times
    per function. *)

type config = { precision : Alias.precision }

val default_config : config

val run : config -> Meminfo.t -> Dce_ir.Ir.func -> Dce_ir.Ir.func
