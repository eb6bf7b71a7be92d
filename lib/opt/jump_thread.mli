(** Jump threading: forward a predecessor straight to a branch target when
    the branch outcome is already known along that incoming edge (condition is
    a phi with a constant argument for it).

    - [Conservative] (the "old" threader): only threads through empty blocks
      whose sole content is the condition phi, and only into phi-free targets;
    - [Aggressive] (the "new" threader): additionally threads through blocks
      {e with} instructions — including markers — by cloning the block per
      threaded edge.  Cloning through dynamically dead code duplicates
      markers and grows the CFG; combined with the block budgets of later
      constant passes this reproduces the paper's jump-threading regression
      family (Listing 9d).

    Phis left with a single source after threading are resolved to copies.
    Each run threads at most 16 sites per function. *)

type mode = Off | Conservative | Aggressive

type config = { mode : mode }

val default_config : config

val run : config -> Dce_ir.Ir.func -> Dce_ir.Ir.func
