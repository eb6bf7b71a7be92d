(** CFG cleanup: the pass that physically deletes dead blocks.

    Iterates to a fixpoint over:
    - folding branches whose condition is a constant (following only
      copy chains — this is the "front-end DCE" even [-O0] performs in the
      paper's Table 1; deeper folding needs {!Sccp});
    - deleting unreachable blocks (this is where markers disappear);
    - collapsing [Br c, L, L] into [Jmp L];
    - merging a block into its unique [Jmp] predecessor;
    - short-circuiting empty forwarding blocks;
    - replacing single-source phis with copies.

    Phi nodes are kept consistent throughout (arguments are dropped, renamed,
    or converted to copies as edges change). *)

val run : Dce_ir.Ir.func -> Dce_ir.Ir.func
