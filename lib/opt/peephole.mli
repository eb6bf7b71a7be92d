(** Peephole simplification / instruction combining.

    Pattern-rewrites single definitions by looking through the SSA definitions
    of their operands.  The available rule set grows with [level], so commits
    in the simulated histories can add (or remove — regressions) individual
    rules, which is how the paper's "Peephole Optimizations" component rows in
    Tables 3/4 arise here.

    - level 1: algebraic identities ([x+0], [x*0], [x^x], [x==x], double
      negation, …);
    - level 2: constant reassociation ([ (x+c1)+c2 → x+(c1+c2) ]),
      comparison-of-comparison cleanups ([ (x<y) != 0 → x<y ]), branch-on-not
      target swapping;
    - level 3: comparison strength reduction through additions
      ([ x+c1 == c2 → x == c2-c1 ]) and selected bit tricks. *)

type config = { level : int }

val default_config : config

val run : config -> Dce_ir.Ir.func -> Dce_ir.Ir.func
