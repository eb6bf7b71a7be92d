(** Removal of unreferenced [static] functions (and their frame symbols).

    Roots are [main], every non-static function (another translation unit may
    call them), and any function whose name is... referenced is impossible in
    MiniC (no function pointers), so reachability over direct calls suffices.
    Eliminating an unreachable static function also eliminates every marker in
    its body — the interprocedural dimension of the paper's Table 2 numbers
    (e.g. Listing 9b, where GCC leaves an entire dead static function's call
    chain behind). *)

val run : Dce_ir.Ir.program -> Dce_ir.Ir.program
