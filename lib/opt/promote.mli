(** Loop memory-to-register promotion (LICM scalar promotion).

    Loop counters in C test programs are frequently globals
    ([for (b = 0; b < 2; b++)] in the paper's Listing 9e); without promotion
    the unroller cannot compute trip counts because the induction variable
    lives in memory.  This pass gives each promotable cell a register view:

    - a preheader load of the cell,
    - a header phi merging the preheader value with the value of the last
      store of the previous iteration,
    - every in-loop load of the cell replaced by the register value current
      at that point.

    Stores are {e kept} (memory stays exact; DSE may delete them later), so
    the transformation needs no sinking and is trivially sound.

    A cell [(sym, off)] is promotable in a loop when every in-loop access to
    [sym] resolves to a constant offset, every store to the cell sits in a
    block dominating the latch (executed exactly once per iteration), and no
    call/marker/unknown access in the loop may touch [sym]. *)

type config = { precision : Alias.precision }

val run : config -> Meminfo.t -> Dce_ir.Ir.func -> Dce_ir.Ir.func
