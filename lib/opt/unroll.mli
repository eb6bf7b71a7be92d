(** Full unrolling of counted loops.

    Eligible loops have a single preheader edge, a single latch, and exit only
    through the header.  The trip count is obtained by {e exact symbolic
    execution} of the header-phi update chain (registers only, pure operators
    with MiniC's total semantics) — if every header phi starts from constants
    and evolves through pure register arithmetic, simulating the loop is exact
    no matter what stores/calls the body performs, because memory never feeds
    back into the chain (a load in the chain disqualifies the loop).

    Unrolled iterations are cloned copies chained latch→next-header; header
    phis become plain copies; the conditions inside the copies become constant
    and {!Sccp}/{!Simplify_cfg} erase them.  Unrolling is what exposes
    array-initialization results to store-to-load forwarding (paper Listing
    9e's -O1 behaviour).

    Only loop bodies of at most 64 instructions are unrolled, and a run adds
    at most [200 + 30 * max_trip] instructions to a function. *)

type config = {
  max_trip : int;      (** maximum iterations to fully unroll *)
}

val default_config : config

val run : config -> Dce_ir.Ir.func -> Dce_ir.Ir.func

(** {1 Shared loop legality machinery (also used by the vectorizer model)} *)

val eligible : Dce_ir.Ir.func -> Dce_ir.Loops.loop -> bool
(** Single preheader edge, single latch, exits only through the header. *)

val trip_count : max_trip:int -> Dce_ir.Ir.func -> Dce_ir.Loops.loop -> int option
(** Exact trip count by symbolic execution of the phi update chain, or [None]
    when the chain is not pure-register or exceeds [max_trip]. *)
