(** Loop vectorizer model.

    Claims counted store-loops (same legality machinery as {!Unroll}: exact
    trip count through the register chain) and rewrites their stores to go
    through a {e vector index pool}: the element offset is re-materialized as
    a load from the non-static constant array [__vec_pool], exactly as a real
    vectorizer re-materializes index vectors.  The rewritten address chains
    are semantically identical (the pool holds zero) but {e opaque to every
    scalar analysis} — [resolve_addr] sees an unknown offset, so
    store-to-load forwarding and {!Memcp} can no longer prove what the loop
    wrote.

    This reproduces the paper's Listing 9e: GCC at -O1 unrolls and folds
    [c\[b\] = &a\[1\]], proving [!c\[0\]] false; at -O3 the vectorizer gets
    the loop first ("pointer arrays are vectorized as unsigned longs", the
    type mismatch that blocked constant folding), and the dead call stays.

    Claimed loops have a known trip count of 2 to 64, a body of at most 48
    instructions and at least one store. *)

val run : Dce_ir.Ir.program -> Dce_ir.Ir.program
(** Program-level because it may add the [__vec_pool] symbol. *)
