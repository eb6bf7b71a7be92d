(** Control-flow-graph queries over {!Ir.func}.

    All results are computed fresh from the function (no caching), so they are
    always consistent with the blocks passed in; passes recompute them after
    mutation. *)

val predecessors : Ir.func -> Ir.label list Ir.Imap.t
(** Map from each block to its predecessor labels (in increasing label
    order). Blocks with no predecessors map to [[]]. *)

val reachable : Ir.func -> Ir.Iset.t
(** Labels reachable from the entry block. *)

val reverse_postorder : Ir.func -> Ir.label list
(** Reverse postorder of the reachable blocks, starting at the entry. *)

val postorder : Ir.func -> Ir.label list

val remove_unreachable_blocks : Ir.func -> Ir.func
(** Drops blocks not reachable from the entry and removes the corresponding
    arguments from phi nodes in the remaining blocks. Phis left with a single
    argument are rewritten to plain copies. *)

val prune_phi_args : Ir.func -> Ir.func
(** Drops phi arguments whose predecessor edge no longer exists (passes that
    fold branches to jumps call this to restore the phi/CFG invariant).
    Single-argument phis become copies, re-ordered below the remaining phis
    so the phis-first block invariant holds — in every block, pruned or not,
    so a caller that turned phis into copies gets them re-ordered too.
    Returns the function itself when it changes nothing. *)

val prune_phi_args_with : Ir.label list Ir.Imap.t -> Ir.func -> Ir.func
(** [prune_phi_args_with preds fn] is [prune_phi_args fn] for a caller that
    already holds [predecessors fn]. *)

val normalize_phi_prefix : Ir.block -> Ir.block
(** Stable-partitions instructions so phis form the block prefix again —
    required after converting individual phis to plain copies.  A block
    already in that order is returned itself. *)
