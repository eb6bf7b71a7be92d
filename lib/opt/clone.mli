(** Cloning of block regions with fresh labels and registers — the shared
    mechanical core of inlining, loop unrolling, unswitching, and aggressive
    jump threading.

    Cloned blocks are added to the function but not linked: callers rewire
    terminators and patch phis afterwards.  Within the cloned region, defined
    registers are renamed fresh and uses of region-internal definitions follow
    the renaming; uses of outside definitions (and phi arguments from outside
    predecessors) are left untouched. *)

type maps = {
  label_map : Dce_ir.Ir.label Dce_ir.Ir.Imap.t;  (** original → clone *)
  var_map : Dce_ir.Ir.var Dce_ir.Ir.Imap.t;      (** original → clone *)
}

val map_label : maps -> Dce_ir.Ir.label -> Dce_ir.Ir.label
(** Identity outside the cloned region. *)

val map_var : maps -> Dce_ir.Ir.var -> Dce_ir.Ir.var

val map_operand : maps -> Dce_ir.Ir.operand -> Dce_ir.Ir.operand

val clone_region : Dce_ir.Ir.func -> Dce_ir.Ir.Iset.t -> Dce_ir.Ir.func * maps
(** [clone_region fn region] adds a renamed copy of every block in [region]
    to [fn]. *)
