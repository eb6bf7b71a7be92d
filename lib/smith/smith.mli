(** Smith: the Csmith-analog random MiniC program generator.

    Generated programs have the three properties the paper's methodology
    needs (§4.1): they are {e deterministic}, take {e no input}, and contain
    {e large dead parts} (~90 % of instrumented blocks).  Termination is by
    construction (loops have constant bounds or strictly decreasing local
    counters) and the programs are trap-free on the executed paths
    (array indices are masked to power-of-two sizes, pointers are initialized
    before use), so ground truth by execution almost never rejects.

    Every dead site is planted with a {e challenge kind} describing which
    analysis a compiler needs to prove it dead — constant locals for plain
    SCCP, never-written statics for global value analysis, pointer
    comparisons, aliasing through pointer tables, call chains that need
    inlining, counted loops that need unrolling, ranges, uniform arrays,
    non-static loop guards, switches, and nested (secondary) dead code.  The
    kind weights control the corpus composition and therefore where each
    optimization level's elimination rate lands (paper Tables 1/2). *)

type kind =
  | K_literal             (** [if (0)] / code after return — front-end strength *)
  | K_const_local         (** needs local constant propagation *)
  | K_global_nostore      (** static global never written (GVA, any tier) *)
  | K_global_samestore    (** static global re-written with its initializer *)
  | K_global_diffstore    (** poisoned by a later different store — both compilers miss *)
  | K_addr_cmp            (** [&a == &b\[k\]] pointer-comparison folding *)
  | K_uniform_array       (** load from all-equal constant array, unknown index *)
  | K_inline_chain        (** constant through a chain of static calls *)
  | K_loop_sum            (** needs full unrolling of a counted loop *)
  | K_range               (** needs value-range propagation *)
  | K_shift_range         (** needs the VRP shift rule (Listing 9a family) *)
  | K_alias_table         (** store through a pointer-table load (alias precision) *)
  | K_loop_guard          (** dead loop guarded by a stored-zero non-static global *)
  | K_switch              (** non-taken cases of a constant switch *)
  | K_func_dead           (** whole static function reachable only from dead code *)
  | K_ptr_loop            (** pointer-array fill loop (Listing 9e family) *)
  | K_ipa_arg             (** needs interprocedural argument propagation:
                              a too-big-to-inline callee gated on a constant
                              argument *)
  | K_peep_eq             (** needs the offset-compare instcombine pattern
                              (peephole level 3): [(t+c1) == (t+c2)] *)
  | K_alive               (** an executed block (alive markers) *)

val kind_name : kind -> string
val all_kinds : kind list

type config = {
  seed : int;
  num_sites : int;            (** dead/alive sites in [main] *)
  num_helpers : int;          (** static helper functions *)
  weights : (kind * int) list;(** site-kind sampling weights *)
  max_nest : int;             (** nesting depth of secondary dead code *)
}

val default_config : int -> config
(** [default_config seed] — weights tuned so the corpus reproduces the
    paper's Table 1/2 shape. *)

val generate : config -> Dce_minic.Ast.program * (kind * int) list
(** Returns the (type-checked) program and the count of planted sites per
    kind.  Same config ⇒ identical program. *)

val corpus_seeds : seed:int -> count:int -> int list
(** The per-program seeds [generate_corpus] derives from the master [seed]:
    program [i] of the corpus is exactly
    [generate (default_config (List.nth (corpus_seeds ~seed ~count) i))].
    Lets a parallel campaign regenerate any corpus program from its index. *)

val generate_corpus : seed:int -> count:int -> (Dce_minic.Ast.program * (kind * int) list) list
(** [count] programs from derived seeds. *)
