(** The feature matrix of a simulated compiler configuration.

    A value of this type fully determines the optimization pipeline
    {!Pipeline.run} executes.  Both simulated compilers are defined as a
    primitive base plus a commit history editing one of these records per
    level ({!Version}); differences between the two compilers' HEAD matrices
    are the deliberate asymmetries cataloged in DESIGN.md §4. *)

type t = {
  (* register constant propagation *)
  sccp : bool;
  addr_cmp : Dce_opt.Sccp.addr_cmp;
      (** pointer-comparison folding precision (Listing 3's EarlyCSE gap) *)
  gva : Dce_opt.Gva.mode;
      (** global-value-analysis tier (Listings 4/6a asymmetry) *)
  (* memory *)
  memcp : bool;
  memcp_edge_aware : bool;
  uniform_arrays : bool;  (** fold loads from uniform constant arrays (9f) *)
  call_summaries : bool;
  gvn_cse : bool;
  gvn_forward : bool;
  alias : Dce_opt.Alias.precision;
  dse_strength : int;
  (* interprocedural *)
  ipa_cp : bool;  (** interprocedural constant propagation of arguments *)
  inline_threshold : int;  (** 0 disables inlining *)
  function_dce : bool;
  function_dce_early : bool;
      (** run unreachable-function removal before late folding (Listing 9b) *)
  (* loops *)
  unroll_trip : int;       (** 0 disables full unrolling *)
  unswitch : bool;
  vectorize : bool;
  (* scalar cleanups *)
  peephole_level : int;
  vrp : bool;
  vrp_shift_rule : bool;
  vrp_mod_singleton : bool;
  vrp_block_limit : int;  (** VRP cost budget: larger functions are skipped *)
  jump_thread : Dce_opt.Jump_thread.mode;
  (* pipeline *)
  opt_rounds : int;  (** main analyze/fold round repetitions *)
}

val nothing : t
(** Everything off — the primitive base every history starts from (also the
    O0 configuration of both compilers). *)

val describe : t -> string
(** One-line summary used by the CLI's [--explain]. *)
