(** Corpus-level aggregation: the numbers behind every table in §4.

    Collects per-program {!Dce_core.Analysis.t} results and produces the
    paper's aggregates: dead-block prevalence (§4.1), the per-level missed and
    primary-missed percentages (Tables 1/2), the compiler-vs-compiler
    differential at -O3, and the level-vs-level differentials (§4.2). *)

type config_totals = {
  ct_compiler : string;
  ct_level : Dce_compiler.Level.t;
  ct_missed : int;
  ct_primary : int;
}

type diff_pair = {
  left : string;            (** configuration that misses *)
  right : string;           (** configuration that eliminates *)
  only_left_misses : int;   (** markers left keeps and right eliminates *)
  only_left_primary : int;
}

(** a marker one configuration misses while another eliminates it, with
    enough context to reduce/bisect/report it later *)
type finding = {
  f_program : int;  (** corpus index *)
  f_marker : int;
  f_compiler : string;
  f_level : Dce_compiler.Level.t;
  f_witness : string;  (** the configuration that eliminated it *)
  f_primary : bool;
}

(** markers a pipeline stage eliminated, aggregated over the corpus from
    the {!Dce_compiler.Passmgr} stage traces *)
type pass_totals = {
  pt_compiler : string;
  pt_level : Dce_compiler.Level.t;
  pt_stage : string;
  pt_markers : int;
}

type t = {
  programs : int;
  rejected : int;
  total_markers : int;
  alive_markers : int;
  dead_markers : int;
  per_config : config_totals list;
  per_pass : pass_totals list;
      (** per configuration, markers eliminated per stage, largest first *)
  cross_compiler : diff_pair list;   (** both directions at -O3 *)
  level_regressions : diff_pair list;
      (** per compiler: missed at -O3 but eliminated at -O1 or -O2 *)
  findings : finding list;           (** cross-compiler O3 findings *)
  regression_findings : finding list;(** level-vs-level findings *)
}

val collect : (Dce_core.Analysis.outcome * Dce_minic.Ast.program) list -> t
(** Input: analysis outcomes paired with the raw (uninstrumented) programs,
    in corpus order. *)

val collect_indexed :
  (int * (Dce_core.Analysis.outcome * Dce_minic.Ast.program)) list -> t
(** Like {!collect} with explicit corpus indices (used as [f_program] in
    findings), so quarantined (crashed) campaign cases simply leave holes
    in the numbering. *)

val table1 : t -> string
(** "% dead blocks that are missed", per level per compiler. *)

val table2 : t -> string
(** "% dead blocks that are primary missed". *)

val prevalence : t -> string
(** One-paragraph §4.1 summary. *)

val differential_summary : t -> string
(** §4.2 numbers: cross-compiler and cross-level missed counts. *)

val attribution_table : ?level:Dce_compiler.Level.t -> t -> string
(** Markers eliminated per pipeline stage per compiler at [level] (default
    -O3), most productive stage first. *)
