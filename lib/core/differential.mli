(** Differential testing over surviving markers (paper steps ②–③).

    A configuration is a (compiler, level) pair; its result on an instrumented
    program is the set of markers surviving in the generated assembly.
    Missed-opportunity sets are plain set differences, optionally filtered by
    ground truth (our compilers are verified sound — they never eliminate an
    alive marker — so the filter is a safety net, not a correction). *)

type config = {
  compiler : Dce_compiler.Compiler.t;
  level : Dce_compiler.Level.t;
  version : int option;  (** [None] = HEAD *)
}

val config_name : config -> string
(** e.g. ["gcc-sim -O3"] or ["llvm-sim -O2 @v17"]. *)

val surviving : ?validate:bool -> config -> Dce_minic.Ast.program -> Dce_ir.Ir.Iset.t
(** Compile the instrumented program in a fresh session and scan the
    assembly.  [validate] (default false) checks the IR after every pass,
    raising {!Dce_compiler.Passmgr.Ir_invalid} naming the guilty stage. *)

val markers_in : Dce_ir.Ir.program -> Dce_ir.Ir.Iset.t
(** The markers surviving in the assembly of an optimized program (from
    {!Dce_compiler.Compiler.run}): codegen, then the marker scan. *)

val missed :
  surviving:Dce_ir.Ir.Iset.t -> dead:Dce_ir.Ir.Iset.t -> Dce_ir.Ir.Iset.t
(** Markers the configuration kept although they are dead. *)

val semantics_preserved : Dce_ir.Ir.program -> Dce_ir.Ir.program -> bool
(** Whether two IR programs (e.g. before/after a transformation) are
    observationally equivalent — same outcome, same event sequence — when
    executed.  This is {!Dce_interp.Interp.equivalent} routed through the
    shared executor {!Dce_exec.Exec.run}. *)

val semantics_preserved_strict : Dce_ir.Ir.program -> Dce_ir.Ir.program -> bool
(** {!semantics_preserved} plus identical final global memory. *)

val missed_vs_other :
  mine:Dce_ir.Ir.Iset.t -> other:Dce_ir.Ir.Iset.t -> Dce_ir.Ir.Iset.t
(** Paper §3.1: markers I keep that the other configuration eliminates —
    feasibly missed opportunities for me. *)

(** {1 Code-size oracle}

    The marker lens is binary; the assembly also has a measurable size
    ({!Dce_backend.Asm.size}).  At [-Os] size {e is} the contract, so two
    regression classes fall out: one compiler's [-Os] output significantly
    larger than the other's (cross, with a configurable ratio threshold), and
    a compiler's [-Os] output larger than its {e own} [-O2] (intra — a
    self-evident miss needing no second compiler).  Sizes are compiled in a
    cached session, so one compile per (config, program) answers every
    cached session in the process that asks for it; the marker hunt
    ({!Analysis.run}) compiles uncached and shares none of them. *)

val size_curve :
  compilers:Dce_compiler.Compiler.t list ->
  Dce_minic.Ast.program ->
  (string * Dce_compiler.Level.t * int) list
(** Size of every (compiler, level) cell at HEAD for the levels the size
    oracle needs, [[-Os; -O2]], in that order per compiler.  This
    is the complete input of {!size_findings_of} — journaling the curve lets
    findings be re-derived (even re-thresholded) without recompiling. *)

type size_finding =
  | Size_cross of {
      level : Dce_compiler.Level.t;
      larger : string;
      larger_size : int;
      smaller : string;
      smaller_size : int;
    }
      (** At [level] (always [-Os] today), [larger]'s output is at least
          [ratio] times [smaller]'s. *)
  | Size_intra of { compiler : string; os_size : int; o2_size : int }
      (** [compiler]'s [-Os] output is strictly larger than its own [-O2]. *)

val size_ratio : size_finding -> float
(** Larger-over-smaller ratio of the finding (triage histogram bucket key). *)

val size_findings_of : ?ratio:float -> (string * Dce_compiler.Level.t * int) list -> size_finding list
(** Pure: derive findings from a size curve.  Cross fires when
    [larger > smaller && larger >= ratio *. smaller] (default ratio 1.25), at
    most once per compiler pair, deterministically ordered (curve order,
    cross before intra).  Intra fires on any strict [-Os] > [-O2] excess. *)

(** {1 Level-inversion oracle}

    Within one compiler, a marker eliminated at a weaker level but surviving
    at a stronger one is a regression of the stronger pipeline — the class
    the paper's Table 3/4 aggregates; here each inversion is a first-class
    finding the reducer and bisector can chase. *)

type inversion = {
  iv_marker : int;
  iv_low : Dce_compiler.Level.t;  (** weakest level that eliminates the marker *)
  iv_high : Dce_compiler.Level.t;  (** strongest level that keeps it *)
}

val inversions :
  dead:Dce_ir.Ir.Iset.t -> (Dce_compiler.Level.t * Dce_ir.Ir.Iset.t) list -> inversion list
(** Pure: given per-level surviving sets of one compiler and the ground-truth
    dead set, return every dead marker with
    [rank (weakest eliminating level) < rank (strongest keeping level)],
    ascending by marker id. *)
