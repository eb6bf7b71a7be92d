(** End-to-end analysis of one test case: the paper's full Figure-1 pipeline
    on a single program, producing everything the evaluation aggregates.

    Instrument → ground truth by execution → compile with both compilers at
    all five levels → surviving-marker sets → missed / primary-missed sets
    per configuration.  One uncached {!Dce_compiler.Compiler.session} per
    case lowers the instrumented program once, for the primary graph and for
    every configuration, and the configurations share its stage memo. *)

type per_config = {
  cfg_compiler : string;
  cfg_level : Dce_compiler.Level.t;
  surviving : Dce_ir.Ir.Iset.t;
  missed : Dce_ir.Ir.Iset.t;          (** surviving ∩ dead *)
  primary_missed : Dce_ir.Ir.Iset.t;
  cfg_trace : Dce_compiler.Passmgr.trace;
      (** pipeline stage trace of this compile: which pass eliminated which
          marker, with timing and IR deltas *)
}

type t = {
  instrumented : Dce_minic.Ast.program;
  truth : Ground_truth.t;
  graph : Primary.t;
  configs : per_config list;  (** both compilers × all levels *)
}

type outcome =
  | Analyzed of t
  | Rejected of string  (** ground truth rejected the program *)

type phase_hook = { wrap : 'a. string -> (unit -> 'a) -> 'a }
(** Observation hook around each pipeline phase of {!run}: called with the
    phase name ("instrument", "ground-truth", "primary-graph", or
    "differential") and the thunk computing that phase.  The campaign engine
    uses it to time phases and to attribute per-case faults to the guilty
    stage; the default hook just runs the thunk. *)

val default_compilers : Dce_compiler.Compiler.t list
(** Both simulated compilers at HEAD: [[gcc-sim; llvm-sim]]. *)

val compiler_of_name : string -> Dce_compiler.Compiler.t
(** The default compiler whose name is [name] (["gcc-sim"] or
    ["llvm-sim"]): the one way back from a name carried by a report, a
    finding or a journal record to its compiler.  Raises [Failure] on any
    other name. *)

val run :
  ?checked:bool ->
  ?hook:phase_hook ->
  Dce_minic.Ast.program ->
  outcome
(** [run raw_program] — the program must be uninstrumented and type-checked.
    Runs both simulated compilers at HEAD at all five levels.  [checked]
    (default false) validates the IR after every optimization pass during the
    differential phase, raising {!Dce_compiler.Passmgr.Ir_invalid} naming the
    guilty pass — the campaign engine quarantines that as a distinct
    [Ir_invalid] fault. *)

val find_config : t -> string -> Dce_compiler.Level.t -> per_config option

val soundness_violations : t -> (string * Dce_compiler.Level.t * int) list
(** Markers a configuration eliminated although they are {e alive} — must be
    empty for correct compilers; checked by the test suite on every corpus
    program. *)
