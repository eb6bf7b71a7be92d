open Dce_minic
open Ast

type result = {
  program : program;
  tests_run : int;
  rounds : int;
  initial_size : int;
  final_size : int;
}

(* The public entry point delegates to the engine at jobs = 1 with the
   verdict cache off: with an opaque predicate the caller may be counting
   calls, so every charged candidate must reach it, exactly as before. *)
let reduce ?(max_tests = 4000) ~predicate prog =
  let r = Engine.reduce ~max_tests ~jobs:1 ~cache:false ~predicate:(Predicate.of_fun predicate) prog in
  {
    program = r.Engine.program;
    tests_run = r.Engine.tests_run;
    rounds = r.Engine.rounds;
    initial_size = r.Engine.initial_size;
    final_size = r.Engine.final_size;
  }

let marker_diff_predicate ~keep_missed_by ~eliminated_by ~marker prog =
  match Dce_core.Ground_truth.compute prog with
  | Dce_core.Ground_truth.Rejected _ -> false
  | Dce_core.Ground_truth.Valid truth ->
    Dce_ir.Ir.Iset.mem marker truth.Dce_core.Ground_truth.dead
    &&
    let survives cfg = Dce_ir.Ir.Iset.mem marker (Dce_core.Differential.surviving cfg prog) in
    survives keep_missed_by && not (survives eliminated_by)
