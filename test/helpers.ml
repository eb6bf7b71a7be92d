(* Shared helpers for the test suites. *)

module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module I = Dce_interp.Interp

let parse src = Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program src)

let lower src = Dce_ir.Lower.program (parse src)

let run_src ?fuel src = I.run ?fuel (lower src)

let exit_code src =
  match (run_src src).I.outcome with
  | I.Finished n -> n
  | I.Trap m -> Alcotest.failf "trap: %s" m
  | I.Out_of_fuel -> Alcotest.fail "out of fuel"

let iset_of_list l = List.fold_left (fun s x -> Ir.Iset.add x s) Ir.Iset.empty l

let iset = Alcotest.testable
    (fun fmt s ->
      Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (Ir.Iset.elements s))))
    Ir.Iset.equal

let compiler_named = function
  | "gcc" -> C.Gcc_sim.compiler
  | "llvm" -> C.Llvm_sim.compiler
  | other -> Alcotest.failf "unknown compiler %s" other

(* one compile in its own session: the reference a shared session must
   agree with *)
let compile_ir ?version ?validate compiler level prog =
  fst (C.Compiler.run (C.Compiler.session ?validate prog) compiler ?version level)

let markers_of ?version ?validate ?cache compiler level prog =
  (C.Compiler.observe (C.Compiler.session ?validate ?cache prog) compiler ?version level)
    .C.Compiler.obs_markers

let asm_size ?(cache = true) (cfg : Core.Differential.config) prog =
  (C.Compiler.observe (C.Compiler.session ~cache prog) cfg.compiler ?version:cfg.version cfg.level)
    .C.Compiler.obs_size

let surviving ?version comp level src = markers_of (compiler_named comp) ?version level (parse src)

let eliminates ?version comp level marker src =
  not (List.mem marker (surviving ?version comp level src))

(* observable equivalence of a program before and after a transformation,
   executed by the shared executor exactly as campaigns execute programs *)
let check_equivalent ~name original transformed =
  if not (Core.Differential.semantics_preserved original transformed) then
    Alcotest.failf "%s changed observable behaviour" name

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* a generated, valid program from a seed *)
let smith_program seed = fst (Dce_smith.Smith.generate (Dce_smith.Smith.default_config seed))

(* substring containment for assembly/IR text checks *)
let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  n = 0 || go 0

(* [Cfg.predecessors] as it was first written, a fold over the blocks plus
   [List.sort_uniq]: the reference the one-pass table build must agree with *)
let reference_predecessors (fn : Ir.func) =
  let init = Ir.Imap.map (fun _ -> []) fn.Ir.fn_blocks in
  let preds =
    Ir.Imap.fold
      (fun l b acc ->
        List.fold_left
          (fun acc succ ->
            match Ir.Imap.find_opt succ acc with
            | Some ps -> Ir.Imap.add succ (l :: ps) acc
            | None -> acc)
          acc (Ir.successors b.Ir.b_term))
      fn.Ir.fn_blocks init
  in
  Ir.Imap.map (List.sort_uniq compare) preds

let check_predecessors where fn =
  if not (Ir.Imap.equal ( = ) (Dce_ir.Cfg.predecessors fn) (reference_predecessors fn)) then
    Alcotest.failf "%s: %s predecessors differ from the reference" where fn.Ir.fn_name
