(* The pre-engine sequential reducer, kept verbatim as a differential
   oracle: the test suite asserts the reduction engine (at any jobs/cache
   setting) reproduces its exact results over a seeded corpus.  Note it
   generates no-op statement edits the engine's candidate stream skips —
   they can never be charged (the strict-shrink size filter rejects them),
   which is precisely the equivalence the tests check. *)

open Dce_minic
open Ast
module Edits = Dce_reduce.Edits

let reference_candidates prog =
  let n = stmt_count prog in
  let stmt_edits =
    List.concat_map
      (fun edit_kind ->
        List.init n (fun i ->
            lazy
              (Edits.edit_nth prog i (fun s ->
                   match (edit_kind, s) with
                   | `Delete, _ -> []
                   | `Unwrap, Sif (_, bt, []) -> bt
                   | `Unwrap, Sif (_, bt, bf) -> if bt = [] then bf else bt
                   | `Unwrap, Swhile (_, b) -> b
                   | `Unwrap, Sfor (_, _, _, b) -> b
                   | `Unwrap, Sswitch (_, cases, dflt) -> List.concat_map snd cases @ dflt
                   | `Unwrap, Sblock b -> b
                   | `Unwrap, _ -> [ s ]
                   | `Cond_false, Sif (_, bt, bf) -> [ Sif (Int 0, bt, bf) ]
                   | `Cond_false, Swhile (_, b) -> [ Swhile (Int 0, b) ]
                   | `Cond_false, _ -> [ s ]
                   | `Cond_true, Sif (_, bt, bf) -> [ Sif (Int 1, bt, bf) ]
                   | `Cond_true, _ -> [ s ]))))
      [ `Delete; `Unwrap; `Cond_false; `Cond_true ]
  in
  let func_edits =
    List.filter_map
      (fun fn ->
        if fn.f_name = "main" then None
        else
          Some
            (lazy { prog with p_funcs = List.filter (fun f -> f.f_name <> fn.f_name) prog.p_funcs }))
      prog.p_funcs
  in
  let global_edits =
    List.map
      (fun g ->
        lazy { prog with p_globals = List.filter (fun g' -> g'.g_name <> g.g_name) prog.p_globals })
      prog.p_globals
  in
  Edits.chunk_candidates prog @ func_edits @ global_edits @ stmt_edits

let reduce ?(max_tests = 4000) ~predicate prog : Dce_reduce.Reduce.result =
  if not (predicate prog) then
    invalid_arg "Reduce.reduce: initial program does not satisfy the predicate";
  let tests = ref 0 in
  let initial_size = Edits.count_stmts prog in
  let check candidate =
    if !tests >= max_tests then false
    else begin
      incr tests;
      match Typecheck.check candidate with
      | Ok normalized -> predicate normalized
      | Error _ -> false
    end
  in
  let rec fixpoint prog rounds =
    if !tests >= max_tests then (prog, rounds)
    else begin
      let accepted = ref None in
      let cands = reference_candidates prog in
      let rec try_all = function
        | [] -> ()
        | c :: rest ->
          if !accepted = None && !tests < max_tests then begin
            let candidate = Lazy.force c in
            (* only consider candidates that are actually smaller or equal
               with structural change *)
            if Edits.count_stmts candidate < Edits.count_stmts prog && check candidate then
              accepted := Some candidate
            else try_all rest
          end
      in
      try_all cands;
      match !accepted with
      | Some next -> fixpoint next (rounds + 1)
      | None -> (prog, rounds)
    end
  in
  let final, rounds = fixpoint prog 0 in
  {
    Dce_reduce.Reduce.program = final;
    tests_run = !tests;
    rounds;
    initial_size;
    final_size = Edits.count_stmts final;
  }
