(* Every reduced test case from the paper (Listings 3, 4, 6, 7, 8, 9, kept
   in {!Dce_core.Listings}) run against the simulated compilers.  For each
   listing we assert the same qualitative outcome the paper reports: which
   compiler eliminates the dead call/marker, which one misses it, and at
   which optimization levels.

     dune exec examples/paper_listings.exe *)

module C = Dce_compiler
module Core = Dce_core

let failures = ref 0

let check { Core.Listings.name = listing; src; expect } =
  let prog = Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program src) in
  let session = C.Compiler.session prog in
  List.iter
    (fun (comp_name, level, marker, expect_eliminated, note) ->
      let compiler = if comp_name = "gcc" then C.Gcc_sim.compiler else C.Llvm_sim.compiler in
      let surviving = (C.Compiler.observe session compiler level).C.Compiler.obs_markers in
      let eliminated = not (List.mem marker surviving) in
      let verdict = if eliminated = expect_eliminated then "ok " else "FAIL" in
      if eliminated <> expect_eliminated then incr failures;
      Printf.printf "%s  %-12s %-8s %-4s marker %d %s (%s)\n" verdict listing comp_name
        (C.Level.to_string level) marker
        (if eliminated then "eliminated" else "kept")
        note)
    expect

let () =
  List.iter check Core.Listings.all;
  Printf.printf "\n%s\n"
    (if !failures = 0 then "all paper listings reproduce their reported behaviour"
     else Printf.sprintf "%d listing expectations FAILED" !failures);
  exit (if !failures = 0 then 0 else 1)
