(* Value-check instrumentation (the paper's §4.4 "future directions" mode,
   implemented): manufacture dead blocks by planting profiled value checks
   after loops, then see which configurations can prove them.

     dune exec examples/value_checks.exe *)

module C = Dce_compiler
module Core = Dce_core

let source =
  {|
static int total;
int main(void) {
  int i;
  int fib0 = 0;
  int fib1 = 1;
  for (i = 0; i < 10; i++) {
    int next = fib0 + fib1;
    fib0 = fib1;
    fib1 = next;
  }
  total = 0;
  for (i = 1; i <= 12; i = i + 2) {
    total = total + i;
  }
  use(fib1);
  use(total);
  return 0;
}
|}

let () =
  let prog = Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program source) in
  match Core.Value_instrument.instrument prog with
  | None -> print_endline "profiling failed"
  | Some (instrumented, stats) ->
    Printf.printf "%d probe positions, %d stable value checks planted:\n\n"
      stats.Core.Value_instrument.probes_inserted stats.Core.Value_instrument.checks_planted;
    print_string (Dce_minic.Pretty.program_to_string instrumented);
    print_newline ();

    (* every check is dead by construction — verify via ground truth *)
    (match Core.Ground_truth.compute instrumented with
     | Core.Ground_truth.Valid t ->
       assert (Dce_ir.Ir.Iset.is_empty t.Core.Ground_truth.alive);
       Printf.printf "ground truth confirms: all %d checks dead\n"
         (Dce_ir.Ir.Iset.cardinal t.Core.Ground_truth.all)
     | Core.Ground_truth.Rejected r -> failwith r);

    (* which configurations compute the loop results? *)
    print_endline "\nsurviving value checks per configuration:";
    let session = C.Compiler.session instrumented in
    List.iter
      (fun compiler ->
        List.iter
          (fun level ->
            let surv = (C.Compiler.observe session compiler level).C.Compiler.obs_markers in
            Printf.printf "  %-9s %-4s keeps %d check(s) {%s}\n" compiler.C.Compiler.name
              (C.Level.to_string level) (List.length surv)
              (String.concat "," (List.map string_of_int surv)))
          C.Level.all)
      [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ];
    print_endline
      "\n(-O2's full unrolling computes the Fibonacci and sum results; lower levels cannot,";
    print_endline
      " so the checks expose exactly the scalar-evolution gap the paper's §4.4 describes.";
    print_endline
      " note gcc-sim -O3 keeping a check that -O2 proves: the value-check mode finds the";
    print_endline
      " same -O3 regressions the block markers do — try bisecting it with dce_hunt)"
