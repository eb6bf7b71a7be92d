(* Tests for the value-check instrumentation extension (paper §4.4). *)

open Helpers
module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Ast = Dce_minic.Ast

let value_instr src =
  match Core.Value_instrument.instrument (parse src) with
  | Some r -> r
  | None -> Alcotest.fail "profiling failed"

let surviving_markers compiler level prog =
  markers_of compiler level prog

let test_plants_loop_sum_check () =
  let prog, stats = value_instr {|
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 8; i++) { s = s + i; }
  use(s);
  return 0;
}
|} in
  Alcotest.(check bool) "probes inserted" true (stats.Core.Value_instrument.probes_inserted >= 2);
  Alcotest.(check bool) "checks planted" true (stats.Core.Value_instrument.checks_planted >= 2);
  (* the planted checks mention the profiled constants: s = 28, i = 8 *)
  let text = Dce_minic.Pretty.program_to_string prog in
  Alcotest.(check bool) "s != 28 check" true (contains text "s != 28");
  Alcotest.(check bool) "i != 8 check" true (contains text "i != 8")

let test_checks_are_dead () =
  let prog, _ = value_instr {|
int g;
int main(void) {
  int i;
  for (i = 0; i < 5; i++) { g = g + 2; }
  use(g);
  return 0;
}
|} in
  match Core.Ground_truth.compute prog with
  | Core.Ground_truth.Valid t ->
    Alcotest.(check iset) "all value checks dead" t.Core.Ground_truth.all
      t.Core.Ground_truth.dead
  | Core.Ground_truth.Rejected r -> Alcotest.failf "rejected: %s" r

let test_unroll_capable_configs_eliminate () =
  let prog, _ = value_instr {|
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 6; i++) { s = s + i; }
  use(s);
  return 0;
}
|} in
  (* -O2 unrolls and computes the sum; -O1 cannot *)
  List.iter
    (fun compiler ->
      Alcotest.(check (list int))
        (compiler.C.Compiler.name ^ " -O2 eliminates all checks")
        []
        (surviving_markers compiler C.Level.O2 prog);
      Alcotest.(check bool)
        (compiler.C.Compiler.name ^ " -O1 misses some check")
        true
        (surviving_markers compiler C.Level.O1 prog <> []))
    [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let test_unstable_values_skipped () =
  (* helper runs twice with different arguments: its loop result is unstable *)
  let _, stats = value_instr {|
static int f(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) { s = s + 1; }
  return s;
}
int main(void) {
  use(f(2));
  use(f(5));
  return 0;
}
|} in
  Alcotest.(check int) "no stable probe" 0 stats.Core.Value_instrument.checks_planted

let test_unexecuted_loops_skipped () =
  let _, stats = value_instr {|
static int x;
int main(void) {
  int s = 0;
  if (x) {
    int i;
    for (i = 0; i < 3; i++) { s = s + 1; }
  }
  use(s);
  return 0;
}
|} in
  Alcotest.(check int) "unexecuted probe plants nothing" 0
    stats.Core.Value_instrument.checks_planted

let test_probe_externs_removed () =
  let prog, _ = value_instr {|
int main(void) {
  int i;
  for (i = 0; i < 3; i++) { use(i); }
  return 0;
}
|} in
  Alcotest.(check bool) "no probe calls remain" false
    (List.mem "__dce_probe" (Ast.called_names prog))

let test_rejects_instrumented_input () =
  let instrumented =
    Core.Instrument.program (parse "int g; int main(void) { if (g) { g = 1; } return 0; }")
  in
  Alcotest.(check bool) "raises" true
    (try ignore (Core.Value_instrument.instrument instrumented); false
     with Invalid_argument _ -> true)

let test_max_checks_cap () =
  let src = {|
int main(void) {
  int a = 0;
  int b = 0;
  int c = 0;
  int i;
  for (i = 0; i < 3; i++) { a = a + 1; }
  for (i = 0; i < 3; i++) { b = b + 1; }
  for (i = 0; i < 3; i++) { c = c + 1; }
  use(a + b + c);
  return 0;
}
|} in
  match Core.Value_instrument.instrument ~max_checks:2 (parse src) with
  | Some (_, stats) ->
    Alcotest.(check int) "capped at 2" 2 stats.Core.Value_instrument.checks_planted
  | None -> Alcotest.fail "profiling failed"

let test_global_counter_checks () =
  (* value checks on a memory loop counter: the counter's final value follows
     from its explicit initialization store (b = 0), so promotion + unrolling
     prove it; the accumulator's final value would additionally require
     assuming the static's initializer at entry — which no configuration may
     do (the Listing 4 rule) — so that check survives everywhere *)
  let prog, stats = value_instr {|
static int b;
static int s;
int main(void) {
  for (b = 0; b < 4; b++) { s = s + b; }
  use(s);
  return 0;
}
|} in
  Alcotest.(check int) "both planted" 2 stats.Core.Value_instrument.checks_planted;
  let survivors = surviving_markers C.Gcc_sim.compiler C.Level.O2 prog in
  Alcotest.(check bool) "counter check (marker 0) eliminated" false (List.mem 0 survivors);
  Alcotest.(check bool) "accumulator check (marker 1) survives" true (List.mem 1 survivors);
  (* the accumulator check is missed by every configuration: a "both miss"
     finding of the value-check mode *)
  Alcotest.(check bool) "llvm misses it too" true
    (List.mem 1 (surviving_markers C.Llvm_sim.compiler C.Level.O3 prog))

let qcheck_tests =
  [
    qtest ~count:15 "value checks are always dead on generated programs"
      QCheck2.Gen.(int_range 1 100000)
      (fun seed ->
        match Core.Value_instrument.instrument (smith_program seed) with
        | None -> true
        | Some (prog, _) -> (
          match Core.Ground_truth.compute prog with
          | Core.Ground_truth.Valid t -> Ir.Iset.is_empty t.Core.Ground_truth.alive
          | Core.Ground_truth.Rejected _ -> false));
    qtest ~count:10 "value instrumentation preserves behaviour"
      QCheck2.Gen.(int_range 1 100000)
      (fun seed ->
        let raw = smith_program seed in
        match Core.Value_instrument.instrument raw with
        | None -> true
        | Some (prog, _) ->
          let strip r =
            {
              r with
              Dce_interp.Interp.events =
                List.filter
                  (function Dce_interp.Interp.Ev_marker _ -> false | _ -> true)
                  r.Dce_interp.Interp.events;
            }
          in
          Dce_interp.Interp.equivalent
            (Dce_interp.Interp.run (Dce_ir.Lower.program raw))
            (strip (Dce_interp.Interp.run (Dce_ir.Lower.program prog))));
  ]

let suite =
  [
    ("plants loop-sum checks", `Quick, test_plants_loop_sum_check);
    ("checks are dead by construction", `Quick, test_checks_are_dead);
    ("unroll-capable configs eliminate", `Quick, test_unroll_capable_configs_eliminate);
    ("unstable values skipped", `Quick, test_unstable_values_skipped);
    ("unexecuted loops skipped", `Quick, test_unexecuted_loops_skipped);
    ("probe calls removed", `Quick, test_probe_externs_removed);
    ("rejects instrumented input", `Quick, test_rejects_instrumented_input);
    ("max-checks cap", `Quick, test_max_checks_cap);
    ("global loop counters", `Quick, test_global_counter_checks);
  ]
  @ qcheck_tests
