(* Edge cases and regression tests gathered while developing the system:
   each test pins a behaviour that was once wrong or is easy to break. *)

open Helpers
module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Opt = Dce_opt
module I = Dce_interp.Interp

let ssa src = Dce_ir.Ssa.construct_program (lower src)

let main_fn prog =
  match Ir.find_func prog "main" with
  | Some fn -> fn
  | None -> Alcotest.fail "no main"

(* ---- lowering / semantics corners ---- *)

let test_empty_loop_body () =
  Alcotest.(check int) "empty while body terminates via condition" 0
    (exit_code "int main(void) { int i = 3; while (i > 0) { i = i - 1; } return i; }")

let test_for_without_clauses () =
  Alcotest.(check int) "for (;;) with break" 5
    (exit_code {|
int main(void) {
  int i = 0;
  for (;;) { i = i + 1; if (i == 5) { break; } }
  return i;
}
|})

let test_switch_no_default () =
  Alcotest.(check int) "missing default falls through" 9
    (exit_code {|
int main(void) {
  int r = 9;
  switch (7) { case 0: { r = 1; } case 1: { r = 2; } default: { } }
  return r;
}
|})

let test_nested_breaks () =
  Alcotest.(check int) "break exits only the inner loop" 9
    (exit_code {|
int main(void) {
  int i;
  int j;
  int n = 0;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 10; j++) { if (j == 3) { break; } n = n + 1; }
  }
  return n;
}
|})

let test_deep_pointer_chain () =
  Alcotest.(check int) "int ** through globals" 7
    (exit_code {|
int x;
int *p = &x;
int main(void) {
  int **q = &p;
  **q = 7;
  return x;
}
|})

let test_negative_array_index_traps () =
  let r = run_src "int b[2]; int main(void) { int i = 0 - 1; return b[i]; }" in
  Alcotest.(check bool) "negative index traps" true
    (match r.I.outcome with I.Trap _ -> true | _ -> false)

let test_shadowed_global_still_global_elsewhere () =
  Alcotest.(check int) "shadowing is per function" 4
    (exit_code {|
int x = 4;
static int read_global(void) { return x; }
int main(void) { int x = 9; use(x); return read_global(); }
|})

(* ---- pass corners ---- *)

let test_sccp_pointer_relational_same_symbol () =
  let prog = ssa {|
int b[4];
int main(void) {
  if (&b[1] < &b[3]) { use(1); } else { DCEMarker0(); }
  return 0;
}
|} in
  let info = Opt.Meminfo.analyze prog in
  let out = Ir.map_func (Opt.Sccp.run Opt.Sccp.default_config info) prog in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  let markers = Ir.marker_ids (main_fn out) in
  Alcotest.(check (list int)) "else-arm folded away" [] markers

let test_simplify_self_loop_untouched () =
  (* a dynamically-unreachable self loop must not confuse the merger *)
  let prog = lower {|
int main(void) {
  if (0) { while (1) { use(1); } }
  return 0;
}
|} in
  let out = Ir.map_func Opt.Simplify_cfg.run prog in
  Dce_ir.Validate.program_exn Dce_ir.Validate.Pre_ssa out;
  check_equivalent ~name:"self-loop" prog out

let test_unroll_then_unroll_nested () =
  (* both loops of a constant nest unroll and the whole nest folds *)
  let prog = ssa {|
int main(void) {
  int i;
  int j;
  int s = 0;
  for (i = 0; i < 3; i++) { for (j = 0; j < 2; j++) { s = s + 1; } }
  if (s != 6) { DCEMarker0(); }
  return s;
}
|} in
  let feats = C.Compiler.features C.Gcc_sim.compiler C.Level.O2 in
  let out = C.Pipeline.run feats (lower {|
int main(void) {
  int i;
  int j;
  int s = 0;
  for (i = 0; i < 3; i++) { for (j = 0; j < 2; j++) { s = s + 1; } }
  if (s != 6) { DCEMarker0(); }
  return s;
}
|}) in
  ignore prog;
  Alcotest.(check (list int)) "nest fully folded" []
    (Dce_backend.Asm.surviving_markers (Dce_backend.Codegen.program out))

let test_inline_growth_cap () =
  (* a caller already past the growth cap (600 + 12 * threshold = 720
     instructions at threshold 10; each [k = k + h] is a load and an add)
     stops inlining but stays correct *)
  let calls_left n =
    let body = String.concat "\n" (List.init n (fun _ -> "k = k + h;")) in
    let prog =
      ssa
        (Printf.sprintf
           "int h; static int f(int x) { return x + 1; }\n\
            int main(void) { int k = 0;\n%s\nreturn f(f(f(f(k)))); }"
           body)
    in
    let out = Opt.Inline.run { Opt.Inline.threshold = 10 } prog in
    Dce_ir.Validate.program_exn Dce_ir.Validate.Ssa out;
    check_equivalent ~name:"growth cap" prog out;
    let main = main_fn out in
    Ir.Imap.fold
      (fun _ b acc ->
        acc
        + List.length
            (List.filter (function Ir.Call (_, "f", _) -> true | _ -> false) b.Ir.b_instrs))
      main.Ir.fn_blocks 0
  in
  Alcotest.(check int) "small caller inlines every call" 0 (calls_left 10);
  Alcotest.(check int) "caller past the cap inlines none" 4 (calls_left 400)

let test_memcp_array_cells_independent () =
  let prog = ssa {|
static int a[3];
int main(void) {
  a[0] = 1;
  a[2] = 5;
  a[0] = 2;
  if (a[2] != 5) { DCEMarker0(); }
  use(a[0]);
  return 0;
}
|} in
  let info = Opt.Meminfo.analyze prog in
  let out = Ir.map_func (Opt.Memcp.run Opt.Memcp.default_config info) prog in
  let out = Ir.map_func (Opt.Sccp.run Opt.Sccp.default_config info) out in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  Alcotest.(check (list int)) "distinct cells tracked separately" []
    (Ir.marker_ids (main_fn out))

let test_dse_respects_defined_callee_reads () =
  let prog = ssa {|
static int g;
static int reader(void) { return g; }
int main(void) {
  g = 1;
  use(reader());
  g = 2;
  use(reader());
  return 0;
}
|} in
  let info = Opt.Meminfo.analyze prog in
  let out =
    Ir.map_func
      (fun fn -> Opt.Dse.run Opt.Dse.default_config info ~is_main:(fn.Ir.fn_name = "main") fn)
      prog
  in
  let stores =
    let n = ref 0 in
    Ir.iter_instrs (fun _ i -> match i with Ir.Store _ -> incr n | _ -> ()) (main_fn out);
    !n
  in
  Alcotest.(check int) "both stores observable through the callee" 2 stores

let test_ipa_cp_mixed_constants_not_propagated () =
  let prog = ssa {|
static int f(int x) { if (x != 3) { DCEMarker0(); } return x; }
int main(void) { use(f(3)); use(f(4)); return 0; }
|} in
  let out = Opt.Ipa_cp.run prog in
  Dce_ir.Validate.program_exn Dce_ir.Validate.Ssa out;
  check_equivalent ~name:"ipa-cp mixed" prog out;
  (* x is not constant across call sites: the marker must stay reachable *)
  let r = I.run out in
  Alcotest.(check bool) "marker still executes" true
    (Ir.Iset.mem 0 r.I.executed_markers)

let test_ipa_cp_single_site () =
  let prog = ssa {|
static int f(int x) { if (x != 3) { DCEMarker0(); } return x; }
int main(void) { use(f(3)); return 0; }
|} in
  let out = Opt.Ipa_cp.run prog in
  let info = Opt.Meminfo.analyze out in
  let out = Ir.map_func (Opt.Sccp.run Opt.Sccp.default_config info) out in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  Alcotest.(check (list int)) "constant argument proves the branch dead" []
    (Ir.program_marker_ids out)

(* ---- version / bisection corners ---- *)

let test_capabilities_grow_until_regressions () =
  (* at -O1 (no regression commits target it) capability never regresses
     across the history for a gva-foldable program *)
  let prog =
    Core.Instrument.program
      (parse "static int a = 5; int main(void) { if (a != 5) { use(1); } return 0; }")
  in
  let head = C.Compiler.head C.Gcc_sim.compiler in
  let eliminated_at v =
    not (List.mem 0 (markers_of C.Gcc_sim.compiler ~version:v C.Level.O1 prog))
  in
  let first = ref None in
  for v = 0 to head do
    if eliminated_at v && !first = None then first := Some v
  done;
  (match !first with
   | None -> Alcotest.fail "never eliminated"
   | Some v0 ->
     for v = v0 to head do
       Alcotest.(check bool) "monotone at -O1 after first success" true (eliminated_at v)
     done)

let test_full_history_at_least_as_good_as_head () =
  (* post-head fixes only add capability (they are fixes) for the families
     they target *)
  let prog = Core.Instrument.program (parse {|
int i;
static int b[2] = {0, 0};
int main(void) { if (b[i]) { use(1); } return 0; }
|}) in
  let full = List.length C.Gcc_sim.compiler.C.Compiler.history in
  Alcotest.(check bool) "head misses" true
    (List.mem 0 (markers_of C.Gcc_sim.compiler C.Level.O3 prog));
  Alcotest.(check bool) "full history (with fixes) eliminates" false
    (List.mem 0 (markers_of C.Gcc_sim.compiler ~version:full C.Level.O3 prog))

(* ---- instrumentation corners ---- *)

let test_instrument_switch_cases_and_default () =
  let instr =
    Core.Instrument.program
      (parse
         {|
int g;
int main(void) {
  switch (g) { case 0: { g = 1; } case 5: { g = 2; } default: { g = 3; } }
  return 0;
}
|})
  in
  Alcotest.(check int) "three case markers" 3 (Core.Instrument.marker_count instr)

let test_instrument_for_loop_body () =
  let instr =
    Core.Instrument.program
      (parse "int main(void) { int i; for (i = 0; i < 2; i++) { use(i); } return 0; }")
  in
  Alcotest.(check int) "loop body marker" 1 (Core.Instrument.marker_count instr)

let suite =
  [
    ("lower: empty loop body", `Quick, test_empty_loop_body);
    ("lower: for without clauses", `Quick, test_for_without_clauses);
    ("lower: switch without matching case", `Quick, test_switch_no_default);
    ("lower: nested breaks", `Quick, test_nested_breaks);
    ("interp: pointer-to-pointer chains", `Quick, test_deep_pointer_chain);
    ("interp: negative index traps", `Quick, test_negative_array_index_traps);
    ("interp: shadowing is per function", `Quick, test_shadowed_global_still_global_elsewhere);
    ("sccp: relational address compare", `Quick, test_sccp_pointer_relational_same_symbol);
    ("simplify: self loop", `Quick, test_simplify_self_loop_untouched);
    ("pipeline: nested loop nest folds", `Quick, test_unroll_then_unroll_nested);
    ("inline: growth cap", `Quick, test_inline_growth_cap);
    ("memcp: array cells independent", `Quick, test_memcp_array_cells_independent);
    ("dse: callee reads respected", `Quick, test_dse_respects_defined_callee_reads);
    ("ipa-cp: mixed constants skipped", `Quick, test_ipa_cp_mixed_constants_not_propagated);
    ("ipa-cp: single constant site folds", `Quick, test_ipa_cp_single_site);
    ("versions: -O1 capability monotone", `Quick, test_capabilities_grow_until_regressions);
    ("versions: post-head fixes repair 9f", `Quick, test_full_history_at_least_as_good_as_head);
    ("instrument: switch arms", `Quick, test_instrument_switch_cases_and_default);
    ("instrument: for body", `Quick, test_instrument_for_loop_body);
  ]
