(* Unit tests for the structural passes: inlining, unrolling, unswitching,
   jump threading, loop promotion, LCSSA, the vectorizer model, and
   unreachable-function removal. *)

open Helpers
module Ir = Dce_ir.Ir
module Opt = Dce_opt

let ssa src = Dce_ir.Ssa.construct_program (lower src)

let main_fn prog =
  match Ir.find_func prog "main" with
  | Some fn -> fn
  | None -> Alcotest.fail "no main"

let validate prog = Dce_ir.Validate.program_exn Dce_ir.Validate.Ssa prog

let count_instrs pred fn =
  let n = ref 0 in
  Ir.iter_instrs (fun _ i -> if pred i then incr n) fn;
  !n

let count_calls name fn =
  count_instrs (function Ir.Call (_, n, _) -> n = name | _ -> false) fn

let checked name prog out =
  validate out;
  check_equivalent ~name prog out;
  out

(* ---------- inline ---------- *)

let test_inline_basic () =
  let prog = ssa {|
static int add3(int x) { return x + 3; }
int main(void) { return add3(4) + add3(5); }
|} in
  let out = checked "inline" prog (Opt.Inline.run { Opt.Inline.threshold = 60 } prog) in
  Alcotest.(check int) "no calls to add3 remain" 0 (count_calls "add3" (main_fn out))

let test_inline_respects_threshold () =
  let prog = ssa {|
static int add3(int x) { return x + 3; }
int main(void) { return add3(4); }
|} in
  let out = Opt.Inline.run { Opt.Inline.threshold = 0 } prog in
  Alcotest.(check int) "threshold 0 inlines nothing" 1 (count_calls "add3" (main_fn out))

let test_inline_recursive_not_inlined () =
  let prog = ssa {|
static int f(int n) { if (n > 0) { return f(n - 1) + 1; } return 0; }
int main(void) { return f(3); }
|} in
  let out = checked "inline-rec" prog (Opt.Inline.run Opt.Inline.default_config prog) in
  (* the recursive call inside f must survive *)
  (match Ir.find_func out "f" with
   | Some f -> Alcotest.(check bool) "self call kept" true (count_calls "f" f >= 1)
   | None -> Alcotest.fail "f removed")

let test_inline_multiple_returns_phi () =
  let prog = ssa {|
static int pick(int x) { if (x > 2) { return 10; } return 20; }
int main(void) { return pick(ext(1) & 7); }
|} in
  let out = checked "inline-phi" prog (Opt.Inline.run Opt.Inline.default_config prog) in
  Alcotest.(check int) "call inlined" 0 (count_calls "pick" (main_fn out))

let test_inline_frame_syms_cloned () =
  let prog = ssa {|
static int sum2(int a, int b) { int buf[2]; buf[0] = a; buf[1] = b; return buf[0] + buf[1]; }
int main(void) { return sum2(1, 2) + sum2(3, 4); }
|} in
  let out = checked "inline-frames" prog (Opt.Inline.run Opt.Inline.default_config prog) in
  (* each call site gets its own cloned frame symbol *)
  let clones =
    List.filter (fun s -> contains s.Ir.sym_name "sum2.buf$i") out.Ir.prog_syms
  in
  Alcotest.(check int) "two clones" 2 (List.length clones)

let test_inline_skips_noreturn () =
  let prog = ssa {|
static int spin(void) { while (1) { use(1); } return 0; }
int main(void) { if (ext(1) == 12345) { use(spin()); } return 0; }
|} in
  let prog = Ir.map_func Opt.Simplify_cfg.run prog in
  let out = Opt.Inline.run Opt.Inline.default_config prog in
  validate out;
  Alcotest.(check int) "noreturn callee kept as a call" 1 (count_calls "spin" (main_fn out))

(* ---------- function_dce ---------- *)

let test_function_dce_removes_unreferenced_static () =
  let prog = ssa {|
static int orphan(void) { DCEMarker0(); return 1; }
int main(void) { return 0; }
|} in
  let out = Opt.Function_dce.run prog in
  Alcotest.(check bool) "orphan removed" true (Ir.find_func out "orphan" = None)

let test_function_dce_keeps_nonstatic () =
  let prog = ssa {|
int exported(void) { return 1; }
int main(void) { return 0; }
|} in
  let out = Opt.Function_dce.run prog in
  Alcotest.(check bool) "non-static kept" true (Ir.find_func out "exported" <> None)

let test_function_dce_transitive () =
  let prog = ssa {|
static int leaf(void) { return 1; }
static int mid(void) { return leaf(); }
int main(void) { return mid(); }
|} in
  let out = Opt.Function_dce.run prog in
  Alcotest.(check bool) "transitively reachable kept" true (Ir.find_func out "leaf" <> None)

(* ---------- promote + unroll ---------- *)

let fold_round prog =
  let info = Opt.Meminfo.analyze prog in
  let prog = Ir.map_func (Opt.Sccp.run Opt.Sccp.default_config info) prog in
  let prog = Ir.map_func (Opt.Gvn.run Opt.Gvn.default_config info) prog in
  let prog = Ir.map_func (Opt.Sccp.run Opt.Sccp.default_config info) prog in
  let prog = Ir.map_func Opt.Dce.run prog in
  Ir.map_func Opt.Simplify_cfg.run prog

let test_unroll_counted_loop () =
  let prog = ssa {|
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 5; i++) { s = s + i; }
  if (s != 10) { DCEMarker0(); }
  return s;
}
|} in
  let out = checked "unroll" prog (Ir.map_func (Opt.Unroll.run Opt.Unroll.default_config) prog) in
  let out = fold_round out in
  Alcotest.(check int) "fully folded" 0
    (count_instrs (function Ir.Marker _ -> true | _ -> false) (main_fn out));
  Alcotest.(check int) "no loop left" 0
    (List.length (Dce_ir.Loops.natural_loops (main_fn out)))

let test_unroll_respects_trip_cap () =
  let prog = ssa {|
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 100; i++) { s = s + 1; }
  return s;
}
|} in
  let out = Ir.map_func (Opt.Unroll.run { Opt.Unroll.max_trip = 10 }) prog in
  Alcotest.(check int) "loop kept" 1 (List.length (Dce_ir.Loops.natural_loops (main_fn out)))

let test_unroll_zero_trips () =
  let prog = ssa {|
int main(void) {
  int i;
  int s = 0;
  for (i = 5; i < 5; i++) { s = s + 1; }
  return s;
}
|} in
  let out = checked "unroll0" prog (Ir.map_func (Opt.Unroll.run Opt.Unroll.default_config) prog) in
  Alcotest.(check int) "loop erased" 0 (List.length (Dce_ir.Loops.natural_loops (main_fn out)))

let test_unroll_rejects_opaque_bound () =
  let prog = ssa {|
int main(void) {
  int n = ext(1) & 7;
  int i;
  int s = 0;
  for (i = 0; i < n; i++) { s = s + 1; }
  return s;
}
|} in
  let out = checked "unroll-opaque" prog (Ir.map_func (Opt.Unroll.run Opt.Unroll.default_config) prog) in
  Alcotest.(check int) "opaque bound not unrolled" 1
    (List.length (Dce_ir.Loops.natural_loops (main_fn out)))

let test_promote_enables_global_counter_unroll () =
  let prog = ssa {|
static int b;
static int s;
int main(void) {
  for (b = 0; b < 3; b++) { s = s + b; }
  return s;
}
|} in
  let info = Opt.Meminfo.analyze prog in
  let promoted = Ir.map_func (Opt.Promote.run { Opt.Promote.precision = Opt.Alias.Full } info) prog in
  let promoted = checked "promote" prog promoted in
  let folded = fold_round promoted in
  let out = Ir.map_func (Opt.Unroll.run Opt.Unroll.default_config) folded in
  let out = checked "promote+unroll" prog out in
  Alcotest.(check int) "loop fully unrolled" 0
    (List.length (Dce_ir.Loops.natural_loops (main_fn out)))

let test_promote_skips_clobbered_cell () =
  (* a marker inside the loop may write the non-static counter: no promotion *)
  let prog = ssa {|
int b;
int main(void) {
  for (b = 0; b < 3; b++) { DCEMarker0(); }
  return 0;
}
|} in
  let info = Opt.Meminfo.analyze prog in
  let out = Ir.map_func (Opt.Promote.run { Opt.Promote.precision = Opt.Alias.Full } info) prog in
  validate out;
  (* loads of b must remain loads (not promoted) *)
  let loads = count_instrs (function Ir.Def (_, Ir.Load _) -> true | _ -> false) (main_fn out) in
  Alcotest.(check bool) "loads remain" true (loads >= 1);
  check_equivalent ~name:"promote-skip" prog out

(* ---------- lcssa ---------- *)

let test_lcssa_inserts_exit_phi () =
  let prog = ssa {|
int main(void) {
  int i = 0;
  int s = 0;
  while (i < 4) { s = s + i; i = i + 1; }
  return s;
}
|} in
  let fn = main_fn prog in
  let loops = Dce_ir.Loops.natural_loops fn in
  match loops with
  | [ loop ] -> (
    match Opt.Lcssa.close_loop fn loop with
    | Some fn' ->
      Dce_ir.Validate.func_exn Dce_ir.Validate.Ssa fn';
      let prog' = Ir.update_func prog fn' in
      check_equivalent ~name:"lcssa" prog prog'
    | None -> Alcotest.fail "lcssa refused a single-exit loop")
  | _ -> Alcotest.fail "expected one loop"

(* ---------- unswitch ---------- *)

let test_unswitch_hoists_invariant_branch () =
  let src = {|
int main(void) {
  int inv = ext(1) & 1;
  int i = 0;
  int s = 0;
  while (i < 4) {
    if (inv) { s = s + 2; } else { s = s + 1; }
    i = i + 1;
  }
  return s;
}
|} in
  let prog = ssa src in
  let info = Opt.Meminfo.analyze prog in
  let out = Ir.map_func (Opt.Unswitch.run Opt.Unswitch.default_config info) prog in
  let out = checked "unswitch" prog out in
  (* after unswitching there are two loops (the two specialized copies) *)
  Alcotest.(check int) "loop duplicated" 2
    (List.length (Dce_ir.Loops.natural_loops (main_fn out)))

let test_unswitch_licm_hoists_safe_load () =
  let src = {|
static int flag;
int g;
int main(void) {
  flag = ext(1) & 1;
  int i = 0;
  while (i < 3) {
    if (flag) { g = g + 1; }
    i = i + 1;
  }
  return g;
}
|} in
  let prog = ssa src in
  let info = Opt.Meminfo.analyze prog in
  let out = Ir.map_func (Opt.Unswitch.run Opt.Unswitch.default_config info) prog in
  let out = checked "unswitch-licm" prog out in
  Alcotest.(check bool) "unswitched through a hoisted load" true
    (List.length (Dce_ir.Loops.natural_loops (main_fn out)) = 2)

let test_unswitch_no_invariant () =
  let src = {|
int main(void) {
  int i = 0;
  int s = 0;
  while (i < 4) { if (i & 1) { s = s + 1; } i = i + 1; }
  return s;
}
|} in
  let prog = ssa src in
  let info = Opt.Meminfo.analyze prog in
  let out = Ir.map_func (Opt.Unswitch.run Opt.Unswitch.default_config info) prog in
  validate out;
  Alcotest.(check int) "variant condition not unswitched" 1
    (List.length (Dce_ir.Loops.natural_loops (main_fn out)))

(* ---------- jump threading ---------- *)

let test_jump_thread_conservative () =
  (* the block joining two const-feeding edges, branch on the phi *)
  let prog = ssa {|
int main(void) {
  int t;
  if (ext(1) & 1) { t = 1; } else { t = 0; }
  if (t) { use(10); } else { use(20); }
  return 0;
}
|} in
  let before = Ir.Imap.cardinal (main_fn prog).Ir.fn_blocks in
  let out =
    Ir.map_func
      (Opt.Jump_thread.run
         { Opt.Jump_thread.mode = Opt.Jump_thread.Conservative })
      prog
  in
  let out = checked "jt" prog out in
  (* threading rewires edges; at minimum the function still behaves and no
     block count explosion occurred *)
  Alcotest.(check bool) "no explosion" true
    (Ir.Imap.cardinal (main_fn out).Ir.fn_blocks <= before + 2)

let test_jump_thread_aggressive_clones () =
  let prog = ssa {|
int g;
int main(void) {
  int t;
  if (ext(1) & 1) { t = 1; } else { t = 0; }
  g = g + 1;
  if (t) { use(10); } else { use(20); }
  return 0;
}
|} in
  let out =
    Ir.map_func
      (Opt.Jump_thread.run
         { Opt.Jump_thread.mode = Opt.Jump_thread.Aggressive })
      prog
  in
  ignore (checked "jt-aggressive" prog out)

(* ---------- vectorize model ---------- *)

let test_vectorize_obfuscates_stores () =
  let src = {|
static int b;
static int c[4];
int main(void) {
  for (b = 0; b < 4; b++) { c[b] = 7; }
  return c[2];
}
|} in
  (* the vectorizer needs promoted counters to know the trip count *)
  let prog = ssa src in
  let info = Opt.Meminfo.analyze prog in
  let prog = Ir.map_func (Opt.Promote.run { Opt.Promote.precision = Opt.Alias.Full } info) prog in
  let prog = fold_round prog in
  let out = Opt.Vectorize.run prog in
  validate out;
  check_equivalent ~name:"vectorize" prog out;
  Alcotest.(check bool) "vector pool symbol added" true
    (Ir.find_symbol out "__vec_pool" <> None);
  (* the rewritten addresses are opaque: memcp can no longer fold c[2] *)
  let info = Opt.Meminfo.analyze out in
  let folded = Ir.map_func (Opt.Memcp.run Opt.Memcp.default_config info) out in
  let loads = count_instrs (function Ir.Def (_, Ir.Load _) -> true | _ -> false) (main_fn folded) in
  Alcotest.(check bool) "load of c[2] not folded" true (loads >= 1)

let test_vectorize_skips_storeless_loops () =
  let prog = ssa {|
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 4; i++) { s = s + i; }
  return s;
}
|} in
  let out = Opt.Vectorize.run prog in
  Alcotest.(check bool) "no pool added" true (Ir.find_symbol out "__vec_pool" = None)

let suite =
  [
    ("inline: basic", `Quick, test_inline_basic);
    ("inline: threshold", `Quick, test_inline_respects_threshold);
    ("inline: recursion skipped", `Quick, test_inline_recursive_not_inlined);
    ("inline: multiple returns", `Quick, test_inline_multiple_returns_phi);
    ("inline: frame symbols cloned per site", `Quick, test_inline_frame_syms_cloned);
    ("inline: noreturn callees skipped", `Quick, test_inline_skips_noreturn);
    ("function-dce: removes orphans", `Quick, test_function_dce_removes_unreferenced_static);
    ("function-dce: keeps non-static", `Quick, test_function_dce_keeps_nonstatic);
    ("function-dce: transitive reachability", `Quick, test_function_dce_transitive);
    ("unroll: counted loop folds away", `Quick, test_unroll_counted_loop);
    ("unroll: trip cap respected", `Quick, test_unroll_respects_trip_cap);
    ("unroll: zero-trip loop", `Quick, test_unroll_zero_trips);
    ("unroll: opaque bound rejected", `Quick, test_unroll_rejects_opaque_bound);
    ("promote: global counters unrollable", `Quick, test_promote_enables_global_counter_unroll);
    ("promote: clobbered cells skipped", `Quick, test_promote_skips_clobbered_cell);
    ("lcssa: exit phis", `Quick, test_lcssa_inserts_exit_phi);
    ("unswitch: invariant branch hoisted", `Quick, test_unswitch_hoists_invariant_branch);
    ("unswitch: licm hoists safe loads", `Quick, test_unswitch_licm_hoists_safe_load);
    ("unswitch: variant condition kept", `Quick, test_unswitch_no_invariant);
    ("jump-thread: conservative", `Quick, test_jump_thread_conservative);
    ("jump-thread: aggressive clones safely", `Quick, test_jump_thread_aggressive_clones);
    ("vectorize: obfuscates store loops", `Quick, test_vectorize_obfuscates_stores);
    ("vectorize: skips storeless loops", `Quick, test_vectorize_skips_storeless_loops);
  ]
