(* Unit tests for the optimization passes.  Each test builds a small program,
   runs one pass (or a minimal pass combination) on SSA form, validates the
   result, checks observable behaviour is preserved, and asserts the
   transformation actually happened. *)

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

let count_loads fn = count_instrs (function Ir.Def (_, Ir.Load _) -> true | _ -> false) fn
let count_stores fn = count_instrs (function Ir.Store _ -> true | _ -> false) fn
let count_markers fn = count_instrs (function Ir.Marker _ -> true | _ -> false) fn

let with_info prog f = f (Opt.Meminfo.analyze prog) prog

let apply_per_func prog f =
  let out = Ir.map_func f prog in
  validate out;
  check_equivalent ~name:"pass" prog out;
  out

(* ---------- meminfo ---------- *)

let test_meminfo_escape () =
  let prog = ssa {|
static int a;
static int b;
int *p;
int main(void) { p = &a; return b; }
|} in
  let info = Opt.Meminfo.analyze prog in
  Alcotest.(check bool) "a escapes (address stored)" true (Opt.Meminfo.escaped info "a");
  Alcotest.(check bool) "b does not escape" false (Opt.Meminfo.escaped info "b");
  Alcotest.(check bool) "escaped implies unknown-reachable" true
    (Opt.Meminfo.unknown_may_touch info "a");
  Alcotest.(check bool) "non-static p is unknown-reachable" true
    (Opt.Meminfo.unknown_may_touch info "p");
  Alcotest.(check bool) "static non-escaped b is not" false
    (Opt.Meminfo.unknown_may_touch info "b")

let test_meminfo_stores () =
  let prog = ssa {|
static int a = 5;
static int b = 5;
static int c = 5;
int main(void) { b = 5; c = 6; return a; }
|} in
  let info = Opt.Meminfo.analyze prog in
  Alcotest.(check bool) "a never stored" false (Opt.Meminfo.ever_stored info "a");
  Alcotest.(check bool) "b stored" true (Opt.Meminfo.ever_stored info "b");
  Alcotest.(check bool) "b stores only the initializer" true
    (Opt.Meminfo.stores_only_init_consts info "b");
  Alcotest.(check bool) "c stores a different value" false
    (Opt.Meminfo.stores_only_init_consts info "c")

let test_meminfo_modref_transitive () =
  let prog = ssa {|
static int g;
static void leaf(void) { g = 1; }
static void mid(void) { leaf(); }
int main(void) { mid(); return 0; }
|} in
  let info = Opt.Meminfo.analyze prog in
  Alcotest.(check bool) "mid transitively writes g" true
    (Opt.Meminfo.Sset.mem "g" (Opt.Meminfo.mod_set info "mid"));
  Alcotest.(check bool) "extern calls cannot write g" false
    (Opt.Meminfo.Sset.mem "g" (Opt.Meminfo.extern_mod_set info))

let test_meminfo_escape_via_init () =
  let prog = ssa {|
static int a;
int *p = &a;
int main(void) { return 0; }
|} in
  let info = Opt.Meminfo.analyze prog in
  Alcotest.(check bool) "address in initializer escapes" true (Opt.Meminfo.escaped info "a")

(* ---------- alias oracle ---------- *)

let test_alias_rules () =
  let prog = ssa {|
static int a;
static int b[4];
int *escaped_holder;
static int hidden;
int main(void) {
  escaped_holder = &a;
  use(b[2] + hidden);
  return 0;
}
|} in
  let info = Opt.Meminfo.analyze prog in
  let fn = main_fn prog in
  let q = Opt.Alias.make Opt.Alias.Full info fn in
  (* reuse main's existing address registers by scanning its instructions *)
  let with_addrs f =
    let found = Hashtbl.create 4 in
    Ir.iter_instrs
      (fun _ i ->
        match i with
        | Ir.Def (v, Ir.Addr (s, Ir.Const k)) -> Hashtbl.replace found (s, k) (Ir.Reg v)
        | _ -> ())
      fn;
    f found
  in
  with_addrs (fun found ->
      match
        (Hashtbl.find_opt found ("a", 0), Hashtbl.find_opt found ("b", 2),
         Hashtbl.find_opt found ("hidden", 0))
      with
      | Some pa, Some pb, Some ph ->
        Alcotest.(check bool) "distinct symbols no alias" false (Opt.Alias.may_alias q pa pb);
        Alcotest.(check bool) "same operand aliases itself" true (Opt.Alias.may_alias q pa pa);
        (* an unknown pointer may hit the escaped a but not the hidden static *)
        let unknown = Ir.Reg 99999 in
        Alcotest.(check bool) "unknown may hit escaped" true (Opt.Alias.may_alias q unknown pa);
        Alcotest.(check bool) "unknown cannot hit hidden static" false
          (Opt.Alias.may_alias q unknown ph);
        Alcotest.(check bool) "may_write_sym escaped" true (Opt.Alias.may_write_sym q unknown "a");
        Alcotest.(check bool) "may_write_sym hidden" false
          (Opt.Alias.may_write_sym q unknown "hidden");
        (* Basic precision loses the escape filtering *)
        let qb = Opt.Alias.make Opt.Alias.Basic info fn in
        Alcotest.(check bool) "basic: unknown hits everything" true
          (Opt.Alias.may_alias qb unknown ph);
        (* None_ makes everything alias *)
        let qn = Opt.Alias.make Opt.Alias.None_ info fn in
        Alcotest.(check bool) "none: even distinct symbols alias" true
          (Opt.Alias.may_alias qn pa pb)
      | _ -> Alcotest.fail "expected address registers in main")

let test_alias_offsets () =
  let prog = ssa {|
static int b[4];
int main(void) {
  use(b[1] + b[3]);
  return 0;
}
|} in
  let info = Opt.Meminfo.analyze prog in
  let fn = main_fn prog in
  let q = Opt.Alias.make Opt.Alias.Full info fn in
  let found = Hashtbl.create 4 in
  Ir.iter_instrs
    (fun _ i ->
      match i with
      | Ir.Def (v, Ir.Addr (s, Ir.Const k)) -> Hashtbl.replace found (s, k) (Ir.Reg v)
      | _ -> ())
    fn;
  match (Hashtbl.find_opt found ("b", 1), Hashtbl.find_opt found ("b", 3)) with
  | Some p1, Some p3 ->
    Alcotest.(check bool) "distinct constant offsets no alias" false
      (Opt.Alias.may_alias q p1 p3)
  | _ -> Alcotest.fail "expected address registers"

(* ---------- sccp ---------- *)

let run_sccp ?(config = Opt.Sccp.default_config) prog =
  with_info prog (fun info p -> apply_per_func p (Opt.Sccp.run config info))

let test_sccp_folds_constants () =
  let prog = ssa "int main(void) { int x = 4; int y = x * 2 + 1; if (y != 9) { use(1); } return y; }" in
  let out = run_sccp prog in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  (* after folding, no use() call remains *)
  Alcotest.(check int) "dead call removed" 0
    (count_instrs (function Ir.Call (_, "use", _) -> true | _ -> false) (main_fn out))

let test_sccp_conditional_precision () =
  (* only-feasible-edge values: x is 3 on every executable path *)
  let prog = ssa {|
int main(void) {
  int x;
  if (1) { x = 3; } else { x = 999; }
  if (x != 3) { use(1); }
  return x;
}
|} in
  let out = Ir.map_func Opt.Simplify_cfg.run (run_sccp prog) in
  Alcotest.(check int) "infeasible-arm value ignored" 0
    (count_instrs (function Ir.Call (_, "use", _) -> true | _ -> false) (main_fn out))

let test_sccp_gva_modes () =
  let src = "static int a = 0; int main(void) { if (a) { DCEMarker0(); } a = 0; return 0; }" in
  let fold mode =
    let prog = ssa src in
    let out =
      run_sccp ~config:{ Opt.Sccp.default_config with Opt.Sccp.gva_mode = mode } prog
    in
    let out = Ir.map_func Opt.Simplify_cfg.run out in
    count_markers (main_fn out) = 0
  in
  Alcotest.(check bool) "flow-insensitive blocked by the store" false
    (fold Opt.Gva.Flow_insensitive);
  Alcotest.(check bool) "if-const tolerates the init re-store" true
    (fold Opt.Gva.Flow_sensitive_if_const)

let test_sccp_addr_cmp_modes () =
  let src = {|
int a;
int b[2];
int main(void) { if (&a == &b[1]) { DCEMarker0(); } return 0; }
|} in
  let fold mode =
    let prog = ssa src in
    let out = run_sccp ~config:{ Opt.Sccp.default_config with Opt.Sccp.addr_cmp = mode } prog in
    let out = Ir.map_func Opt.Simplify_cfg.run out in
    count_markers (main_fn out) = 0
  in
  Alcotest.(check bool) "full folds" true (fold Opt.Sccp.Cmp_full);
  Alcotest.(check bool) "zero-only misses offset 1" false (fold Opt.Sccp.Cmp_zero_only);
  Alcotest.(check bool) "none never folds" false (fold Opt.Sccp.Cmp_none)

let test_sccp_block_limit_bailout () =
  (* [n] opaque branches ahead of a marker guarded by a never-stored static *)
  let fold n =
    let branches = String.concat "\n" (List.init n (fun _ -> "if (h == 3) { k = k + 1; }")) in
    let prog =
      ssa
        (Printf.sprintf
           "int h; static int a = 0;\n\
            int main(void) { int k = 0;\n%s\nif (a) { DCEMarker0(); } return k; }"
           branches)
    in
    let blocks = Ir.Imap.cardinal (main_fn prog).Ir.fn_blocks in
    let out = Ir.map_func Opt.Simplify_cfg.run (run_sccp prog) in
    (blocks, count_markers (main_fn out) = 0)
  in
  let small_blocks, small_folds = fold 10 in
  Alcotest.(check bool) "small function under the cap" true (small_blocks <= Opt.Sccp.block_limit);
  Alcotest.(check bool) "under the cap: marker folds" true small_folds;
  let big_blocks, big_folds = fold 300 in
  Alcotest.(check bool) "big function over the cap" true (big_blocks > Opt.Sccp.block_limit);
  Alcotest.(check bool) "over the cap: bails out, marker survives" false big_folds

(* ---------- simplify_cfg ---------- *)

let test_simplify_removes_literal_dead () =
  let prog = lower "int main(void) { if (0) { DCEMarker0(); } return 0; }" in
  let out = Ir.map_func Opt.Simplify_cfg.run prog in
  Alcotest.(check int) "marker gone" 0 (count_markers (main_fn out));
  check_equivalent ~name:"simplify" prog out

let test_simplify_merges_blocks () =
  let prog = ssa "int main(void) { int x = 1; if (1) { x = 2; } return x; }" in
  let out = Ir.map_func Opt.Simplify_cfg.run prog in
  validate out;
  Alcotest.(check int) "single block remains" 1 (Ir.Imap.cardinal (main_fn out).Ir.fn_blocks)

let test_simplify_keeps_alive_code () =
  let prog = lower "int main(void) { if (1) { DCEMarker0(); } return 0; }" in
  let out = Ir.map_func Opt.Simplify_cfg.run prog in
  Alcotest.(check int) "alive marker stays" 1 (count_markers (main_fn out))

(* ---------- dce ---------- *)

let test_dce_removes_unused_pure () =
  let prog = ssa "int g; int main(void) { int unused = g * 17 + 4; return 0; }" in
  let before = count_loads (main_fn prog) in
  let out = apply_per_func prog Opt.Dce.run in
  Alcotest.(check bool) "unused load chain removed" true (count_loads (main_fn out) < before)

let test_dce_keeps_stores_calls_markers () =
  let prog = ssa "int g; int main(void) { g = 1; use(2); DCEMarker0(); return 0; }" in
  let out = apply_per_func prog Opt.Dce.run in
  let fn = main_fn out in
  Alcotest.(check int) "store kept" 1 (count_stores fn);
  Alcotest.(check int) "marker kept" 1 (count_markers fn);
  Alcotest.(check int) "call kept" 1
    (count_instrs (function Ir.Call (_, "use", _) -> true | _ -> false) fn)

(* ---------- gvn ---------- *)

let run_gvn ?(config = Opt.Gvn.default_config) prog =
  with_info prog (fun info p -> apply_per_func p (Opt.Gvn.run config info))

let test_gvn_cse () =
  let prog = ssa "int g; int main(void) { int a = g * 3; int b = g * 3; return a + b; }" in
  let out = run_gvn prog in
  let muls =
    count_instrs
      (function Ir.Def (_, Ir.Binary (Dce_minic.Ops.Mul, _, _)) -> true | _ -> false)
      (main_fn out)
  in
  Alcotest.(check int) "one multiply after CSE" 1 muls

let test_gvn_store_to_load () =
  let prog = ssa "static int g; int main(void) { g = 5; return g; }" in
  let out = run_gvn prog in
  let out = apply_per_func out Opt.Dce.run in
  Alcotest.(check int) "load forwarded away" 0 (count_loads (main_fn out))

let test_gvn_forwarding_respects_clobber () =
  (* a store through an unknown pointer into possibly-aliasing memory must
     kill the forwarded value *)
  let src = {|
int g;
int *p;
int main(void) { g = 5; *p = 6; return g; }
|} in
  (* note: this program traps at run time (p is null), so only check the IR
     shape: the load of g must remain *)
  let prog = ssa src in
  let info = Opt.Meminfo.analyze prog in
  let out = Ir.map_func (Opt.Gvn.run Opt.Gvn.default_config info) prog in
  validate out;
  Alcotest.(check bool) "load of non-static g survives unknown store" true
    (count_loads (main_fn out) >= 1)

let test_gvn_copy_prop () =
  let prog = ssa "int main(void) { int a = 7; int b = a; int c = b; return c; }" in
  let out = run_gvn prog in
  (* after copy propagation the return feeds from the constant chain; DCE
     then erases the copies *)
  let out = apply_per_func out Opt.Dce.run in
  Alcotest.(check bool) "copies collapsed" true
    (count_instrs (function Ir.Def _ -> true | _ -> false) (main_fn out) <= 1)

(* ---------- dse ---------- *)

let run_dse ?(config = Opt.Dse.default_config) prog =
  with_info prog (fun info p ->
      let out =
        Ir.map_func
          (fun fn -> Opt.Dse.run config info ~is_main:(fn.Ir.fn_name = "main") fn)
          p
      in
      validate out;
      (* DSE is allowed to change final memory but not events/outcome *)
      let r1 = Dce_interp.Interp.run p and r2 = Dce_interp.Interp.run out in
      if not (Dce_interp.Interp.equivalent r1 r2) then Alcotest.fail "dse changed behaviour";
      out)

let test_dse_overwritten_store () =
  let prog = ssa "static int g; int main(void) { g = 1; g = 2; use(g); return 0; }" in
  let out = run_dse prog in
  Alcotest.(check int) "first store removed" 1 (count_stores (main_fn out))

let test_dse_store_read_between () =
  let prog = ssa "static int g; int main(void) { g = 1; use(g); g = 2; use(g); return 0; }" in
  let out = run_dse prog in
  Alcotest.(check int) "both stores stay" 2 (count_stores (main_fn out))

let test_dse_end_of_main () =
  (* the paper's Listing 1: the trailing c = 0 is dead at end of main *)
  let prog = ssa "static int c; int main(void) { use(c); c = 0; return 0; }" in
  let strong = run_dse prog in
  Alcotest.(check int) "strength 2 removes it" 0 (count_stores (main_fn strong));
  let weak = run_dse ~config:{ Opt.Dse.default_config with Opt.Dse.strength = 1 } prog in
  Alcotest.(check int) "strength 1 keeps it" 1 (count_stores (main_fn weak))

let test_dse_keeps_nonstatic_at_end () =
  (* non-static globals are observable by other TUs: never end-of-main dead *)
  let prog = ssa "int c; int main(void) { c = 0; return 0; }" in
  let out = run_dse prog in
  Alcotest.(check int) "store to non-static kept" 1 (count_stores (main_fn out))

let test_dse_frame_slots_die_at_ret () =
  let prog = ssa {|
static int helper(void) { int x[2]; x[0] = 9; return 1; }
int main(void) { return helper(); }
|} in
  let out = run_dse prog in
  match Ir.find_func out "helper" with
  | Some fn -> Alcotest.(check int) "frame store dead at ret" 0 (count_stores fn)
  | None -> Alcotest.fail "helper missing"

(* ---------- memcp ---------- *)

let run_memcp ?(config = Opt.Memcp.default_config) prog =
  with_info prog (fun info p -> apply_per_func p (Opt.Memcp.run config info))

let full_fold src config =
  (* memcp followed by a gva-free SCCP round, so the verdict isolates memcp *)
  let prog = ssa src in
  let out = run_memcp ~config prog in
  let info = Opt.Meminfo.analyze out in
  let sccp_cfg = { Opt.Sccp.default_config with Opt.Sccp.gva_mode = Opt.Gva.Off } in
  let out = Ir.map_func (Opt.Sccp.run sccp_cfg info) out in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  count_markers (main_fn out) = 0

let test_memcp_store_then_branch () =
  Alcotest.(check bool) "store dominates check: folds" true
    (full_fold "int b; int main(void) { b = 0; if (b) { DCEMarker0(); } return 0; }"
       Opt.Memcp.default_config)

let test_memcp_no_initializer_assumption () =
  Alcotest.(check bool) "no store: memcp alone cannot fold" false
    (full_fold "static int b = 0; int main(void) { if (b) { DCEMarker0(); } return 0; }"
       { Opt.Memcp.default_config with Opt.Memcp.uniform_arrays = false })

let test_memcp_edge_awareness () =
  let src = {|
int a, b;
int main(void) {
  b = 0;
  while (a) { if (b) { DCEMarker0(); } }
  return 0;
}
|} in
  Alcotest.(check bool) "edge-aware folds through the loop" true
    (full_fold src Opt.Memcp.default_config);
  Alcotest.(check bool) "without edge-awareness the back edge poisons b" false
    (full_fold src { Opt.Memcp.default_config with Opt.Memcp.edge_aware = false })

let test_memcp_uniform_arrays () =
  let src = {|
int a;
static int b[2] = {0, 0};
int main(void) { if (b[a]) { DCEMarker0(); } return 0; }
|} in
  Alcotest.(check bool) "uniform rule folds unknown index" true
    (full_fold src Opt.Memcp.default_config);
  Alcotest.(check bool) "without the rule it stays" false
    (full_fold src { Opt.Memcp.default_config with Opt.Memcp.uniform_arrays = false })

let test_memcp_marker_clobbers_nonstatic () =
  (* a marker call may write non-static globals: b cannot stay 0 across it *)
  let src = {|
int b;
int main(void) {
  b = 0;
  DCEMarker1();
  if (b) { DCEMarker0(); }
  return 0;
}
|} in
  let prog = ssa src in
  let out = run_memcp prog in
  let info = Opt.Meminfo.analyze out in
  let out = Ir.map_func (Opt.Sccp.run Opt.Sccp.default_config info) out in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  Alcotest.(check int) "both markers survive" 2 (count_markers (main_fn out))

let test_memcp_static_survives_marker () =
  (* ... but a non-escaping static is invisible to the marker *)
  Alcotest.(check bool) "static survives the marker call" true
    (full_fold
       {|
static int b;
int main(void) {
  b = 0;
  use(1);
  if (b) { DCEMarker0(); }
  return 0;
}
|}
       Opt.Memcp.default_config)

(* ---------- peephole ---------- *)

let test_peephole_identities () =
  let prog = ssa {|
int g;
int main(void) {
  int x = g;
  int a = x + 0;
  int b = a * 1;
  int c = b - b;
  int d = c ^ c;
  return d;
}
|} in
  let out = apply_per_func prog (Opt.Peephole.run { Opt.Peephole.level = 1 }) in
  let out = apply_per_func out Opt.Dce.run in
  (* everything folds to the constant 0 *)
  Alcotest.(check int) "arithmetic erased" 0
    (count_instrs
       (function Ir.Def (_, Ir.Binary _) -> true | _ -> false)
       (main_fn out))

let test_peephole_levels_gate_rules () =
  let src = "int g; int main(void) { int x = g + 3; if (x == 3) { use(1); } return 0; }" in
  let fold level =
    let prog = ssa src in
    let out = apply_per_func prog (Opt.Peephole.run { Opt.Peephole.level }) in
    (* x + 3 == 3  becomes  x == 0 only at level 3 *)
    count_instrs
      (function
        | Ir.Def (_, Ir.Binary (Dce_minic.Ops.Eq, _, Ir.Const 0)) -> true
        | _ -> false)
      (main_fn out)
    > 0
  in
  Alcotest.(check bool) "level 3 rewrites" true (fold 3);
  Alcotest.(check bool) "level 1 does not" false (fold 1)

(* ---------- vrp ---------- *)

let test_vrp_range_folds () =
  let prog = ssa {|
int main(void) {
  int x = ext(1) & 15;
  if (x > 40) { DCEMarker0(); }
  return 0;
}
|} in
  let out = apply_per_func prog (Opt.Vrp.run Opt.Vrp.default_config) in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  Alcotest.(check int) "masked value cannot exceed 15" 0 (count_markers (main_fn out))

let test_vrp_branch_refinement () =
  let prog = ssa {|
int main(void) {
  int x = ext(1) & 15;
  if (x > 10) {
    if (x < 5) { DCEMarker0(); }
  }
  return 0;
}
|} in
  let out = apply_per_func prog (Opt.Vrp.run Opt.Vrp.default_config) in
  let out = Ir.map_func Opt.Simplify_cfg.run out in
  Alcotest.(check int) "contradictory nested range folds" 0 (count_markers (main_fn out))

let test_vrp_shift_rule_flag () =
  let src = {|
int main(void) {
  int f = ext(1) & 7 | 1;
  int d = f << 2;
  if (d) { if (f == 0) { DCEMarker0(); } }
  return 0;
}
|} in
  let fold shift_rule =
    let prog = ssa src in
    let out =
      apply_per_func prog
        (Opt.Vrp.run { Opt.Vrp.default_config with Opt.Vrp.shift_rule })
    in
    let out = Ir.map_func Opt.Simplify_cfg.run out in
    count_markers (main_fn out) = 0
  in
  Alcotest.(check bool) "with the shift rule" true (fold true);
  Alcotest.(check bool) "without it" false (fold false)

let test_vrp_mod_singleton_flag () =
  let src = {|
int main(void) {
  int g = ext(3) & 7;
  if (g == 2) { if (g % 5 != 2) { DCEMarker0(); } }
  return 0;
}
|} in
  let fold mod_singleton =
    let prog = ssa src in
    let out =
      apply_per_func prog
        (Opt.Vrp.run { Opt.Vrp.default_config with Opt.Vrp.mod_singleton })
    in
    let out = Ir.map_func Opt.Simplify_cfg.run out in
    count_markers (main_fn out) = 0
  in
  Alcotest.(check bool) "with the mod rule" true (fold true);
  Alcotest.(check bool) "without it" false (fold false)

let suite =
  [
    ("alias: precision rules", `Quick, test_alias_rules);
    ("alias: constant offsets", `Quick, test_alias_offsets);
    ("meminfo: escape analysis", `Quick, test_meminfo_escape);
    ("meminfo: store classification", `Quick, test_meminfo_stores);
    ("meminfo: transitive mod/ref", `Quick, test_meminfo_modref_transitive);
    ("meminfo: escape via initializer", `Quick, test_meminfo_escape_via_init);
    ("sccp: folds constants", `Quick, test_sccp_folds_constants);
    ("sccp: conditional precision", `Quick, test_sccp_conditional_precision);
    ("sccp: gva modes (Listing 4)", `Quick, test_sccp_gva_modes);
    ("sccp: addr-cmp modes (Listing 3)", `Quick, test_sccp_addr_cmp_modes);
    ("sccp: block-limit bailout", `Quick, test_sccp_block_limit_bailout);
    ("simplify: removes literal dead code", `Quick, test_simplify_removes_literal_dead);
    ("simplify: merges blocks", `Quick, test_simplify_merges_blocks);
    ("simplify: keeps alive code", `Quick, test_simplify_keeps_alive_code);
    ("dce: removes unused pure defs", `Quick, test_dce_removes_unused_pure);
    ("dce: keeps effects", `Quick, test_dce_keeps_stores_calls_markers);
    ("gvn: common subexpressions", `Quick, test_gvn_cse);
    ("gvn: store-to-load forwarding", `Quick, test_gvn_store_to_load);
    ("gvn: clobber respected", `Quick, test_gvn_forwarding_respects_clobber);
    ("gvn: copy propagation", `Quick, test_gvn_copy_prop);
    ("dse: overwritten store", `Quick, test_dse_overwritten_store);
    ("dse: read between stores", `Quick, test_dse_store_read_between);
    ("dse: end of main (Listing 1)", `Quick, test_dse_end_of_main);
    ("dse: non-static kept at end", `Quick, test_dse_keeps_nonstatic_at_end);
    ("dse: frame slots die at ret", `Quick, test_dse_frame_slots_die_at_ret);
    ("memcp: store dominates check", `Quick, test_memcp_store_then_branch);
    ("memcp: no initializer assumption", `Quick, test_memcp_no_initializer_assumption);
    ("memcp: edge awareness (Listing 7)", `Quick, test_memcp_edge_awareness);
    ("memcp: uniform arrays (Listing 9f)", `Quick, test_memcp_uniform_arrays);
    ("memcp: markers clobber non-statics", `Quick, test_memcp_marker_clobbers_nonstatic);
    ("memcp: statics survive markers", `Quick, test_memcp_static_survives_marker);
    ("peephole: algebraic identities", `Quick, test_peephole_identities);
    ("peephole: level gating", `Quick, test_peephole_levels_gate_rules);
    ("vrp: masked range folds", `Quick, test_vrp_range_folds);
    ("vrp: branch refinement", `Quick, test_vrp_branch_refinement);
    ("vrp: shift rule flag (Listing 9a)", `Quick, test_vrp_shift_rule_flag);
    ("vrp: mod singleton flag (Listing 8b)", `Quick, test_vrp_mod_singleton_flag);
  ]
