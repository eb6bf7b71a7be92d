(* Tests for the IR substrate: lowering, CFG queries, dominators, SSA
   construction, natural loops, validation, printing. *)

open Helpers
module Ir = Dce_ir.Ir
module Cfg = Dce_ir.Cfg
module Dom = Dce_ir.Dom
module Ssa = Dce_ir.Ssa
module Loops = Dce_ir.Loops
module Validate = Dce_ir.Validate
module Lower = Dce_ir.Lower

let main_fn prog =
  match Ir.find_func prog "main" with
  | Some fn -> fn
  | None -> Alcotest.fail "no main"

(* ---- lowering ---- *)

let test_lower_validates () =
  let ir = lower {|
int g;
static int f(int x) { if (x) { return x + 1; } return 0; }
int main(void) { g = f(3); while (g) { g = g - 1; } return g; }
|} in
  (match Validate.program Validate.Pre_ssa ir with
   | Ok () -> ()
   | Error errs -> Alcotest.failf "invalid IR: %s" (String.concat "; " errs))

let test_lower_short_circuit_semantics () =
  (* && must not evaluate the RHS when LHS is false: division is total here,
     but a call on the RHS is observable *)
  let src = {|
int main(void) {
  int hits = 0;
  if (0 && ext(1)) { hits = 1; }
  if (1 || ext(2)) { hits = hits + 2; }
  return hits;
}
|} in
  let r = run_src src in
  Alcotest.(check int) "no extern events from short-circuit" 0
    (List.length
       (List.filter (function Dce_interp.Interp.Ev_extern _ -> true | _ -> false)
          r.Dce_interp.Interp.events));
  Alcotest.(check int) "result" 2 (exit_code src)

let test_lower_array_decay () =
  Alcotest.(check int) "b used as pointer" 7
    (exit_code {|
int b[3];
int main(void) { int *p = b; p[2] = 7; return b[2]; }
|})

let test_lower_address_taken_local () =
  Alcotest.(check int) "address-taken local becomes a frame slot" 5
    (exit_code {|
static void set(int *p) { *p = 5; }
int main(void) { int x = 0; set(&x); return x; }
|})

let test_lower_param_address_taken () =
  Alcotest.(check int) "address-taken parameter" 9
    (exit_code {|
static int bump(int x) { int *p = &x; *p = *p + 4; return x; }
int main(void) { return bump(5); }
|})

let test_lower_locals_zero_init () =
  Alcotest.(check int) "locals read before assignment are 0" 0
    (exit_code "int main(void) { int x; return x; }")

let test_lower_switch_implicit_break () =
  Alcotest.(check int) "cases do not fall through" 1
    (exit_code {|
int main(void) {
  int r = 0;
  switch (0) { case 0: { r = 1; } case 1: { r = 2; } default: { r = 3; } }
  return r;
}
|})

let test_lower_break_in_switch_in_loop () =
  Alcotest.(check int) "break in a case exits the switch, not the loop" 3
    (exit_code {|
int main(void) {
  int i;
  int r = 0;
  for (i = 0; i < 3; i++) {
    switch (i) { case 0: { break; } default: { } }
    r = r + 1;
  }
  return r;
}
|})

let test_lower_continue_in_for_runs_step () =
  Alcotest.(check int) "continue reaches the step" 5
    (exit_code {|
int main(void) {
  int i;
  int r = 0;
  for (i = 0; i < 10; i++) {
    if (i & 1) { continue; }
    r = r + 1;
  }
  return r;
}
|})

let test_lower_fallthrough_returns_zero () =
  Alcotest.(check int) "falling off a value function returns 0" 0
    (exit_code "static int f(void) { } int main(void) { return f(); }")

let test_marker_blocks () =
  let ir = lower {|
int main(void) { if (0) { DCEMarker0(); } DCEMarker1(); return 0; }
|} in
  let fn = main_fn ir in
  let blocks = Lower.func_entry_marker_blocks fn in
  Alcotest.(check int) "two markers" 2 (List.length blocks);
  Alcotest.(check bool) "different blocks" true
    (List.assoc 0 blocks <> List.assoc 1 blocks)

(* ---- cfg ---- *)

let diamond_src = {|
int main(void) {
  int x = ext(1) & 1;
  int r;
  if (x) { r = 1; } else { r = 2; }
  return r;
}
|}

let test_cfg_preds () =
  let fn = main_fn (lower diamond_src) in
  let preds = Cfg.predecessors fn in
  (* the join block has two predecessors *)
  let joins =
    Ir.Imap.fold (fun _ ps acc -> if List.length ps = 2 then acc + 1 else acc) preds 0
  in
  Alcotest.(check int) "one join" 1 joins

(* edges the lowering never makes: a branch with both arms on one block, a
   switch naming one target twice, and an edge to a block that is not there
   (predecessor lists are ascending and hold each predecessor once) *)
let test_cfg_preds_hand_built () =
  let block term = { Ir.b_instrs = []; b_term = term } in
  let fn blocks =
    {
      Ir.fn_name = "f";
      fn_params = [];
      fn_entry = 0;
      fn_blocks = Ir.Imap.of_seq (List.to_seq blocks);
      fn_next_var = 1;
      fn_next_label = 8;
      fn_var_names = Ir.Imap.empty;
      fn_static = false;
      fn_returns_value = false;
    }
  in
  let cases =
    [
      ( "br to one block twice",
        fn [ (0, block (Ir.Br (Ir.Reg 0, 3, 3))); (3, block (Ir.Ret None)) ],
        [ (0, []); (3, [ 0 ]) ] );
      ( "switch naming a target twice",
        fn
          [
            (0, block (Ir.Switch (Ir.Reg 0, [ (1, 5); (2, 2); (3, 5) ], 2)));
            (1, block (Ir.Jmp 5));
            (2, block (Ir.Jmp 5));
            (5, block (Ir.Ret None));
          ],
        [ (0, []); (1, []); (2, [ 0 ]); (5, [ 0; 1; 2 ]) ] );
      ( "dangling edge",
        fn [ (0, block (Ir.Br (Ir.Reg 0, 1, 42))); (1, block (Ir.Jmp 0)) ],
        [ (0, [ 1 ]); (1, [ 0 ]) ] );
    ]
  in
  List.iter
    (fun (name, f, expected) ->
      Alcotest.(check (list (pair int (list int))))
        name expected
        (Ir.Imap.bindings (Cfg.predecessors f));
      check_predecessors name f)
    cases

let test_cfg_rpo_starts_at_entry () =
  let fn = main_fn (lower diamond_src) in
  match Cfg.reverse_postorder fn with
  | entry :: _ -> Alcotest.(check int) "entry first" fn.Ir.fn_entry entry
  | [] -> Alcotest.fail "empty rpo"

let test_cfg_unreachable_removal () =
  let fn = main_fn (lower "int main(void) { return 0; if (1) { use(1); } return 1; }") in
  let cleaned = Cfg.remove_unreachable_blocks fn in
  Alcotest.(check bool) "blocks removed" true
    (Ir.Imap.cardinal cleaned.Ir.fn_blocks < Ir.Imap.cardinal fn.Ir.fn_blocks);
  Validate.func_exn Validate.Pre_ssa cleaned

(* ---- dominators ---- *)

let test_dom_diamond () =
  let fn = main_fn (lower diamond_src) in
  let dom = Dom.compute fn in
  let entry = fn.Ir.fn_entry in
  Ir.Imap.iter
    (fun l _ ->
      if Ir.Iset.mem l (Cfg.reachable fn) then
        Alcotest.(check bool) "entry dominates all" true (Dom.dominates dom entry l))
    fn.Ir.fn_blocks;
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom entry entry);
  (* the two arms do not dominate each other *)
  let preds = Cfg.predecessors fn in
  let join =
    Ir.Imap.fold (fun l ps acc -> if List.length ps = 2 then Some (l, ps) else acc) preds None
  in
  match join with
  | Some (j, [ a; b ]) ->
    Alcotest.(check bool) "arm a !dom join" false (Dom.strictly_dominates dom a j && Dom.strictly_dominates dom b j);
    Alcotest.(check bool) "arms do not dominate each other" false (Dom.dominates dom a b)
  | _ -> Alcotest.fail "no join"

let test_dom_frontier_join () =
  let fn = main_fn (lower diamond_src) in
  let dom = Dom.compute fn in
  let preds = Cfg.predecessors fn in
  let join =
    Ir.Imap.fold (fun l ps acc -> if List.length ps = 2 then Some (l, ps) else acc) preds None
  in
  match join with
  | Some (j, arms) ->
    List.iter
      (fun arm ->
        Alcotest.(check bool) "join in arm's frontier" true (List.mem j (Dom.frontier dom arm)))
      arms
  | None -> Alcotest.fail "no join"

let test_dom_preorder_covers () =
  let fn = main_fn (lower diamond_src) in
  let dom = Dom.compute fn in
  Alcotest.(check int) "preorder covers reachable blocks"
    (Ir.Iset.cardinal (Cfg.reachable fn))
    (List.length (Dom.dom_tree_preorder dom))

(* ---- ssa ---- *)

let test_ssa_validates_and_preserves () =
  let srcs = [
    diamond_src;
    {|
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 10; i++) { if (i & 1) { s += i; } else { s += 2; } }
  return s;
}
|};
    {|
int g;
int main(void) {
  int x = 0;
  while (x < 3 && g < 100) { g = g + x; x = x + 1; }
  return g;
}
|};
  ] in
  List.iter
    (fun src ->
      let ir = lower src in
      let ssa = Ssa.construct_program ir in
      Validate.program_exn Validate.Ssa ssa;
      check_equivalent ~name:"ssa" ir ssa)
    srcs

let test_ssa_loop_has_phi () =
  let ir = lower {|
int main(void) { int i = 0; while (i < 5) { i = i + 1; } return i; }
|} in
  let ssa = Ssa.construct_program ir in
  let fn = main_fn ssa in
  let phis = ref 0 in
  Ir.iter_instrs
    (fun _ i -> match i with Ir.Def (_, Ir.Phi _) -> incr phis | _ -> ())
    fn;
  Alcotest.(check bool) "at least one phi" true (!phis >= 1)

let test_ssa_single_defs () =
  let ssa = Ssa.construct_program (lower diamond_src) in
  let fn = main_fn ssa in
  let defs = Hashtbl.create 32 in
  Ir.iter_instrs
    (fun _ i ->
      match Ir.def_of_instr i with
      | Some v ->
        Alcotest.(check bool) "single definition" false (Hashtbl.mem defs v);
        Hashtbl.replace defs v ()
      | None -> ())
    fn

(* ---- loops ---- *)

let test_loops_detection () =
  let fn = main_fn (lower {|
int main(void) {
  int i;
  int j;
  int s = 0;
  for (i = 0; i < 3; i++) { for (j = 0; j < 2; j++) { s += 1; } }
  return s;
}
|}) in
  let fn = Dce_ir.Ssa.construct fn in
  let loops = Loops.natural_loops fn in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  (match loops with
   | [ inner; outer ] ->
     Alcotest.(check bool) "innermost first" true
       (Ir.Iset.cardinal inner.Loops.body < Ir.Iset.cardinal outer.Loops.body);
     Alcotest.(check bool) "nested" true (Ir.Iset.subset inner.Loops.body outer.Loops.body)
   | _ -> Alcotest.fail "expected two loops");
  let depths = Loops.loop_depth fn in
  let max_depth = Ir.Imap.fold (fun _ d acc -> max d acc) depths 0 in
  Alcotest.(check int) "max nesting depth" 2 max_depth

let test_loops_none () =
  let fn = main_fn (lower "int main(void) { return 1; }") in
  Alcotest.(check int) "no loops" 0 (List.length (Loops.natural_loops fn))

(* ---- validate ---- *)

let test_validate_catches_dangling_target () =
  let fn = main_fn (lower "int main(void) { return 0; }") in
  let broken =
    { fn with Ir.fn_blocks = Ir.Imap.add 999 { Ir.b_instrs = []; b_term = Ir.Jmp 12345 } fn.Ir.fn_blocks }
  in
  match Validate.func Validate.Pre_ssa broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dangling target not caught"

let test_validate_catches_double_def_in_ssa () =
  let fn = main_fn (lower "int main(void) { int x = 1; x = 2; return x; }") in
  match Validate.func Validate.Ssa fn with
  | Error _ -> () (* pre-SSA code has multiple defs *)
  | Ok () -> Alcotest.fail "double definition not caught in SSA mode"

let test_validate_catches_undefined_use () =
  let fn = main_fn (lower "int main(void) { return 0; }") in
  let broken =
    {
      fn with
      Ir.fn_blocks =
        Ir.Imap.map
          (fun b -> { b with Ir.b_term = Ir.Ret (Some (Ir.Reg 424242)) })
          fn.Ir.fn_blocks;
    }
  in
  match Validate.func Validate.Pre_ssa broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undefined register not caught"

(* ---- printer ---- *)

let test_printer_mentions_markers () =
  let ir = lower "int main(void) { DCEMarker7(); return 0; }" in
  let text = Dce_ir.Printer.program_to_string ir in
  Alcotest.(check bool) "marker printed" true (contains text "marker 7")

(* Regtab against an Imap reference: keys past the initial size grow the
   table, negative keys read the default and refuse a write, and writing the
   default value reads back like any other *)
let regtab_matches_imap (size, default, ops) =
  let module R = Dce_ir.Regtab in
  let t = R.create size default in
  let expect r k = Option.value ~default (Ir.Imap.find_opt k r) in
  let final =
    List.fold_left
      (fun r (is_set, (k, v)) ->
        if not is_set then begin
          if R.get t k <> expect r k then QCheck2.Test.fail_reportf "get %d" k;
          r
        end
        else if k < 0 then
          match R.set t k v with
          | () -> QCheck2.Test.fail_reportf "set %d accepted" k
          | exception Invalid_argument _ -> r
        else begin
          R.set t k v;
          Ir.Imap.add k v r
        end)
      Ir.Imap.empty ops
  in
  for k = -80 to 400 do
    if R.get t k <> expect final k then QCheck2.Test.fail_reportf "final get %d" k
  done;
  true

(* qcheck: SSA construction preserves behaviour on generated programs *)
let qcheck_tests =
  [
    qtest ~count:300 "regtab: set/get agree with an Imap"
      QCheck2.Gen.(
        triple (int_range 0 100) (int_range (-2) 2)
          (list_size (int_range 0 200) (pair bool (pair (int_range (-80) 400) (int_range (-2) 2)))))
      regtab_matches_imap;
    qtest ~count:25 "ssa: validates and preserves behaviour (generated)"
      QCheck2.Gen.(int_range 1 100000)
      (fun seed ->
        let ir = Dce_ir.Lower.program (smith_program seed) in
        let ssa = Ssa.construct_program ir in
        (match Validate.program Validate.Ssa ssa with Ok () -> () | Error e -> failwith (String.concat ";" e));
        Dce_interp.Interp.equivalent_strict (Dce_interp.Interp.run ir) (Dce_interp.Interp.run ssa));
  ]

let suite =
  [
    ("lower: validates", `Quick, test_lower_validates);
    ("lower: short-circuit", `Quick, test_lower_short_circuit_semantics);
    ("lower: array decay", `Quick, test_lower_array_decay);
    ("lower: address-taken local", `Quick, test_lower_address_taken_local);
    ("lower: address-taken parameter", `Quick, test_lower_param_address_taken);
    ("lower: zero-initialized locals", `Quick, test_lower_locals_zero_init);
    ("lower: switch implicit break", `Quick, test_lower_switch_implicit_break);
    ("lower: break targets switch", `Quick, test_lower_break_in_switch_in_loop);
    ("lower: continue runs for-step", `Quick, test_lower_continue_in_for_runs_step);
    ("lower: implicit return 0", `Quick, test_lower_fallthrough_returns_zero);
    ("lower: marker block mapping", `Quick, test_marker_blocks);
    ("cfg: predecessors", `Quick, test_cfg_preds);
    ("cfg: predecessors of duplicate and dangling edges", `Quick, test_cfg_preds_hand_built);
    ("cfg: rpo starts at entry", `Quick, test_cfg_rpo_starts_at_entry);
    ("cfg: unreachable removal", `Quick, test_cfg_unreachable_removal);
    ("dom: diamond", `Quick, test_dom_diamond);
    ("dom: frontier at join", `Quick, test_dom_frontier_join);
    ("dom: preorder covers", `Quick, test_dom_preorder_covers);
    ("ssa: validates and preserves", `Quick, test_ssa_validates_and_preserves);
    ("ssa: loop introduces phi", `Quick, test_ssa_loop_has_phi);
    ("ssa: single definitions", `Quick, test_ssa_single_defs);
    ("loops: nested detection", `Quick, test_loops_detection);
    ("loops: none", `Quick, test_loops_none);
    ("validate: dangling target", `Quick, test_validate_catches_dangling_target);
    ("validate: double def in SSA", `Quick, test_validate_catches_double_def_in_ssa);
    ("validate: undefined use", `Quick, test_validate_catches_undefined_use);
    ("printer: markers visible", `Quick, test_printer_mentions_markers);
  ]
  @ qcheck_tests
