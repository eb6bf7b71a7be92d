(* The executors: VM-vs-interpreter differential soak, trap/fuel/Guard
   parity, allocator sanity, and the backend selector [Exec.run].  The
   interpreter is the oracle; the VM, and [Exec.run] whichever backend it
   picks, must produce bit-identical results — same outcome (including trap
   messages), same event list, same marker and block sets, same step
   count, same final-global checksums. *)

open Helpers
module Ir = Dce_ir.Ir
module I = Dce_interp.Interp
module E = Dce_exec
module Core = Dce_core
module Guard = Dce_support.Guard

let pp_outcome = function
  | I.Finished n -> Printf.sprintf "finished %d" n
  | I.Trap m -> Printf.sprintf "trap: %s" m
  | I.Out_of_fuel -> "out of fuel"

let explain_diff (a : I.result) (b : I.result) =
  if a.I.outcome <> b.I.outcome then
    Printf.sprintf "outcome: interp=%s vm=%s" (pp_outcome a.I.outcome) (pp_outcome b.I.outcome)
  else if a.I.events <> b.I.events then "event lists differ"
  else if not (Ir.Iset.equal a.I.executed_markers b.I.executed_markers) then "marker sets differ"
  else if not (Ir.Bset.equal a.I.executed_blocks b.I.executed_blocks) then "block sets differ"
  else if a.I.steps <> b.I.steps then
    Printf.sprintf "steps: interp=%d vm=%d" a.I.steps b.I.steps
  else if a.I.final_globals <> b.I.final_globals then "final globals differ"
  else "equal"

(* the VM end to end: bytecode compile, then run *)
let vm ?fuel ir = E.Bc_vm.run ?fuel (E.Bc_compile.program ir)

let check_parity ?fuel ~what ir =
  let ri = I.run ?fuel ir in
  let rv = vm ?fuel ir in
  if not (E.Exec.results_equal ri rv) then
    Alcotest.failf "%s: VM diverges from interpreter (%s)" what (explain_diff ri rv)

(* ---- differential soak over the corpus ---- *)

let soak_seeds = List.init 220 (fun i -> 1000 + (137 * i))

let test_soak_lowered () =
  List.iter
    (fun seed ->
      let prog = Core.Instrument.program (smith_program seed) in
      let ir = Dce_ir.Lower.program prog in
      check_parity ~fuel:300_000 ~what:(Printf.sprintf "seed %d (lowered)" seed) ir)
    soak_seeds

let test_soak_ssa () =
  (* SSA form exercises parallel phis *)
  List.iter
    (fun seed ->
      let prog = Core.Instrument.program (smith_program seed) in
      let ir = Dce_ir.Ssa.construct_program (Dce_ir.Lower.program prog) in
      check_parity ~fuel:300_000 ~what:(Printf.sprintf "seed %d (ssa)" seed) ir)
    (List.filteri (fun i _ -> i mod 2 = 0) soak_seeds)

let test_soak_optimized () =
  (* full pipelines: phis, unrolled loops, inlined calls, threaded jumps *)
  let levels = [ Dce_compiler.Level.O2; Dce_compiler.Level.O3 ] in
  let compilers = [ Dce_compiler.Gcc_sim.compiler; Dce_compiler.Llvm_sim.compiler ] in
  List.iter
    (fun seed ->
      let prog = Core.Instrument.program (smith_program seed) in
      List.iter
        (fun comp ->
          List.iter
            (fun level ->
              let ir = compile_ir comp level prog in
              check_parity ~fuel:300_000
                ~what:
                  (Printf.sprintf "seed %d (%s %s)" seed comp.Dce_compiler.Compiler.name
                     (Dce_compiler.Level.to_string level))
                ir)
            levels)
        compilers)
    (List.filteri (fun i _ -> i mod 5 = 0) soak_seeds)

let test_soak_default_fuel () =
  (* a handful at the real default fuel, so the 2M boundary is exercised *)
  List.iter
    (fun seed ->
      let prog = Core.Instrument.program (smith_program seed) in
      check_parity ~what:(Printf.sprintf "seed %d (default fuel)" seed)
        (Dce_ir.Lower.program prog))
    [ 1; 2; 3; 42; 77; 12345 ]

(* ---- source-level trap and fuel parity ---- *)

let trap_sources =
  [
    ("oob read", "int b[2]; int main(void) { int i = 5; return b[i]; }");
    ("oob write", "int b[2]; int main(void) { int i = 5; b[i] = 1; return 0; }");
    ("null deref", "int *p; int main(void) { return *p; }");
    ( "dangling frame",
      "int *p; static void f(void) { int x = 3; p = &x; } int main(void) { f(); return *p; }" );
    ("call depth", "static int f(int n) { return f(n + 1); } int main(void) { return f(0); }");
    ("ptr as index", "int a; int b[2]; int main(void) { return b[(int)&a]; }");
  ]

let test_trap_parity () =
  List.iter (fun (name, src) -> check_parity ~what:name (lower src)) trap_sources

let test_fuel_parity () =
  let ir = lower "int main(void) { int i = 0; while (1) { i = i + 1; } return i; }" in
  List.iter
    (fun fuel ->
      let ri = I.run ~fuel ir in
      let rv = vm ~fuel ir in
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d parity" fuel)
        true
        (E.Exec.results_equal ri rv);
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d exhausts" fuel)
        true
        (ri.I.outcome = I.Out_of_fuel))
    [ 1; 2; 100; 1000; 4096 ]

(* ---- hand-built IR: edge cases lowering can't produce ---- *)

let main_fn ir =
  match Ir.find_func ir "main" with Some f -> f | None -> Alcotest.fail "no main"

let test_missing_block_parity () =
  let ir = lower "int main(void) { return 0; }" in
  let fn = main_fn ir in
  let broken =
    Ir.update_func ir
      {
        fn with
        Ir.fn_blocks =
          Ir.Imap.map (fun b -> { b with Ir.b_term = Ir.Jmp 4242 }) fn.Ir.fn_blocks;
      }
  in
  check_parity ~what:"jump to missing block" broken;
  (match (vm broken).I.outcome with
   | I.Trap m -> Alcotest.(check string) "message" "jump to missing block L4242 in main" m
   | o -> Alcotest.failf "expected trap, got %s" (pp_outcome o));
  (* the missing target still counts as an entered block, like the oracle *)
  Alcotest.(check bool) "missing block recorded" true
    (Ir.Bset.mem ("main", 4242) (vm broken).I.executed_blocks)

let test_undefined_register_parity () =
  let ir = lower "int main(void) { return 0; }" in
  let fn = main_fn ir in
  let broken =
    Ir.update_func ir
      {
        fn with
        Ir.fn_blocks =
          Ir.Imap.map (fun b -> { b with Ir.b_term = Ir.Ret (Some (Ir.Reg 424242)) }) fn.Ir.fn_blocks;
      }
  in
  (* step counts may differ by design here (the VM checks the sentinel
     before the op's tick), so compare outcome only *)
  let ri = I.run broken in
  let rv = vm broken in
  Alcotest.(check bool) "both trap on undefined register" true
    (ri.I.outcome = rv.I.outcome);
  match rv.I.outcome with
  | I.Trap m -> Alcotest.(check string) "message" "read of undefined register %424242 in main" m
  | o -> Alcotest.failf "expected trap, got %s" (pp_outcome o)

let test_switch_on_pointer_parity () =
  let ir = lower "int a; int main(void) { int *p = &a; return 0; }" in
  let fn = main_fn ir in
  (* rewrite: switch on the pointer register; find the Def of the Addr *)
  let ptr_reg = ref None in
  Ir.iter_instrs
    (fun _ i ->
      match i with Ir.Def (v, Ir.Addr _) -> ptr_reg := Some v | _ -> ())
    fn;
  match !ptr_reg with
  | None -> Alcotest.fail "no address definition found"
  | Some v ->
    let entry = Ir.block fn fn.Ir.fn_entry in
    let broken =
      Ir.update_func ir
        {
          fn with
          Ir.fn_blocks =
            Ir.Imap.add fn.Ir.fn_entry
              { entry with Ir.b_term = Ir.Switch (Ir.Reg v, [ (0, fn.Ir.fn_entry) ], fn.Ir.fn_entry) }
              fn.Ir.fn_blocks;
        }
    in
    check_parity ~what:"switch on pointer" broken

let test_arity_mismatch_parity () =
  let ir = lower "static int f(int a, int b) { return a + b; } int main(void) { return f(1, 2); }" in
  let fn = main_fn ir in
  let broken =
    Ir.update_func ir
      {
        fn with
        Ir.fn_blocks =
          Ir.Imap.map
            (fun b ->
              {
                b with
                Ir.b_instrs =
                  List.map
                    (function
                      | Ir.Call (res, "f", _ :: rest) -> Ir.Call (res, "f", rest)
                      | i -> i)
                    b.Ir.b_instrs;
              })
            fn.Ir.fn_blocks;
      }
  in
  check_parity ~what:"arity mismatch" broken

let test_phi_edge_cases_parity () =
  (* phi in entry block *)
  let ir = lower "int main(void) { return 0; }" in
  let fn = main_fn ir in
  let with_entry_phi =
    let entry = Ir.block fn fn.Ir.fn_entry in
    Ir.update_func ir
      {
        fn with
        Ir.fn_blocks =
          Ir.Imap.add fn.Ir.fn_entry
            {
              entry with
              Ir.b_instrs =
                Ir.Def (fn.Ir.fn_next_var, Ir.Phi [ (0, Ir.Const 1) ]) :: entry.Ir.b_instrs;
            }
            fn.Ir.fn_blocks;
        Ir.fn_next_var = fn.Ir.fn_next_var + 1;
      }
  in
  check_parity ~what:"phi in entry block" with_entry_phi;
  (* phi lacking an argument for the actual predecessor *)
  let ir2 = lower "int main(void) { int x = 0; if (x) { x = 1; } return x; }" in
  let fn2 = main_fn (Ir.map_func Dce_ir.Ssa.construct ir2) in
  let ssa_ir = Ir.update_func ir2 fn2 in
  let broken_phi =
    Ir.update_func ssa_ir
      {
        fn2 with
        Ir.fn_blocks =
          Ir.Imap.map
            (fun b ->
              {
                b with
                Ir.b_instrs =
                  List.map
                    (function
                      | Ir.Def (v, Ir.Phi ((_ :: _ :: _) as args)) ->
                        Ir.Def (v, Ir.Phi [ List.hd args ])
                      | i -> i)
                    b.Ir.b_instrs;
              })
            fn2.Ir.fn_blocks;
      }
  in
  check_parity ~what:"phi missing predecessor arg" broken_phi

let test_no_main_parity () =
  let ir = lower "static int f(void) { return 1; } int f2(void) { return 2; }" in
  check_parity ~what:"no main" ir

(* ---- Guard step-budget parity ---- *)

let test_guard_budget_parity () =
  let ir = lower "int main(void) { int i = 0; while (1) { i = i + 1; } return i; }" in
  let trip run =
    try
      Guard.with_guard (Guard.create ~steps:40 ()) (fun () -> ignore (run ir));
      Alcotest.fail "expected Budget_exceeded"
    with Guard.Budget_exceeded { site; steps; _ } -> (site, steps)
  in
  let si, ni = trip (fun ir -> I.run ir) in
  let sv, nv = trip (fun ir -> vm ir) in
  Alcotest.(check string) "interp site" "interp" si;
  Alcotest.(check string) "vm site" "vm" sv;
  (* both backends poll at the same execution steps, so the budget trips
     after the same number of polls *)
  Alcotest.(check int) "polls served" ni nv

(* ---- allocator sanity ---- *)

let test_allocation_sanity () =
  List.iter
    (fun seed ->
      let prog = Core.Instrument.program (smith_program seed) in
      let cp = E.Bc_compile.program (Dce_ir.Lower.program prog) in
      Array.iter
        (fun cf ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s: slots within bound" seed cf.E.Bc.cf_name)
            true
            (cf.E.Bc.cf_nregs <= cf.E.Bc.cf_nvars))
        cp.E.Bc.cp_funcs)
    (List.filteri (fun i _ -> i mod 10 = 0) soak_seeds);
  (* disjoint lifetimes share a slot: the allocator must beat one-slot-
     per-register on a straight line of short-lived temporaries *)
  let ir =
    lower
      {|
int g;
int main(void) {
  int a = 1; g = a;
  int b = 2; g = b;
  int c = 3; g = c;
  int d = 4; g = d;
  return g;
}
|}
  in
  let cp = E.Bc_compile.program ir in
  let cf = cp.E.Bc.cp_funcs.(0) in
  Alcotest.(check bool) "coalesces disjoint lifetimes" true (cf.E.Bc.cf_nregs < cf.E.Bc.cf_nvars)

(* ---- campaign ground truth is the interpreter's ---- *)

let test_campaign_report_parity () =
  (* every case's ground truth, whichever backend [Exec.run] picked for it,
     must be what the reference interpreter computes, and the rendered
     report tables must be byte-identical at any worker count *)
  let module Stats = Dce_report.Stats in
  let tables c =
    let st = Dce_campaign.Corpus.stats c in
    (Stats.table1 st, Stats.table2 st, Stats.attribution_table st)
  in
  let seed = 20220228 and count = 12 in
  let reference = Dce_campaign.Corpus.run ~jobs:1 ~seed ~count () in
  List.iter
    (fun (i, (outcome, raw)) ->
      let ri = I.run (Dce_ir.Lower.program (Core.Instrument.program raw)) in
      match (outcome, ri.I.outcome) with
      | Core.Analysis.Analyzed a, I.Finished _ ->
        let truth = a.Core.Analysis.truth in
        Alcotest.(check bool)
          (Printf.sprintf "case %d: alive markers" i)
          true
          (Ir.Iset.equal truth.Core.Ground_truth.alive ri.I.executed_markers);
        Alcotest.(check bool)
          (Printf.sprintf "case %d: live blocks" i)
          true
          (Ir.Bset.equal truth.Core.Ground_truth.live_blocks ri.I.executed_blocks);
        Alcotest.(check int) (Printf.sprintf "case %d: steps" i) ri.I.steps
          truth.Core.Ground_truth.steps
      | Core.Analysis.Rejected _, (I.Trap _ | I.Out_of_fuel) -> ()
      | _, o -> Alcotest.failf "case %d: campaign verdict disagrees with interp (%s)" i (pp_outcome o))
    (Dce_campaign.Corpus.outcomes reference);
  let r1, r2, rattr = tables reference in
  List.iter
    (fun jobs ->
      let t1, t2, attr = tables (Dce_campaign.Corpus.run ~jobs ~seed ~count ()) in
      Alcotest.(check string) (Printf.sprintf "table1 (jobs=%d)" jobs) r1 t1;
      Alcotest.(check string) (Printf.sprintf "table2 (jobs=%d)" jobs) r2 t2;
      Alcotest.(check string) (Printf.sprintf "attribution (jobs=%d)" jobs) rattr attr)
    [ 3; 4 ]

(* ---- the backend selector: Exec.run = Interp.run at the same fuel ---- *)

(* a loop of [n] iterations: its step count grows linearly with [n]
   (≈7 steps per iteration) *)
let loop_src n =
  Printf.sprintf
    "int g; int main(void) { int i = 0; while (i < %d) { g = g + i; i = i + 1; } return g & 255; }"
    n

(* [Exec.run] must return exactly [Interp.run]'s result at the same fuel *)
let check_selector ?fuel ~what ir =
  let ri = I.run ?fuel ir in
  let re = E.Exec.run ?fuel ir in
  if not (E.Exec.results_equal ri re) then
    Alcotest.failf "%s: Exec.run diverges from Interp.run (%s)" what (explain_diff ri re);
  ri

let test_selector () =
  let finished r = match r.I.outcome with I.Finished _ -> true | _ -> false in
  let trapped r = match r.I.outcome with I.Trap _ -> true | _ -> false in
  let out_of_fuel r = r.I.outcome = I.Out_of_fuel in
  List.iter
    (fun (what, fuel, src, expected) ->
      let r = check_selector ?fuel ~what (lower src) in
      if not (expected r) then
        Alcotest.failf "%s: unexpected run (%s after %d steps)" what (pp_outcome r.I.outcome)
          r.I.steps)
    [
      ("finishes under the hand-off", None, loop_src 10, fun r -> finished r && r.I.steps < 4096);
      ("finishes past the hand-off", None, loop_src 1500, fun r -> finished r && r.I.steps > 8000);
      ( "exhausts the default fuel",
        None,
        "int main(void) { int i = 0; while (1) { i = i + 1; } return i; }",
        out_of_fuel );
      ( "traps past the hand-off",
        None,
        "int b[2]; int main(void) { int i = 0; while (i < 2000) { i = i + 1; } return b[i]; }",
        fun r -> trapped r && r.I.steps > 4096 );
      (* a caller fuel below the hand-off point is the interpreter's to spend *)
      ("caller fuel 1000, long run", Some 1000, loop_src 1500, out_of_fuel);
      ("caller fuel 1000, short run", Some 1000, loop_src 10, finished);
    ]

let test_selector_guard_polls () =
  (* polls served by a guard that never trips *)
  let polls run ir =
    let g = Guard.create ~steps:1_000_000 () in
    Guard.with_guard g (fun () -> ignore (run ir));
    Guard.steps_used g
  in
  let short = lower (loop_src 300) in
  let ni = polls (fun ir -> I.run ir) short in
  Alcotest.(check bool) "short run polls" true (ni > 0);
  Alcotest.(check int) "short run: same polls as Interp.run" ni (polls E.Exec.run short);
  (* a handed-off run polls again from the VM's start: the 15 polls of the
     interpreter leg's 4095 steps count twice *)
  let long = lower (loop_src 1500) in
  Alcotest.(check int) "handed-off run: 15 extra polls" (polls (fun ir -> I.run ir) long + 15)
    (polls E.Exec.run long)

let test_disasm_smoke () =
  let cp = E.Bc_compile.program (lower "int main(void) { return 40 + 2; }") in
  let text = E.Bc.disasm cp.E.Bc.cp_funcs.(0) in
  Alcotest.(check bool) "mentions entry" true (contains text "enter L");
  Alcotest.(check bool) "mentions ret" true (contains text "ret")

let suite =
  [
    Alcotest.test_case "soak: lowered corpus" `Slow test_soak_lowered;
    Alcotest.test_case "soak: ssa corpus" `Slow test_soak_ssa;
    Alcotest.test_case "soak: optimized corpus" `Slow test_soak_optimized;
    Alcotest.test_case "soak: default fuel" `Slow test_soak_default_fuel;
    Alcotest.test_case "trap parity" `Quick test_trap_parity;
    Alcotest.test_case "fuel parity" `Quick test_fuel_parity;
    Alcotest.test_case "missing block" `Quick test_missing_block_parity;
    Alcotest.test_case "undefined register" `Quick test_undefined_register_parity;
    Alcotest.test_case "switch on pointer" `Quick test_switch_on_pointer_parity;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch_parity;
    Alcotest.test_case "phi edge cases" `Quick test_phi_edge_cases_parity;
    Alcotest.test_case "no main" `Quick test_no_main_parity;
    Alcotest.test_case "guard budget parity" `Quick test_guard_budget_parity;
    Alcotest.test_case "allocation sanity" `Quick test_allocation_sanity;
    Alcotest.test_case "campaign report parity" `Slow test_campaign_report_parity;
    Alcotest.test_case "selector: Exec.run = Interp.run" `Quick test_selector;
    Alcotest.test_case "selector: guard polls" `Quick test_selector_guard_polls;
    Alcotest.test_case "disassembler" `Quick test_disasm_smoke;
  ]
