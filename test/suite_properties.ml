(* Cross-cutting properties and per-challenge-kind expectations: the
   system-level invariants that make the evaluation trustworthy. *)

open Helpers
module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module S = Dce_smith.Smith

(* ---- per-kind expectations (the designed asymmetry matrix) ---- *)

(* generate a few single-kind programs and measure which configs miss *)
let kind_missed kind seeds =
  let dead_total = ref 0 in
  let missed = Hashtbl.create 16 in
  List.iter
    (fun seed ->
      let cfg = { (S.default_config seed) with S.weights = [ (kind, 1) ]; num_sites = 3 } in
      let prog, _ = S.generate cfg in
      match Core.Analysis.run prog with
      | Core.Analysis.Rejected r -> Alcotest.failf "rejected: %s" r
      | Core.Analysis.Analyzed a ->
        dead_total :=
          !dead_total + Ir.Iset.cardinal a.Core.Analysis.truth.Core.Ground_truth.dead;
        List.iter
          (fun pc ->
            let key = (pc.Core.Analysis.cfg_compiler, pc.Core.Analysis.cfg_level) in
            Hashtbl.replace missed key
              (Ir.Iset.cardinal pc.Core.Analysis.missed
              + Option.value ~default:0 (Hashtbl.find_opt missed key)))
          a.Core.Analysis.configs)
    seeds;
  fun comp level ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt missed (comp, level)))
    /. float_of_int (max 1 !dead_total)

let seeds = [ 1009; 2003; 3001 ]

let test_kind_global_samestore () =
  let m = kind_missed S.K_global_samestore seeds in
  (* the Listing 4 asymmetry at corpus level *)
  Alcotest.(check bool) "gcc misses most" true (m "gcc-sim" C.Level.O3 > 0.15);
  Alcotest.(check bool) "llvm eliminates all" true (m "llvm-sim" C.Level.O3 = 0.0)

let test_kind_global_diffstore () =
  let m = kind_missed S.K_global_diffstore seeds in
  Alcotest.(check bool) "both miss" true
    (m "gcc-sim" C.Level.O3 > 0.15 && m "llvm-sim" C.Level.O3 > 0.15)

let test_kind_uniform_array () =
  let m = kind_missed S.K_uniform_array seeds in
  Alcotest.(check bool) "gcc misses (bug 80603)" true (m "gcc-sim" C.Level.O3 > 0.15);
  Alcotest.(check bool) "llvm folds" true (m "llvm-sim" C.Level.O3 = 0.0)

let test_kind_ptr_loop_regression () =
  let m = kind_missed S.K_ptr_loop seeds in
  (* the Listing 9e level shape: O2 catches, the -O3 vectorizer loses it *)
  Alcotest.(check bool) "gcc O2 eliminates" true (m "gcc-sim" C.Level.O2 = 0.0);
  Alcotest.(check bool) "gcc O3 regresses" true (m "gcc-sim" C.Level.O3 > 0.15);
  Alcotest.(check bool) "llvm O3 fine" true (m "llvm-sim" C.Level.O3 = 0.0)

let test_kind_loop_guard_regression () =
  let m = kind_missed S.K_loop_guard seeds in
  (* the Listing 7 level shape for llvm *)
  Alcotest.(check bool) "llvm O2 eliminates" true (m "llvm-sim" C.Level.O2 = 0.0);
  Alcotest.(check bool) "llvm O3 regresses" true (m "llvm-sim" C.Level.O3 > 0.15);
  Alcotest.(check bool) "gcc O3 fine" true (m "gcc-sim" C.Level.O3 = 0.0)

let test_kind_ipa_arg () =
  let m = kind_missed S.K_ipa_arg seeds in
  Alcotest.(check bool) "O1 misses (no ipa-cp, callee too big)" true
    (m "gcc-sim" C.Level.O1 > 0.15);
  Alcotest.(check bool) "Os eliminates via ipa-cp" true (m "gcc-sim" C.Level.Os = 0.0)

let test_kind_addr_cmp () =
  let m = kind_missed S.K_addr_cmp seeds in
  Alcotest.(check bool) "gcc folds all" true (m "gcc-sim" C.Level.O3 = 0.0);
  Alcotest.(check bool) "llvm misses the non-zero offsets" true
    (m "llvm-sim" C.Level.O3 > 0.2)

(* ---- soundness & pipeline properties over random corpora ---- *)

let qcheck_tests =
  let gen_seed = QCheck2.Gen.(int_range 1 10000000) in
  [
    qtest ~count:15 "soundness: alive markers are never eliminated" gen_seed (fun seed ->
        let prog = smith_program seed in
        match Core.Analysis.run prog with
        | Core.Analysis.Rejected _ -> true
        | Core.Analysis.Analyzed a -> Core.Analysis.soundness_violations a = []);
    qtest ~count:15 "primary missed is a subset of missed" gen_seed (fun seed ->
        let prog = smith_program seed in
        match Core.Analysis.run prog with
        | Core.Analysis.Rejected _ -> true
        | Core.Analysis.Analyzed a ->
          List.for_all
            (fun pc ->
              Ir.Iset.subset pc.Core.Analysis.primary_missed pc.Core.Analysis.missed)
            a.Core.Analysis.configs);
    qtest ~count:10 "compilation is deterministic" gen_seed (fun seed ->
        let prog = Core.Instrument.program (smith_program seed) in
        let a = markers_of C.Gcc_sim.compiler C.Level.O3 prog in
        let b = markers_of C.Gcc_sim.compiler C.Level.O3 prog in
        a = b);
    qtest ~count:10 "assembly scan agrees with the optimized IR" gen_seed (fun seed ->
        (* the observation channel (scanning pseudo-asm for callq DCEMarkerN)
           must report exactly the marker instructions left in the IR *)
        let prog = Core.Instrument.program (smith_program seed) in
        let feats = C.Compiler.features C.Gcc_sim.compiler C.Level.O2 in
        let opt = C.Pipeline.run feats (Dce_ir.Lower.program prog) in
        let from_ir = List.sort_uniq compare (Ir.program_marker_ids opt) in
        let from_asm =
          Dce_backend.Asm.surviving_markers (Dce_backend.Codegen.program opt)
        in
        from_ir = from_asm);
    qtest ~count:10 "surviving markers are a subset of instrumented markers" gen_seed
      (fun seed ->
        let prog = Core.Instrument.program (smith_program seed) in
        let all = Dce_minic.Ast.markers_of_program prog in
        List.for_all
          (fun m -> List.mem m all)
          (markers_of C.Llvm_sim.compiler C.Level.O3 prog));
    qtest ~count:8 "O0 misses a superset of O1's misses" gen_seed (fun seed ->
        (* O0 runs a strict subset of O1's pipeline, so anything O0 eliminates
           O1 eliminates too *)
        let prog = Core.Instrument.program (smith_program seed) in
        match Core.Ground_truth.compute prog with
        | Core.Ground_truth.Rejected _ -> true
        | Core.Ground_truth.Valid truth ->
          let missed level =
            let surv =
              List.fold_left
                (fun s m -> Ir.Iset.add m s)
                Ir.Iset.empty
                (markers_of C.Gcc_sim.compiler level prog)
            in
            Ir.Iset.inter surv truth.Core.Ground_truth.dead
          in
          Ir.Iset.subset (missed C.Level.O1) (missed C.Level.O0));
    qtest ~count:6 "reducer output always satisfies its predicate" gen_seed (fun seed ->
        let prog = Core.Instrument.program (smith_program seed) in
        match Core.Ground_truth.compute prog with
        | Core.Ground_truth.Rejected _ -> true
        | Core.Ground_truth.Valid truth -> (
          (* reduce any dead marker wrt ground truth (predicate: still dead) *)
          match Ir.Iset.choose_opt truth.Core.Ground_truth.dead with
          | None -> true
          | Some marker ->
            let predicate p =
              match Core.Ground_truth.compute p with
              | Core.Ground_truth.Valid t -> Ir.Iset.mem marker t.Core.Ground_truth.dead
              | Core.Ground_truth.Rejected _ -> false
            in
            let r = Dce_reduce.Reduce.reduce ~max_tests:120 ~predicate prog in
            predicate r.Dce_reduce.Reduce.program
            && r.Dce_reduce.Reduce.final_size <= r.Dce_reduce.Reduce.initial_size));
  ]

let suite =
  [
    ("kind: global-samestore (Listing 4)", `Slow, test_kind_global_samestore);
    ("kind: global-diffstore (Listing 6a)", `Slow, test_kind_global_diffstore);
    ("kind: uniform-array (Listing 9f)", `Slow, test_kind_uniform_array);
    ("kind: ptr-loop regression (Listing 9e)", `Slow, test_kind_ptr_loop_regression);
    ("kind: loop-guard regression (Listing 7)", `Slow, test_kind_loop_guard_regression);
    ("kind: ipa-arg", `Slow, test_kind_ipa_arg);
    ("kind: addr-cmp (Listing 3)", `Slow, test_kind_addr_cmp);
  ]
  @ qcheck_tests
