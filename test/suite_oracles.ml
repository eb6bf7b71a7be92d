(* The size and level-inversion oracles: unit tests on hand-built data,
   end-to-end campaign determinism/resume, reducer predicates, and QCheck
   properties (backend independence, render invariance). *)

open Helpers
module C = Dce_compiler
module Core = Dce_core
module D = Core.Differential
module Ir = Dce_ir.Ir
module Asm = Dce_backend.Asm
module Campaign = Dce_campaign
module O = Campaign.Oracle_campaign
module B = Campaign.Bisect_campaign
module Smith = Dce_smith.Smith

(* The oracles by hand, one compile per cell in its own session with or
   without the compile cache: the reference the campaigns' shared cached
   sessions must agree with. *)
let size_curve_of ?cache ~compilers prog =
  List.concat_map
    (fun (c : C.Compiler.t) ->
      List.map
        (fun level ->
          (c.C.Compiler.name, level, asm_size ?cache { D.compiler = c; level; version = None } prog))
        [ C.Level.Os; C.Level.O2 ])
    compilers

let inversions_of ?cache ~dead compiler prog =
  D.inversions ~dead
    (List.map
       (fun level -> (level, iset_of_list (markers_of ?cache compiler level prog)))
       O.inversion_levels)

(* ------------------------------------------------------------------ *)
(* Asm.size                                                            *)
(* ------------------------------------------------------------------ *)

let test_asm_size_counts_instructions () =
  let asm =
    {
      Asm.lines =
        [
          Asm.Label "main";
          Asm.Directive "globl main";
          Asm.Ins ("movq", [ "$1"; "%rax" ]);
          Asm.Ins ("callq", [ "DCEMarker0" ]);
          Asm.Label "L1";
          Asm.Ins ("retq", []);
        ];
    }
  in
  (* labels and directives assemble to no bytes: only Ins lines count *)
  Alcotest.(check int) "size" 3 (Asm.size asm);
  Alcotest.(check int) "size = instruction_count" (Asm.instruction_count asm) (Asm.size asm)

(* ------------------------------------------------------------------ *)
(* size_findings_of: hand-built curves, threshold edges                *)
(* ------------------------------------------------------------------ *)

let curve g_os g_o2 l_os l_o2 =
  [
    ("gcc-sim", C.Level.Os, g_os);
    ("gcc-sim", C.Level.O2, g_o2);
    ("llvm-sim", C.Level.Os, l_os);
    ("llvm-sim", C.Level.O2, l_o2);
  ]

let cross = function D.Size_cross _ -> true | D.Size_intra _ -> false
let intra f = not (cross f)

let test_size_cross_threshold_edges () =
  (* 125 vs 100 at ratio 1.25: exactly at the threshold fires *)
  let at = D.size_findings_of ~ratio:1.25 (curve 125 100 100 100) in
  Alcotest.(check int) "exactly at ratio fires" 1 (List.length (List.filter cross at));
  (match List.find cross at with
   | D.Size_cross { larger; larger_size; smaller; smaller_size; level } ->
     Alcotest.(check string) "larger compiler" "gcc-sim" larger;
     Alcotest.(check string) "smaller compiler" "llvm-sim" smaller;
     Alcotest.(check int) "larger size" 125 larger_size;
     Alcotest.(check int) "smaller size" 100 smaller_size;
     Alcotest.(check bool) "at -Os" true (level = C.Level.Os)
   | D.Size_intra _ -> Alcotest.fail "expected a cross finding");
  (* one instruction under the threshold does not *)
  let below = D.size_findings_of ~ratio:1.25 (curve 124 100 100 100) in
  Alcotest.(check int) "below ratio is silent" 0 (List.length (List.filter cross below));
  (* equal outputs never fire, even at ratio 1.0 (strictly-larger guard) *)
  let equal = D.size_findings_of ~ratio:1.0 (curve 100 100 100 100) in
  Alcotest.(check int) "equal sizes, ratio 1.0" 0 (List.length (List.filter cross equal));
  (* direction is symmetric: the larger side is found either way round *)
  let other = D.size_findings_of ~ratio:1.25 (curve 100 100 150 100) in
  (match List.find cross other with
   | D.Size_cross { larger; _ } -> Alcotest.(check string) "llvm larger" "llvm-sim" larger
   | D.Size_intra _ -> Alcotest.fail "expected a cross finding")

let test_size_intra_os_exceeds_own_o2 () =
  (* any strict excess of -Os over the same compiler's -O2 fires *)
  let f = D.size_findings_of ~ratio:9.9 (curve 101 100 100 100) in
  Alcotest.(check int) "strict excess fires regardless of ratio" 1
    (List.length (List.filter intra f));
  (match List.find intra f with
   | D.Size_intra { compiler; os_size; o2_size } ->
     Alcotest.(check string) "compiler" "gcc-sim" compiler;
     Alcotest.(check int) "os" 101 os_size;
     Alcotest.(check int) "o2" 100 o2_size
   | D.Size_cross _ -> Alcotest.fail "expected an intra finding");
  Alcotest.(check int) "equal is silent" 0
    (List.length (List.filter intra (D.size_findings_of (curve 100 100 100 100))));
  Alcotest.(check int) "-Os smaller is the expected case" 0
    (List.length (List.filter intra (D.size_findings_of (curve 90 100 80 100))));
  Alcotest.(check int) "both compilers can fire" 2
    (List.length (List.filter intra (D.size_findings_of (curve 120 100 130 100))))

(* A real, minimal intra gap: gcc-sim -O2 unrolls and folds this loop away,
   -Os (no unroll) keeps it — the shape the size-hunt reducer converges to. *)
let size_gap_src = "int main(void) { int t = 0; while (t < 1) { t = t + 1; } return 0; }"

let test_size_known_gap_real_program () =
  let prog = parse size_gap_src in
  let gcc = C.Gcc_sim.compiler in
  let os = asm_size { D.compiler = gcc; level = C.Level.Os; version = None } prog in
  let o2 = asm_size { D.compiler = gcc; level = C.Level.O2; version = None } prog in
  Alcotest.(check bool) "known gap: -Os strictly larger than own -O2" true (os > o2);
  let findings = D.size_findings_of (D.size_curve ~compilers:[ gcc ] prog) in
  Alcotest.(check bool) "intra finding reported" true
    (List.exists (function D.Size_intra { compiler = "gcc-sim"; _ } -> true | _ -> false)
       findings)

let test_size_routes_through_compile_cache () =
  let prog = parse size_gap_src in
  let gcc = C.Gcc_sim.compiler in
  C.Compiler.clear_caches ();
  let s1 = asm_size { D.compiler = gcc; level = C.Level.Os; version = None } prog in
  let c1 = (C.Compiler.cache_stats ()).C.Compiler.cs_surviving in
  let s2 = asm_size { D.compiler = gcc; level = C.Level.Os; version = None } prog in
  (* the sibling observable of the same compile is a hit, not a second
     pipeline: one cache entry answers both oracles *)
  let markers = markers_of ~cache:true gcc C.Level.Os prog in
  let c2 = (C.Compiler.cache_stats ()).C.Compiler.cs_surviving in
  Alcotest.(check int) "size stable" s1 s2;
  Alcotest.(check int) "one miss total" c1.C.Compile_cache.misses c2.C.Compile_cache.misses;
  Alcotest.(check bool) "two more hits" true
    (c2.C.Compile_cache.hits >= c1.C.Compile_cache.hits + 1);
  Alcotest.(check bool) "marker view agrees with uncached" true
    (markers = markers_of gcc C.Level.Os prog)

(* ------------------------------------------------------------------ *)
(* inversions: crafted per-level surviving sets                        *)
(* ------------------------------------------------------------------ *)

let test_inversions_crafted () =
  let dead = iset_of_list [ 1; 2; 3; 5 ] in
  let per_level =
    [
      (* marker 1: dead everywhere — monotone, no inversion.
         marker 2: eliminated at O1 only, survives O2/O3 — inversion O1→O3.
         marker 3: survives everywhere — plain miss, no inversion.
         marker 4: alive (not in dead) — ignored even though shape inverts.
         marker 5: eliminated at Os and O2, survives O3 — inversion Os→O3. *)
      (C.Level.O1, iset_of_list [ 3; 5 ]);
      (C.Level.Os, iset_of_list [ 2; 3; 4 ]);
      (C.Level.O2, iset_of_list [ 2; 3; 4 ]);
      (C.Level.O3, iset_of_list [ 2; 3; 4; 5 ]);
    ]
  in
  match D.inversions ~dead per_level with
  | [ a; b ] ->
    Alcotest.(check int) "first marker" 2 a.D.iv_marker;
    Alcotest.(check bool) "2: low O1" true (a.D.iv_low = C.Level.O1);
    Alcotest.(check bool) "2: high O3" true (a.D.iv_high = C.Level.O3);
    Alcotest.(check int) "second marker" 5 b.D.iv_marker;
    Alcotest.(check bool) "5: low Os" true (b.D.iv_low = C.Level.Os);
    Alcotest.(check bool) "5: high O3" true (b.D.iv_high = C.Level.O3)
  | other -> Alcotest.failf "expected exactly two inversions, got %d" (List.length other)

let test_inversions_empty_cases () =
  Alcotest.(check int) "no dead markers" 0
    (List.length (D.inversions ~dead:Ir.Iset.empty [ (C.Level.O1, iset_of_list [ 1 ]) ]));
  Alcotest.(check int) "single level cannot invert" 0
    (List.length
       (D.inversions ~dead:(iset_of_list [ 1 ]) [ (C.Level.O3, iset_of_list [ 1 ]) ]))

(* a corpus case known (deterministically) to carry a gcc-sim inversion:
   case 1 of the default campaign seed *)
let inversion_case = lazy (List.nth (Smith.corpus_seeds ~seed:20220228 ~count:2) 1)

let inversion_program () =
  Core.Instrument.program (fst (Smith.generate (Smith.default_config (Lazy.force inversion_case))))

let test_inversions_real_pipeline () =
  let prog = inversion_program () in
  match Core.Ground_truth.compute prog with
  | Core.Ground_truth.Rejected r -> Alcotest.failf "rejected: %s" r
  | Core.Ground_truth.Valid truth ->
    let dead = truth.Core.Ground_truth.dead in
    let invs = inversions_of ~dead C.Gcc_sim.compiler prog in
    Alcotest.(check bool) "gcc-sim inversions exist on this case" true (invs <> []);
    List.iter
      (fun iv ->
        Alcotest.(check bool) "low is strictly weaker" true
          (C.Level.rank iv.D.iv_low < C.Level.rank iv.D.iv_high);
        (* verify the claim against the raw compiler: dead at low, alive at high *)
        let surv l = markers_of C.Gcc_sim.compiler l prog in
        Alcotest.(check bool) "marker dead at low" false (List.mem iv.D.iv_marker (surv iv.D.iv_low));
        Alcotest.(check bool) "marker alive at high" true
          (List.mem iv.D.iv_marker (surv iv.D.iv_high)))
      invs

(* ------------------------------------------------------------------ *)
(* campaigns: jobs determinism, torn-journal resume                    *)
(* ------------------------------------------------------------------ *)

let temp_journal () = Filename.temp_file "dce-oracle-journal" ".jsonl"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncate_journal path ~cases =
  let lines = String.split_on_char '\n' (read_file path) in
  let kept = List.filteri (fun i _ -> i <= cases) lines in
  write_file path (String.concat "\n" kept ^ "\n{\"case\":99,\"stat")

let ratio = O.default_ratio

let test_size_campaign_jobs_determinism () =
  let run jobs = O.run_size ~jobs ~seed:4242 ~count:10 () in
  let a = run 1 and b = run 3 and c = run 4 in
  Alcotest.(check bool) "cases 1=3" true (a.result.outcomes = b.result.outcomes);
  Alcotest.(check bool) "cases 1=4" true (a.result.outcomes = c.result.outcomes);
  Alcotest.(check string) "report 1=3" (O.size_report ~ratio a) (O.size_report ~ratio b);
  Alcotest.(check string) "report 1=4" (O.size_report ~ratio a) (O.size_report ~ratio c)

let test_inversion_campaign_jobs_determinism () =
  let run jobs = O.run_inversion ~jobs ~seed:4242 ~count:10 () in
  let a = run 1 and b = run 3 and c = run 4 in
  Alcotest.(check bool) "cases 1=3" true (a.result.outcomes = b.result.outcomes);
  Alcotest.(check bool) "cases 1=4" true (a.result.outcomes = c.result.outcomes);
  Alcotest.(check string) "report 1=3" (O.inversion_report a) (O.inversion_report b);
  Alcotest.(check string) "report 1=4" (O.inversion_report a) (O.inversion_report c)

let test_size_campaign_resume () =
  let path = temp_journal () in
  let full = O.run_size ~journal:path ~jobs:1 ~seed:555 ~count:8 () in
  truncate_journal path ~cases:3;
  let resumed = O.run_size ~journal:path ~jobs:2 ~seed:555 ~count:8 () in
  Alcotest.(check int) "three size-cases restored" 3 resumed.result.resumed;
  Alcotest.(check bool) "cases equal after resume" true (full.result.outcomes = resumed.result.outcomes);
  Alcotest.(check string) "report equal after resume" (O.size_report ~ratio full)
    (O.size_report ~ratio resumed);
  Sys.remove path

(* inv_case holds Isets, whose AVL shape depends on insertion order:
   structural (=) would distinguish a decoded set from a live-computed
   equal one.  Compare through the canonical journal encoding instead. *)
let inv_cases_rendered t =
  Array.map
    (function
      | Campaign.Engine.Done c ->
        Campaign.Json.to_string (O.inv_codec.Campaign.Engine.encode c)
      | Campaign.Engine.Crashed q -> "crashed:" ^ string_of_int q.Campaign.Engine.q_case)
    t.Campaign.Engine.result.outcomes

let test_inversion_campaign_resume () =
  let path = temp_journal () in
  let full = O.run_inversion ~journal:path ~jobs:1 ~seed:555 ~count:8 () in
  truncate_journal path ~cases:3;
  let resumed = O.run_inversion ~journal:path ~jobs:2 ~seed:555 ~count:8 () in
  Alcotest.(check int) "three inversion-cases restored" 3 resumed.result.resumed;
  Alcotest.(check bool) "cases equal after resume" true
    (inv_cases_rendered full = inv_cases_rendered resumed);
  Alcotest.(check bool) "findings equal after resume" true
    (O.inversion_findings full = O.inversion_findings resumed);
  Alcotest.(check string) "report equal after resume" (O.inversion_report full)
    (O.inversion_report resumed);
  Sys.remove path

(* The inversion bisections, compared through their journal JSON (a
   commit carries an [apply] closure, so [=] on outcomes raises). *)
let inv_cases_json (b : B.t) =
  Array.to_list b.B.b_cases
  |> List.map (function
       | Campaign.Engine.Done r -> Campaign.Json.to_string (B.codec.Campaign.Engine.encode r)
       | Campaign.Engine.Crashed q -> Printf.sprintf "crashed:%d" q.Campaign.Engine.q_case)

let quarantined_cases (b : B.t) =
  List.sort compare (List.map (fun q -> q.Campaign.Engine.q_case) b.B.b_quarantine)

(* The inversion bisections run under the engine's budget policy: one
   step budget per case attempt, covering every finding of the case.  A
   budget above the costliest case's polls quarantines nothing and prints
   the same tables as no budget; a budget of one poll quarantines every
   case that has findings, each listed once. *)
let test_inversion_bisect_budget_per_case () =
  let t = O.run_inversion ~jobs:1 ~seed:4242 ~count:10 () in
  let findings = O.inversion_findings t in
  (* a bound on the polls one finding's bisection spends: its engine
     stages plus every stage of every from-scratch probe, which the
     campaign's cached session replays or skips *)
  let polls (ci, (f : O.inv_finding)) =
    let g = Dce_support.Guard.create ~steps:max_int () in
    Dce_support.Guard.with_guard g (fun () ->
        Dce_support.Guard.poll ~site:"regenerate";
        let prog =
          Core.Instrument.program (fst (Smith.generate (Smith.default_config t.seeds.(ci))))
        in
        Dce_support.Guard.poll ~site:"bisect";
        ignore
          (Dce_bisect.Bisect.find_regression_counted
             (Core.Analysis.compiler_of_name f.O.if_compiler)
             f.O.if_inversion.D.iv_high prog ~marker:f.O.if_inversion.D.iv_marker));
    (ci, Dce_support.Guard.steps_used g)
  in
  let costs = List.map polls findings in
  let cases = List.sort_uniq compare (List.map fst findings) in
  let case_cost ci =
    Dce_support.Listx.sum (List.filter_map (fun (c, n) -> if c = ci then Some n else None) costs)
  in
  let budget = 8 + List.fold_left (fun m ci -> max m (case_cost ci)) 0 cases in
  let run settings = B.inversions ~settings ~jobs:2 t in
  let tables b = B.summary b ^ B.component_tables b in
  let budgeted = run (Campaign.Settings.v ~step_budget:budget ()) in
  Alcotest.(check (list int)) "nothing quarantined" [] (quarantined_cases budgeted);
  Alcotest.(check string) "same tables as unbudgeted"
    (tables (run Campaign.Settings.default))
    (tables budgeted);
  let starved = run (Campaign.Settings.v ~step_budget:1 ()) in
  Alcotest.(check bool) "some case has findings" true (cases <> []);
  Alcotest.(check (list int)) "starved: every case with findings quarantined once" cases
    (quarantined_cases starved)

(* The inversion bisections number cases as the corpus does: a crash
   planted at the bisect stage of corpus case N quarantines exactly case
   N, and every other case's bisections equal a clean run's. *)
let test_inversion_bisect_chaos_names_corpus_case () =
  let t = O.run_inversion ~jobs:1 ~seed:4242 ~count:10 () in
  let clean = B.inversions ~jobs:1 t in
  let findings = O.inversion_findings t in
  let n = fst (List.nth findings (List.length findings / 2)) in
  let settings = Campaign.Settings.v ~chaos:(Printf.sprintf "crash@%d:bisect" n) () in
  let b = B.inversions ~settings ~jobs:2 t in
  Alcotest.(check (list int)) "exactly the planted corpus case" [ n ] (quarantined_cases b);
  List.iteri
    (fun i (x, y) -> if i <> n then Alcotest.(check string) (Printf.sprintf "case %d" i) x y)
    (List.combine (inv_cases_json clean) (inv_cases_json b))

let test_size_codec_round_trip () =
  let sc =
    {
      O.sc_seed = Lazy.force inversion_case;
      sc_rejected = None;
      sc_curve = curve 125 100 99 100;
    }
  in
  Alcotest.(check bool) "curve round-trips" true
    (O.size_codec.Campaign.Engine.decode (O.size_codec.Campaign.Engine.encode sc) = sc);
  let rej = { O.sc_seed = 3; sc_rejected = Some "trap: oops"; sc_curve = [] } in
  Alcotest.(check bool) "rejection round-trips" true
    (O.size_codec.Campaign.Engine.decode (O.size_codec.Campaign.Engine.encode rej) = rej)

let test_inv_codec_rederives_findings () =
  (* decode re-derives inversions from the journaled dead/surviving sets and
     joins the journaled guilty passes — a finding list survives untouched *)
  let ic =
    {
      O.ic_seed = 7;
      ic_rejected = None;
      ic_dead = iset_of_list [ 2; 5 ];
      ic_surviving =
        [
          ( "gcc-sim",
            [
              (C.Level.O1, iset_of_list []);
              (C.Level.Os, iset_of_list [ 2 ]);
              (C.Level.O2, iset_of_list [ 2 ]);
              (C.Level.O3, iset_of_list [ 2; 5 ]);
            ] );
        ];
      ic_findings =
        [
          {
            O.if_compiler = "gcc-sim";
            if_inversion = { D.iv_marker = 2; iv_low = C.Level.O1; iv_high = C.Level.O3 };
            if_guilty = "simplify-cfg";
          };
          {
            O.if_compiler = "gcc-sim";
            if_inversion = { D.iv_marker = 5; iv_low = C.Level.O1; iv_high = C.Level.O3 };
            if_guilty = "function-dce";
          };
        ];
    }
  in
  Alcotest.(check bool) "inversion case round-trips" true
    (O.inv_codec.Campaign.Engine.decode (O.inv_codec.Campaign.Engine.encode ic) = ic)

(* ------------------------------------------------------------------ *)
(* reducer predicates: the reduced program still trips its oracle      *)
(* ------------------------------------------------------------------ *)

module P = Dce_reduce.Predicate

let gcc_at l = { D.compiler = C.Gcc_sim.compiler; level = l; version = None }

let passes p prog = fst (P.run p prog) = P.Pass

let test_size_gap_predicate () =
  let p =
    P.size_gap ~compile_cache:true ~larger:(gcc_at C.Level.Os) ~smaller:(gcc_at C.Level.O2)
      ~min_ratio:1.0 ~min_gap:1 ()
  in
  Alcotest.(check bool) "gap program passes" true (passes p (parse size_gap_src));
  Alcotest.(check bool) "gapless program rejected" false
    (passes p (parse "int main(void) { return 0; }"));
  (* min_gap floors out tiny ratios: demand a bigger absolute gap than the
     program has and the same repro stops qualifying *)
  let strict =
    P.size_gap ~compile_cache:true ~larger:(gcc_at C.Level.Os) ~smaller:(gcc_at C.Level.O2)
      ~min_ratio:1.0 ~min_gap:10000 ()
  in
  Alcotest.(check bool) "absolute floor rejects" false (passes strict (parse size_gap_src))

let test_size_gap_reduction_preserves_gap () =
  let prog = parse size_gap_src in
  let predicate =
    P.size_gap ~compile_cache:true ~larger:(gcc_at C.Level.Os) ~smaller:(gcc_at C.Level.O2)
      ~min_ratio:1.0 ~min_gap:1 ()
  in
  let result = Dce_reduce.Engine.reduce ~max_tests:500 ~predicate prog in
  let reduced = result.Dce_reduce.Engine.program in
  Alcotest.(check bool) "reduced program still exhibits the size gap" true
    (passes predicate reduced);
  let os = asm_size (gcc_at C.Level.Os) reduced
  and o2 = asm_size (gcc_at C.Level.O2) reduced in
  Alcotest.(check bool) "gap visible in raw sizes" true (os > o2)

let first_gcc_inversion prog =
  match Core.Ground_truth.compute prog with
  | Core.Ground_truth.Rejected r -> Alcotest.failf "rejected: %s" r
  | Core.Ground_truth.Valid truth -> (
    match
      inversions_of ~dead:truth.Core.Ground_truth.dead C.Gcc_sim.compiler prog
    with
    | iv :: _ -> iv
    | [] -> Alcotest.fail "expected a gcc-sim inversion on the pinned case")

let test_level_inversion_predicate () =
  let prog = inversion_program () in
  let iv = first_gcc_inversion prog in
  let p =
    P.level_inversion ~compile_cache:true ~compiler:C.Gcc_sim.compiler ~low:iv.D.iv_low
      ~high:iv.D.iv_high ~marker:iv.D.iv_marker ()
  in
  Alcotest.(check bool) "inverted case passes" true (passes p prog);
  (* a marker that does not invert must be rejected *)
  let p_bogus =
    P.level_inversion ~compile_cache:true ~compiler:C.Gcc_sim.compiler ~low:iv.D.iv_low
      ~high:iv.D.iv_high ~marker:100000 ()
  in
  Alcotest.(check bool) "absent marker rejected" false (passes p_bogus prog)

let test_level_inversion_reduction_preserves_inversion () =
  let prog = inversion_program () in
  let iv = first_gcc_inversion prog in
  let predicate =
    P.level_inversion ~compile_cache:true ~compiler:C.Gcc_sim.compiler ~low:iv.D.iv_low
      ~high:iv.D.iv_high ~marker:iv.D.iv_marker ()
  in
  let result = Dce_reduce.Engine.reduce ~max_tests:600 ~jobs:2 ~predicate prog in
  let reduced = result.Dce_reduce.Engine.program in
  Alcotest.(check bool) "smaller or equal" true
    (result.Dce_reduce.Engine.final_size <= result.Dce_reduce.Engine.initial_size);
  Alcotest.(check bool) "reduced program still exhibits the inversion" true
    (passes predicate reduced);
  let surv l = markers_of C.Gcc_sim.compiler l reduced in
  Alcotest.(check bool) "low still eliminates" false (List.mem iv.D.iv_marker (surv iv.D.iv_low));
  Alcotest.(check bool) "high still keeps" true (List.mem iv.D.iv_marker (surv iv.D.iv_high))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_tests =
  let gen_seed = QCheck2.Gen.(int_range 1 10000000) in
  let compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ] in
  [
    qtest ~count:10 "size verdicts deterministic and cache-transparent" gen_seed (fun seed ->
        let prog = Core.Instrument.program (smith_program seed) in
        (* verdicts are a pure function of the curve *)
        let curve = D.size_curve ~compilers prog in
        curve = size_curve_of ~cache:false ~compilers prog
        && curve = size_curve_of ~cache:true ~compilers prog
        && curve = D.size_curve ~compilers prog);
    qtest ~count:10 "inversion verdicts independent of executor backend" gen_seed (fun seed ->
        (* ground truth through [Exec.run] gives the verdicts that the
           reference interpreter's dead set gives *)
        let prog = Core.Instrument.program (smith_program seed) in
        let invs dead = List.map (fun c -> inversions_of ~dead c prog) compilers in
        let r = Dce_interp.Interp.run (Dce_ir.Lower.program prog) in
        match (Core.Ground_truth.compute prog, r.Dce_interp.Interp.outcome) with
        | Core.Ground_truth.Valid truth, Dce_interp.Interp.Finished _ ->
          let all = truth.Core.Ground_truth.all in
          invs truth.Core.Ground_truth.dead
          = invs (Dce_ir.Ir.Iset.diff all r.Dce_interp.Interp.executed_markers)
        | Core.Ground_truth.Rejected _, (Dce_interp.Interp.Trap _ | Dce_interp.Interp.Out_of_fuel)
          ->
          true
        | _ -> false);
    qtest ~count:10 "inversions are cache-transparent" gen_seed (fun seed ->
        let prog = Core.Instrument.program (smith_program seed) in
        match Core.Ground_truth.compute prog with
        | Core.Ground_truth.Rejected _ -> true
        | Core.Ground_truth.Valid truth ->
          let dead = truth.Core.Ground_truth.dead in
          List.for_all
            (fun c ->
              inversions_of ~cache:true ~dead c prog = inversions_of ~cache:false ~dead c prog)
            compilers);
    qtest ~count:10 "Asm.size invariant under program re-rendering" gen_seed (fun seed ->
        (* print → parse → recheck must not change any emitted size: size is
           a function of the program, not of its concrete rendering *)
        let prog = Core.Instrument.program (smith_program seed) in
        let reparsed =
          Dce_minic.Typecheck.check_exn
            (Dce_minic.Parser.parse_program (Dce_minic.Pretty.program_to_string prog))
        in
        List.for_all
          (fun c ->
            List.for_all
              (fun level ->
                let cfg = { D.compiler = c; level; version = None } in
                asm_size ~cache:false cfg prog = asm_size ~cache:false cfg reparsed)
              C.Level.all)
          compilers);
  ]

let suite =
  [
    ("asm: size counts instructions only", `Quick, test_asm_size_counts_instructions);
    ("size: cross threshold edges", `Quick, test_size_cross_threshold_edges);
    ("size: -Os exceeding own -O2", `Quick, test_size_intra_os_exceeds_own_o2);
    ("size: known gap on a real program", `Quick, test_size_known_gap_real_program);
    ("size: routed through the compile cache", `Quick, test_size_routes_through_compile_cache);
    ("inversions: crafted surviving sets", `Quick, test_inversions_crafted);
    ("inversions: degenerate inputs", `Quick, test_inversions_empty_cases);
    ("inversions: real pipeline case", `Slow, test_inversions_real_pipeline);
    ("size campaign: jobs 1/3/4 byte-identical", `Slow, test_size_campaign_jobs_determinism);
    ( "inversion campaign: jobs 1/3/4 byte-identical",
      `Slow,
      test_inversion_campaign_jobs_determinism );
    ("size campaign: torn-journal resume", `Slow, test_size_campaign_resume);
    ("inversion campaign: torn-journal resume", `Slow, test_inversion_campaign_resume);
    ("inversion bisect: one budget per case", `Slow, test_inversion_bisect_budget_per_case);
    ( "inversion bisect: chaos names the corpus case",
      `Slow,
      test_inversion_bisect_chaos_names_corpus_case );
    ("size-case codec round-trip", `Quick, test_size_codec_round_trip);
    ("inversion-case codec re-derives findings", `Quick, test_inv_codec_rederives_findings);
    ("predicate: size gap stages", `Quick, test_size_gap_predicate);
    ("predicate: reduction preserves the size gap", `Slow, test_size_gap_reduction_preserves_gap);
    ("predicate: level inversion stages", `Slow, test_level_inversion_predicate);
    ( "predicate: reduction preserves the inversion",
      `Slow,
      test_level_inversion_reduction_preserves_inversion );
  ]
  @ qcheck_tests
