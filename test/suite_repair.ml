(* The closed loop (repair search → A/B verification → diff):

   - the seeded known-fixable regression: gcc-sim misses marker 34 of corpus
     program 1 at -O3; the search must find the guilty-component single-flag
     fix and the verification campaign must accept it with a clean diff
   - rejection: a candidate that fixes the repro but regresses other cases
     must be rejected by its campaign diff, and the loop must fall through
     to the next passing candidate
   - determinism: the repair record is byte-identical across jobs 1/3/4
   - campaign-diff: self-diff of a run is the empty verdict
   - Run_store: the persisted report round-trips through JSON

   Runs after the fabric suite (probe evaluation spawns domains at jobs>1);
   the workers>1 byte-identity of the verification campaign lives in
   suite_fabric, before the process is poisoned for fork. *)

module C = Dce_compiler
module Core = Dce_core
module Smith = Dce_smith.Smith
module Campaign = Dce_campaign
module Json = Campaign.Json
module Run_store = Campaign.Run_store
module Run_diff = Campaign.Run_diff
module Repair = Dce_repair

(* corpus program 1 of the default campaign seed: gcc-sim -O3 keeps dead
   marker 34 (the hunt's first primary finding) *)
let repro_seed = 20220228
let repro_marker = 34

let repro () =
  let seeds = Smith.corpus_seeds ~seed:repro_seed ~count:2 in
  let prog, _ = Smith.generate (Smith.default_config (List.nth seeds 1)) in
  Core.Instrument.program prog

let smoke_count = 6

let test_search_finds_guilty_fix () =
  let prog = repro () in
  (* precondition: the marker really is missed at HEAD *)
  Alcotest.(check bool) "repro misses the marker" true
    (List.mem repro_marker
       (Helpers.markers_of C.Gcc_sim.compiler C.Level.O3 prog));
  let s = Repair.Search.search C.Gcc_sim.compiler C.Level.O3 prog ~marker:repro_marker in
  Alcotest.(check bool) "guilty stage attributed" true (s.Repair.Search.so_guilty_stage <> None);
  Alcotest.(check bool) "a single-flag fix exists" true (s.Repair.Search.so_passing <> []);
  Alcotest.(check int) "singles sufficed: no pair probes" 0 s.Repair.Search.so_pairs;
  Alcotest.(check int) "probe count = singles" s.Repair.Search.so_singles
    s.Repair.Search.so_probes;
  (* the fix really eliminates the marker, and only edits levels >= O3 *)
  let edits = List.hd s.Repair.Search.so_passing in
  let patched = Repair.Edit.patched C.Gcc_sim.compiler ~level:C.Level.O3 edits in
  Alcotest.(check bool) "patched compiler eliminates the marker" false
    (List.mem repro_marker (Helpers.markers_of patched C.Level.O3 prog));
  Alcotest.(check bool) "weaker levels untouched" true
    (C.Compiler.features patched C.Level.O2 = C.Compiler.features C.Gcc_sim.compiler C.Level.O2);
  Alcotest.(check bool) "patched name embeds the edit signature" true
    (Helpers.contains patched.C.Compiler.name (Repair.Edit.signature edits))

let test_repair_found_and_verified () =
  let prog = repro () in
  let r =
    Repair.Driver.run ~seed:repro_seed ~count:smoke_count C.Gcc_sim.compiler C.Level.O3 prog
      ~marker:repro_marker
  in
  (match r.Repair.Driver.rr_accepted with
   | None -> Alcotest.fail "no repair accepted for the seeded fixable regression"
   | Some (edits, verdict) ->
     Alcotest.(check int) "minimal: a single edit" 1 (List.length edits);
     Alcotest.(check bool) "verdict is clean" false (Run_diff.has_regressions verdict);
     Alcotest.(check bool) "the repro's miss is among the fixed" true
       (List.exists
          (fun (m : Run_store.miss) ->
            m.Run_store.m_marker = repro_marker && m.Run_store.m_level = C.Level.O3
            && m.Run_store.m_compiler = "gcc-sim")
          verdict.Run_diff.d_fixed_misses);
     Alcotest.(check (list pass)) "no new misses" [] verdict.Run_diff.d_new_misses);
  Alcotest.(check bool) "first tried candidate was clean" true
    (match r.Repair.Driver.rr_tried with cv :: _ -> cv.Repair.Driver.cv_clean | [] -> false)

let test_destructive_candidate_rejected () =
  let prog = repro () in
  (* a saboteur "fix": strip every -O3 feature.  It trivially eliminates
     nothing and regresses everything, so its campaign diff must reject it
     and the loop must fall through to the search's own candidate. *)
  let sabotage =
    {
      Core.Diagnose.repair_name = "sabotage:strip-O3";
      repair_component = "pipeline";
      edit = (fun _ -> C.Features.nothing);
    }
  in
  let r =
    Repair.Driver.run ~seed:repro_seed ~count:smoke_count ~candidates:[ [ sabotage ] ]
      C.Gcc_sim.compiler C.Level.O3 prog ~marker:repro_marker
  in
  (match r.Repair.Driver.rr_tried with
   | first :: second :: _ ->
     Alcotest.(check bool) "saboteur rejected" false first.Repair.Driver.cv_clean;
     Alcotest.(check bool) "saboteur verdict has regressions" true
       (Run_diff.has_regressions first.Repair.Driver.cv_verdict);
     Alcotest.(check bool) "saboteur causes new misses" true
       (first.Repair.Driver.cv_verdict.Run_diff.d_new_misses <> []);
     Alcotest.(check bool) "next candidate accepted" true second.Repair.Driver.cv_clean
   | _ -> Alcotest.fail "expected the saboteur and one fallback candidate to be verified");
  match r.Repair.Driver.rr_accepted with
  | Some (edits, _) ->
    Alcotest.(check bool) "accepted repair is not the saboteur" true
      (List.for_all (fun e -> e.Core.Diagnose.repair_name <> "sabotage:strip-O3") edits)
  | None -> Alcotest.fail "fallback candidate should have been accepted"

let record_string r = Json.to_string (Repair.Driver.record_to_json r)

let test_repair_record_jobs_deterministic () =
  let prog = repro () in
  let run jobs =
    Repair.Driver.run ~jobs ~seed:repro_seed ~count:smoke_count C.Gcc_sim.compiler C.Level.O3
      prog ~marker:repro_marker
  in
  let r1 = record_string (run 1) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "repair record identical at jobs=%d" jobs)
        r1
        (record_string (run jobs)))
    [ 3; 4 ]

let test_campaign_diff_self_is_empty () =
  let v =
    Repair.Verify.campaign ~name:"self" ~seed:repro_seed ~count:4
      ~compilers:[ (C.Gcc_sim.compiler, "gcc-sim"); (C.Llvm_sim.compiler, "llvm-sim") ]
      ()
  in
  let verdict = Run_diff.diff v.Repair.Verify.vy_report v.Repair.Verify.vy_report in
  Alcotest.(check bool) "self-diff is empty" true (Run_diff.is_empty verdict);
  Alcotest.(check bool) "self-diff is clean" false (Run_diff.has_regressions verdict);
  Alcotest.(check bool) "render says identical" true
    (Helpers.contains (Run_diff.render verdict) "identical");
  (* and the verification campaign itself found real work to diff *)
  Alcotest.(check bool) "report has rows" true (v.Repair.Verify.vy_report.Run_store.r_misses <> [])

let test_run_store_report_round_trip () =
  let report =
    {
      Run_store.r_campaign = "rt";
      r_seed = 7;
      r_count = 3;
      r_compilers = [ "gcc-sim"; "llvm-sim" ];
      r_misses =
        [
          { Run_store.m_case = 2; m_compiler = "llvm-sim"; m_level = C.Level.O3; m_marker = 9 };
          { Run_store.m_case = 0; m_compiler = "gcc-sim"; m_level = C.Level.O1; m_marker = 4 };
        ];
      r_sizes =
        [ { Run_store.z_case = 1; z_compiler = "gcc-sim"; z_level = C.Level.Os; z_size = 33 } ];
      r_inversions =
        [
          {
            Run_store.v_case = 1;
            v_compiler = "gcc-sim";
            v_marker = 5;
            v_low = C.Level.O1;
            v_high = C.Level.O3;
          };
        ];
      r_rejected = [ 2; 2; 0 ];
      r_quarantined = [];
    }
  in
  let round = Run_store.report_of_json (Run_store.report_to_json report) in
  Alcotest.(check bool) "round trip faithful" true (round = report);
  (* the canonical form (what `write` persists) is idempotent and survives
     the codec too *)
  let sorted = Run_store.sort_report report in
  Alcotest.(check bool) "sorted round trip = sorted form" true
    (Run_store.report_of_json (Run_store.report_to_json sorted) = sorted);
  Alcotest.(check bool) "sort idempotent" true (Run_store.sort_report sorted = sorted);
  Alcotest.(check (list int)) "rejected deduplicated" [ 0; 2 ] sorted.Run_store.r_rejected;
  (match sorted.Run_store.r_misses with
   | [ a; b ] -> Alcotest.(check bool) "misses ordered by case" true (a.Run_store.m_case < b.Run_store.m_case)
   | _ -> Alcotest.fail "expected both misses back")

let test_run_id_stable_and_distinct () =
  let id = Run_store.run_id ~campaign:"hunt" ~seed:1 ~count:10 [ "gcc-sim" ] in
  Alcotest.(check string) "pure function of the parameters" id
    (Run_store.run_id ~campaign:"hunt" ~seed:1 ~count:10 [ "gcc-sim" ]);
  Alcotest.(check bool) "id shape" true (String.length id = 19 && String.sub id 0 4 = "run-");
  List.iter
    (fun other -> Alcotest.(check bool) "parameter change changes the id" true (other <> id))
    [
      Run_store.run_id ~campaign:"hunt" ~seed:2 ~count:10 [ "gcc-sim" ];
      Run_store.run_id ~campaign:"hunt" ~seed:1 ~count:11 [ "gcc-sim" ];
      Run_store.run_id ~campaign:"hunt2" ~seed:1 ~count:10 [ "gcc-sim" ];
      Run_store.run_id ~campaign:"hunt" ~seed:1 ~count:10 [ "llvm-sim" ];
    ]

let suite =
  [
    ("repair: search finds the guilty fix", `Quick, test_search_finds_guilty_fix);
    ("repair: found and verified on the seeded regression", `Slow, test_repair_found_and_verified);
    ("repair: destructive candidate rejected", `Slow, test_destructive_candidate_rejected);
    ("repair: record byte-identical across jobs", `Slow, test_repair_record_jobs_deterministic);
    ("campaign-diff: self-diff is the empty verdict", `Quick, test_campaign_diff_self_is_empty);
    ("run-store: report JSON round trip", `Quick, test_run_store_report_round_trip);
    ("run-store: run ids stable and distinct", `Quick, test_run_id_stable_and_distinct);
  ]
