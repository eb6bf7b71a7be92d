(* The engine's worker-process grid ([settings.workers > 1], "the
   fabric"): byte-identity of the merged output against the in-process run
   at every (workers, jobs) grid point, journal interop in both directions
   across a torn journal, crash containment when a worker process dies
   mid-chunk, and the cross-process journal lock.

   Also home to the Metrics.merge algebra tests (associativity, permutation
   invariance, wire round-trip) — the properties the fabric's farewell
   message depends on when it folds per-process accumulators into one
   campaign summary. *)

open Helpers
module Campaign = Dce_campaign
module Engine = Campaign.Engine
module Journal = Campaign.Journal
module Json = Campaign.Json
module Metrics = Campaign.Metrics
module Stats = Dce_report.Stats

let temp_journal = Suite_campaign.temp_journal
let truncate_journal = Suite_campaign.truncate_journal
let toy_codec = { Engine.encode = (fun i -> Json.Int i); decode = Json.int_exn }
let grid workers = Campaign.Settings.v ~workers ()

(* ------------------------------------------------------------------ *)
(* determinism across the processes x domains grid                     *)
(* ------------------------------------------------------------------ *)

let test_fabric_toy_grid_determinism () =
  let runner ctx i = Engine.stage ctx "toy" (fun () -> (i * 7) + 1) in
  let baseline = Engine.run ~jobs:1 ~count:17 runner in
  List.iter
    (fun (workers, jobs) ->
      let r = Engine.run ~codec:toy_codec ~settings:(grid workers) ~jobs ~count:17 runner in
      Alcotest.(check bool)
        (Printf.sprintf "outcomes at workers=%d jobs=%d" workers jobs)
        true
        (r.Engine.outcomes = baseline.Engine.outcomes);
      Alcotest.(check (list pass)) "no quarantine" [] r.Engine.quarantine)
    [ (2, 1); (2, 3); (4, 1); (4, 3) ]

(* The engine's work-stealing pool inside a fabric worker: one chunk of
   six cases on two domains, where case 0 waits (bounded) for cases 1-5.
   A stride split would pin case 2 behind case 0 on the same domain.  48
   cases over 2 workers make chunks of 48 / (2 x 4) = 6, so the first
   chunk is cases 0-5, and its worker takes no other chunk until case 0
   is done. *)
let test_fabric_worker_steals_within_chunk () =
  let r =
    Engine.run ~codec:toy_codec ~settings:(grid 2) ~jobs:2 ~count:48
      (Suite_campaign.spin_until_others_done ~others:5)
  in
  Alcotest.(check bool) "case 0 saw cases 1-5 finish (no timeout)" true
    (r.Engine.outcomes.(0) = Engine.Done 5);
  Alcotest.(check (list pass)) "no quarantine" [] r.Engine.quarantine

(* Real campaign modes: the merged report must be byte-identical.  The
   corpus codec regenerates traces on decode (timings are measurements, not
   results), so we compare the derived reports — exactly what the resume
   tests compare, and exactly what the user sees. *)

let corpus_report c =
  let stats = Campaign.Corpus.stats c in
  String.concat ""
    [
      Stats.prevalence stats;
      Stats.table1 stats;
      Stats.table2 stats;
      Stats.differential_summary stats;
      Stats.attribution_table stats;
    ]

let test_fabric_corpus_report_identical () =
  let solo = Campaign.Corpus.run ~jobs:1 ~seed:4242 ~count:8 () in
  let grid = Campaign.Corpus.run ~settings:(grid 2) ~jobs:2 ~seed:4242 ~count:8 () in
  Alcotest.(check string) "corpus report byte-identical" (corpus_report solo)
    (corpus_report grid);
  Alcotest.(check int) "no quarantine" 0 (List.length grid.Campaign.Corpus.c_quarantine)

let test_fabric_size_report_identical () =
  let module O = Campaign.Oracle_campaign in
  let ratio = O.default_ratio in
  let solo = O.run_size ~jobs:1 ~seed:4242 ~count:8 () in
  let grid = O.run_size ~settings:(grid 2) ~jobs:2 ~seed:4242 ~count:8 () in
  Alcotest.(check string) "size report byte-identical" (O.size_report ~ratio solo)
    (O.size_report ~ratio grid);
  Alcotest.(check bool) "size findings identical" true
    (O.size_findings ~ratio solo = O.size_findings ~ratio grid)

(* level-hunt --bisect on the grid: both halves run in worker processes
   and print what they print in process.  The plan crashes the bisection
   of a case that has inversions, which fires in a worker, and of one that
   has none, which never fires: the epilogue names only the latter. *)
let test_fabric_level_bisect_identical () =
  let module O = Campaign.Oracle_campaign in
  let seed = 42 and count = 20 in
  let findings = O.inversion_findings (O.run_inversion ~jobs:1 ~seed ~count ()) in
  let hit = fst (List.hd findings) in
  let miss = List.find (fun i -> not (List.mem_assoc i findings)) (List.init count Fun.id) in
  let chaos = Printf.sprintf "crash@%d:bisect,crash@%d:bisect" hit miss in
  let m = Campaign.Mode.level ~bisect:true in
  let stdout workers =
    let r = m.run ~settings:(Campaign.Settings.v ~chaos ~workers ()) ~jobs:1 ~seed ~count () in
    Alcotest.(check int) "the hit case quarantined" 1 r.quarantined;
    r.text ^ Campaign.Mode.epilogue ~metrics:false r
  in
  let solo = stdout 1 in
  Alcotest.(check string) "level-hunt --bisect byte-identical" solo (stdout 2);
  Alcotest.(check bool) "Tables 3/4 printed" true (contains solo "Table 3 (llvm-sim components)");
  Alcotest.(check bool) "the unfired injection named" true
    (contains solo (Printf.sprintf "crash@%d:bisect never fired" miss));
  Alcotest.(check bool) "the fired injection not named" false
    (contains solo (Printf.sprintf "crash@%d:bisect never fired" hit))

(* ------------------------------------------------------------------ *)
(* journal interop: fabric <-> engine, across a torn journal           *)
(* ------------------------------------------------------------------ *)

let test_fabric_torn_journal_resumes_in_engine () =
  let path = temp_journal () in
  let runner ctx i = Engine.stage ctx "toy" (fun () -> i + 100) in
  let r1 =
    Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~settings:(grid 2) ~jobs:2 ~count:10 runner
  in
  truncate_journal path ~cases:6;
  let executed = ref 0 in
  let r2 =
    Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~jobs:1 ~count:10 (fun ctx i ->
        incr executed;
        runner ctx i)
  in
  Alcotest.(check int) "six cases restored from the fabric journal" 6 r2.Engine.resumed;
  Alcotest.(check int) "four cases re-executed" 4 !executed;
  Alcotest.(check bool) "outcomes identical" true (r1.Engine.outcomes = r2.Engine.outcomes);
  Sys.remove path

let test_engine_torn_journal_resumes_in_fabric () =
  let path = temp_journal () in
  let runner ctx i = Engine.stage ctx "toy" (fun () -> i + 100) in
  let r1 = Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~jobs:1 ~count:10 runner in
  truncate_journal path ~cases:7;
  let r2 =
    Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~settings:(grid 4) ~jobs:3 ~count:10 runner
  in
  Alcotest.(check int) "seven cases restored from the engine journal" 7 r2.Engine.resumed;
  Alcotest.(check bool) "outcomes identical" true (r1.Engine.outcomes = r2.Engine.outcomes);
  (* the rewritten journal is complete: a fresh fabric run replays everything *)
  let r3 =
    Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~settings:(grid 2) ~jobs:1 ~count:10 runner
  in
  Alcotest.(check int) "all restored on the third run" 10 r3.Engine.resumed;
  Alcotest.(check bool) "outcomes still identical" true
    (r1.Engine.outcomes = r3.Engine.outcomes);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* crash containment: a worker process dying mid-chunk                 *)
(* ------------------------------------------------------------------ *)

let test_fabric_killed_worker_contained () =
  (* case 3 is a poison pill: it kills whichever worker process picks it up.
     First death re-queues it; the second death quarantines it (stage
     "fabric"), and every other case must still complete normally. *)
  let runner ctx i =
    Engine.stage ctx "toy" (fun () ->
        if i = 3 && Engine.in_worker () then Unix._exit 7;
        i + 100)
  in
  let r = Engine.run ~codec:toy_codec ~settings:(grid 2) ~jobs:1 ~count:12 runner in
  (match r.Engine.quarantine with
   | [ q ] ->
     Alcotest.(check int) "poison-pill case quarantined" 3 q.Engine.q_case;
     Alcotest.(check string) "blamed on the fabric" "fabric" q.Engine.q_stage;
     Alcotest.(check bool) "classified as a crash" true (q.Engine.q_kind = Engine.Crash);
     Alcotest.(check bool) "error names the worker death" true
       (contains q.Engine.q_error "worker process died")
   | qs -> Alcotest.failf "expected exactly the poison pill quarantined, got %d" (List.length qs));
  Array.iteri
    (fun i o ->
      if i <> 3 then
        match o with
        | Engine.Done v -> Alcotest.(check int) (Printf.sprintf "case %d result" i) (i + 100) v
        | Engine.Crashed _ -> Alcotest.failf "case %d must not be collateral damage" i)
    r.Engine.outcomes;
  match r.Engine.metrics.Metrics.fabric with
  | Some f ->
    Alcotest.(check int) "two worker deaths" 2 f.Metrics.f_deaths;
    Alcotest.(check int) "one case reassigned" 1 f.Metrics.f_reassigned
  | None -> Alcotest.fail "fabric counters missing"

(* ------------------------------------------------------------------ *)
(* fabric counters and edge cases                                      *)
(* ------------------------------------------------------------------ *)

let test_fabric_counters_reported () =
  let runner ctx i = Engine.stage ctx "toy" (fun () -> i) in
  let r = Engine.run ~codec:toy_codec ~settings:(grid 2) ~jobs:3 ~count:12 runner in
  (match r.Engine.metrics.Metrics.fabric with
   | Some f ->
     Alcotest.(check int) "workers" 2 f.Metrics.f_workers;
     Alcotest.(check int) "jobs per worker" 3 f.Metrics.f_jobs;
     Alcotest.(check bool) "chunks dispatched" true (f.Metrics.f_chunks >= 2);
     Alcotest.(check int) "per-worker cases sum to the corpus" 12
       (List.fold_left ( + ) 0 f.Metrics.f_cases_per_worker);
     Alcotest.(check int) "no deaths" 0 f.Metrics.f_deaths
   | None -> Alcotest.fail "fabric counters missing");
  (* workers = 1 runs in process: no process forked, no fabric counters *)
  let solo = Engine.run ~codec:toy_codec ~settings:(grid 1) ~jobs:1 ~count:3 runner in
  Alcotest.(check bool) "no fabric counters at workers=1" true
    (solo.Engine.metrics.Metrics.fabric = None)

let test_fabric_edge_cases () =
  let runner ctx i = Engine.stage ctx "toy" (fun () -> i) in
  (* more workers than cases: only as many processes as there is work *)
  let r = Engine.run ~codec:toy_codec ~settings:(grid 8) ~jobs:1 ~count:3 runner in
  Alcotest.(check bool) "tiny corpus completes" true
    (r.Engine.outcomes = [| Engine.Done 0; Engine.Done 1; Engine.Done 2 |]);
  (match r.Engine.metrics.Metrics.fabric with
   | Some f -> Alcotest.(check int) "forks capped by the work" 3 f.Metrics.f_workers
   | None -> Alcotest.fail "fabric counters missing");
  (* the empty campaign *)
  let r = Engine.run ~codec:toy_codec ~settings:(grid 4) ~jobs:2 ~count:0 runner in
  Alcotest.(check int) "empty corpus" 0 (Array.length r.Engine.outcomes);
  (* invalid grids are rejected up front: a missing codec by the engine, an
     empty grid already by the settings constructor *)
  (match Engine.run ~settings:(grid 2) ~jobs:1 ~count:3 runner with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ());
  List.iter
    (fun (flag, f) ->
      match f () with
      | _ -> Alcotest.failf "expected %s to be rejected" flag
      | exception Failure msg ->
        Alcotest.(check bool) flag true (String.starts_with ~prefix:flag msg))
    [ ("--workers", fun () -> grid 0) ]

(* ------------------------------------------------------------------ *)
(* the line-JSON wire                                                  *)
(* ------------------------------------------------------------------ *)

let test_wire_reader () =
  let module Wire = Campaign.Wire in
  let r, w = Unix.pipe () in
  let input = Wire.reader r in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  let lines = Alcotest.(option (list string)) in
  write "{\"a\":";
  Alcotest.check lines "no line before its newline" (Some []) (Wire.input input);
  write "1}\n{\"b\":2}\n{\"c\":3}\n{\"d\"";
  Alcotest.check lines "a split line reassembled, several lines from one read"
    (Some [ "{\"a\":1}"; "{\"b\":2}"; "{\"c\":3}" ])
    (Wire.input input);
  write ":4}\n";
  Alcotest.(check bool) "send writes one line" true (Wire.send w (Json.Obj [ ("e", Json.Int 5) ]));
  write "torn";
  Alcotest.(check (option string)) "the split line completed" (Some "{\"d\":4}") (Wire.line input);
  Alcotest.(check (option string)) "the sent line" (Some "{\"e\":5}") (Wire.line input);
  Unix.close w;
  Alcotest.(check (option string)) "a torn tail is never delivered" None (Wire.line input);
  Unix.close r;
  let r, w = Unix.pipe () in
  Unix.close r;
  Alcotest.(check bool) "a send to a closed peer is false, not SIGPIPE" false
    (Wire.with_stop_signals ignore (fun () -> Wire.send w (Json.Int 1)));
  Unix.close w

(* ------------------------------------------------------------------ *)
(* the cross-process journal lock (satellite: fork-based lockf test)   *)
(* ------------------------------------------------------------------ *)

(* Journal.open_append guards against concurrent writers twice over: an
   in-process registry (same-process double open) and Unix.lockf (another
   process).  The in-process test lives in suite_supervision; this one
   exercises the lockf half with a real second process.  The child forks
   BEFORE the parent opens — fork copies the parent's registry, so forking
   after would trip the in-process check and never reach lockf. *)
let test_journal_lock_cross_process () =
  let path = temp_journal () in
  let header = { Journal.h_campaign = "fork-lock-test"; h_seed = 1; h_count = 2 } in
  let try_open_in_child ~expect_locked =
    let r, w = Unix.pipe ~cloexec:false () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Unix.close w;
      (* wait for the parent's go signal, then race for the lock *)
      ignore (Unix.read r (Bytes.create 1) 0 1);
      let code =
        match Journal.open_append ~path header with
        | j ->
          Journal.close j;
          if expect_locked then 1 else 0
        | exception Failure msg ->
          if expect_locked && Helpers.contains msg "locked" then 0 else 1
      in
      Unix._exit code
    | pid ->
      Unix.close r;
      (pid, w)
  in
  (* child 1 forks while the journal is closed, then attempts an open while
     the parent holds it: lockf must refuse, journal intact *)
  let pid1, w1 = try_open_in_child ~expect_locked:true in
  let j = Journal.open_append ~path header in
  Journal.append j (Json.Obj [ ("case", Json.Int 0) ]);
  ignore (Unix.write w1 (Bytes.of_string "g") 0 1);
  let _, status1 = Unix.waitpid [] pid1 in
  Alcotest.(check bool) "second process refused while the journal is live" true
    (status1 = Unix.WEXITED 0);
  Journal.append j (Json.Obj [ ("case", Json.Int 1) ]);
  Journal.close j;
  (match Journal.load ~path with
   | Some (h, cases, 0) ->
     Alcotest.(check bool) "header intact after the refused open" true (h = header);
     Alcotest.(check int) "both cases intact after the refused open" 2 (List.length cases)
   | _ -> Alcotest.fail "journal unreadable after the cross-process lock race");
  (* child 2: after close the lock is gone and another process may resume *)
  let pid2, w2 = try_open_in_child ~expect_locked:false in
  ignore (Unix.write w2 (Bytes.of_string "g") 0 1);
  let _, status2 = Unix.waitpid [] pid2 in
  Alcotest.(check bool) "open succeeds from another process after close" true
    (status2 = Unix.WEXITED 0);
  Unix.close w1;
  Unix.close w2;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Metrics.merge algebra (satellite: merge + percentile properties)    *)
(* ------------------------------------------------------------------ *)

let zero_counters =
  {
    Dce_compiler.Passmgr.meminfo_hits = 0;
    meminfo_misses = 0;
    cfg_hits = 0;
    cfg_misses = 0;
    dom_hits = 0;
    dom_misses = 0;
    memo_hits = 0;
    memo_misses = 0;
  }

let acc samples ~retries ~recovered =
  let t = Metrics.create () in
  List.iter (fun (stage, dt) -> Metrics.record t stage dt) samples;
  for _ = 1 to retries do
    Metrics.retried t
  done;
  for _ = 1 to recovered do
    Metrics.recovered t
  done;
  t

let summarize t = Metrics.summarize ~cases:9 ~wall:2.0 ~cache:zero_counters t

let abc () =
  ( acc [ ("compile", 0.5); ("exec", 0.125); ("compile", 0.25) ] ~retries:2 ~recovered:1,
    acc [ ("exec", 0.75); ("compile", 0.0625) ] ~retries:1 ~recovered:0,
    acc [ ("analyze", 1.5); ("compile", 0.375); ("exec", 0.25) ] ~retries:0 ~recovered:0 )

let test_metrics_merge_associative () =
  let a, b, c = abc () in
  let left = summarize (Metrics.merge (Metrics.merge a b) c) in
  let right = summarize (Metrics.merge a (Metrics.merge b c)) in
  Alcotest.(check bool) "merge is associative up to summarize" true (left = right);
  Alcotest.(check int) "retries survive the merge" 3 left.Metrics.retries;
  Alcotest.(check int) "recoveries survive the merge" 1 left.Metrics.recovered

let test_metrics_merge_permutation_invariant () =
  let a, b, c = abc () in
  let reference = summarize (Metrics.merge a (Metrics.merge b c)) in
  List.iter
    (fun (name, merged) ->
      Alcotest.(check bool) name true (summarize merged = reference))
    [
      ("c (a b)", Metrics.merge c (Metrics.merge a b));
      ("(b a) c", Metrics.merge (Metrics.merge b a) c);
      ("b (c a)", Metrics.merge b (Metrics.merge c a));
    ];
  (* merge is functional: the inputs are unchanged by all of the above *)
  let a', b', c' = abc () in
  Alcotest.(check bool) "inputs unchanged" true
    (summarize a = summarize a' && summarize b = summarize b' && summarize c = summarize c')

let test_metrics_wire_round_trip () =
  let a, b, _ = abc () in
  let t = Metrics.merge a b in
  let back = Metrics.of_json (Metrics.to_json t) in
  Alcotest.(check bool) "wire round trip preserves the summary" true
    (summarize back = summarize t);
  match Metrics.of_json (Json.Obj [ ("samples", Json.Int 3) ]) with
  | _ -> Alcotest.fail "malformed wire record must raise"
  | exception Failure _ -> ()

let test_metrics_percentile_stability () =
  Alcotest.(check (float 0.)) "empty array" 0. (Metrics.percentile [||] 0.5);
  Alcotest.(check (float 0.)) "singleton p50" 42. (Metrics.percentile [| 42. |] 0.5);
  Alcotest.(check (float 0.)) "singleton p99" 42. (Metrics.percentile [| 42. |] 0.99);
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  (* nearest-rank on 1..10: p50 -> rank 5, p90 -> rank 9, p99 -> rank 10 *)
  Alcotest.(check (float 0.)) "p50 of 1..10" 5. (Metrics.percentile ten 0.5);
  Alcotest.(check (float 0.)) "p90 of 1..10" 9. (Metrics.percentile ten 0.9);
  Alcotest.(check (float 0.)) "p99 of 1..10" 10. (Metrics.percentile ten 0.99);
  Alcotest.(check (float 0.)) "p0 clamps to the smallest sample" 1.
    (Metrics.percentile ten 0.);
  (* percentiles of merged accumulators equal percentiles of the union:
     what makes per-process summaries independent of merge order *)
  let a, b, c = abc () in
  let union = summarize (Metrics.merge a (Metrics.merge b c)) in
  let compile =
    List.find (fun s -> s.Metrics.ss_stage = "compile") union.Metrics.stages
  in
  Alcotest.(check int) "compile samples pooled" 4 compile.Metrics.ss_samples;
  Alcotest.(check (float 1e-9)) "compile p50 from the pooled sorted samples" 0.25
    compile.Metrics.ss_p50;
  Alcotest.(check (float 1e-9)) "compile p99 is the pooled max" 0.5 compile.Metrics.ss_p99

(* Must stay the LAST test of this suite (and the suite itself runs first in
   test_main): it spawns a domain, after which OCaml forbids the fork every
   multi-process fabric run needs. *)
let test_fabric_refuses_after_domains () =
  let warm = Engine.run ~jobs:2 ~count:4 (fun _ i -> i) in
  Alcotest.(check int) "warm-up engine run completed" 4 (Array.length warm.Engine.outcomes);
  Alcotest.(check bool) "domain creation recorded" true (Engine.domains_ever_spawned ());
  match Engine.run ~codec:toy_codec ~settings:(grid 2) ~jobs:1 ~count:4 (fun _ i -> i) with
  | _ -> Alcotest.fail "Engine.run should refuse to fork after domains existed"
  | exception Failure msg ->
    Alcotest.(check bool)
      "diagnosis names the fork-after-domains ban" true
      (contains msg "after worker domains have been spawned")

(* ------------------------------------------------------------------ *)
(* the mkdir_p fork race (satellite bugfix regression test)            *)
(* ------------------------------------------------------------------ *)

(* Two fabric workers creating the same run directory used to race:
   both see it missing, both mkdir, the loser got EEXIST only at the final
   component.  Now EEXIST is tolerated at every component, so concurrent
   creators all succeed. *)
let test_mkdir_p_concurrent_race () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dce-mkdirp-race-%d" (Unix.getpid ()))
  in
  let deep = List.fold_left Filename.concat root [ "a"; "b"; "c"; "d" ] in
  let spawn () =
    let r, w = Unix.pipe ~cloexec:false () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Unix.close w;
      (* wait for the parent's go signal so every creation really races *)
      ignore (Unix.read r (Bytes.create 1) 0 1);
      let code = match Dce_support.Fsx.mkdir_p deep with () -> 0 | exception _ -> 1 in
      Unix._exit code
    | pid ->
      Unix.close r;
      (pid, w)
  in
  let children = List.init 4 (fun _ -> spawn ()) in
  List.iter (fun (_, w) -> ignore (Unix.write w (Bytes.of_string "g") 0 1)) children;
  List.iter
    (fun (pid, w) ->
      let _, status = Unix.waitpid [] pid in
      Unix.close w;
      Alcotest.(check bool) "racing mkdir_p child succeeded" true (status = Unix.WEXITED 0))
    children;
  Alcotest.(check bool) "directory exists afterwards" true (Sys.is_directory deep);
  (* EEXIST tolerance must not paper over a plain file in the way *)
  let file = Filename.concat root "plain" in
  let oc = open_out file in
  close_out oc;
  (match Dce_support.Fsx.mkdir_p file with
   | () -> Alcotest.fail "mkdir_p over a plain file should fail"
   | exception Sys_error _ -> ());
  match Dce_support.Fsx.mkdir_p (Filename.concat file "x") with
  | () -> Alcotest.fail "mkdir_p through a plain file should fail"
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* the repair verification campaign across the fabric grid             *)
(* ------------------------------------------------------------------ *)

let test_fabric_verify_report_identical () =
  let compilers =
    [
      (Dce_compiler.Gcc_sim.compiler, "gcc-sim"); (Dce_compiler.Llvm_sim.compiler, "llvm-sim");
    ]
  in
  let report workers jobs =
    let v =
      Dce_repair.Verify.campaign ~settings:(grid workers) ~jobs ~name:"fabric-verify" ~compilers
        ~seed:4242 ~count:6 ()
    in
    Json.to_string (Campaign.Run_store.report_to_json v.Dce_repair.Verify.vy_report)
  in
  let solo = report 1 1 in
  Alcotest.(check string) "verify report byte-identical at workers=2" solo (report 2 1);
  Alcotest.(check string) "verify report byte-identical at workers=2 jobs=2" solo (report 2 2)

let suite =
  [
    Alcotest.test_case "fabric: toy grid determinism" `Quick test_fabric_toy_grid_determinism;
    Alcotest.test_case "fabric: slow case does not block its chunk" `Quick
      test_fabric_worker_steals_within_chunk;
    Alcotest.test_case "fabric: corpus report identical" `Slow test_fabric_corpus_report_identical;
    Alcotest.test_case "fabric: size report identical" `Slow test_fabric_size_report_identical;
    Alcotest.test_case "fabric: level-hunt --bisect identical" `Slow
      test_fabric_level_bisect_identical;
    Alcotest.test_case "fabric: torn journal resumes in engine" `Quick
      test_fabric_torn_journal_resumes_in_engine;
    Alcotest.test_case "fabric: engine journal resumes in fabric" `Quick
      test_engine_torn_journal_resumes_in_fabric;
    Alcotest.test_case "fabric: killed worker contained" `Quick
      test_fabric_killed_worker_contained;
    Alcotest.test_case "fabric: counters reported" `Quick test_fabric_counters_reported;
    Alcotest.test_case "fabric: edge cases" `Quick test_fabric_edge_cases;
    Alcotest.test_case "wire: split, batched and torn lines" `Quick test_wire_reader;
    Alcotest.test_case "journal: cross-process lockf" `Quick test_journal_lock_cross_process;
    Alcotest.test_case "fsx: mkdir_p concurrent fork race" `Quick test_mkdir_p_concurrent_race;
    Alcotest.test_case "fabric: verify report identical" `Slow
      test_fabric_verify_report_identical;
    Alcotest.test_case "metrics: merge associative" `Quick test_metrics_merge_associative;
    Alcotest.test_case "metrics: merge permutation-invariant" `Quick
      test_metrics_merge_permutation_invariant;
    Alcotest.test_case "metrics: wire round trip" `Quick test_metrics_wire_round_trip;
    Alcotest.test_case "metrics: percentile stability" `Quick test_metrics_percentile_stability;
    (* keep last: poisons the process for fork (see its comment) *)
    Alcotest.test_case "fabric: refuses to fork after domains" `Quick
      test_fabric_refuses_after_domains;
  ]
