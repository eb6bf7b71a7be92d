(* The determinism/property wall around the campaign engine:

   - jobs-independence: a parallel campaign yields byte-identical statistics,
     findings, and triage tables to the sequential one
   - work stealing: a slow case never holds up the cases behind it
   - fault isolation: an injected per-case crash quarantines that case only
   - checkpoint/resume: a journal truncated mid-line resumes to the same
     final report as an uninterrupted run, and a run that dies mid-journal
     releases the journal lock
   - JSON and journal codecs, metrics percentiles *)

open Helpers
module Campaign = Dce_campaign
module Engine = Campaign.Engine
module Json = Campaign.Json
module Metrics = Campaign.Metrics
module Stats = Dce_report.Stats

let corpus_count = 50
let corpus_seed = 20220228

(* the two campaigns the determinism tests compare; shared across tests *)
let seq = lazy (Campaign.Corpus.run ~jobs:1 ~seed:corpus_seed ~count:corpus_count ())
let par = lazy (Campaign.Corpus.run ~jobs:4 ~seed:corpus_seed ~count:corpus_count ())

let temp_journal () = Filename.temp_file "dce_campaign_test" ".jsonl"

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

(* keep the header plus [cases] complete case lines, then a torn partial
   line — the shape a killed campaign leaves behind *)
let truncate_journal path ~cases =
  let lines = String.split_on_char '\n' (read_file path) in
  let kept = List.filteri (fun i _ -> i <= cases) lines in
  write_file path (String.concat "\n" kept ^ "\n{\"case\":99,\"stat")

(* ------------------------------------------------------------------ *)
(* determinism: jobs must not change any result                        *)
(* ------------------------------------------------------------------ *)

let test_jobs_determinism_stats () =
  let sa = Campaign.Corpus.stats (Lazy.force seq) in
  let sb = Campaign.Corpus.stats (Lazy.force par) in
  Alcotest.(check int) "programs" sa.Stats.programs sb.Stats.programs;
  Alcotest.(check bool) "findings identical" true (sa.Stats.findings = sb.Stats.findings);
  Alcotest.(check bool) "regression findings identical" true
    (sa.Stats.regression_findings = sb.Stats.regression_findings);
  Alcotest.(check bool) "full stats identical" true (sa = sb);
  Alcotest.(check string) "table1" (Stats.table1 sa) (Stats.table1 sb);
  Alcotest.(check string) "table2" (Stats.table2 sa) (Stats.table2 sb);
  Alcotest.(check string) "differentials" (Stats.differential_summary sa)
    (Stats.differential_summary sb);
  Alcotest.(check string) "attribution" (Stats.attribution_table sa)
    (Stats.attribution_table sb)

let test_jobs_determinism_triage () =
  let triage c =
    let st = Campaign.Corpus.stats c in
    Dce_report.Triage.triage
      ~programs:(Campaign.Corpus.instrumented_programs c)
      (st.Stats.findings @ st.Stats.regression_findings)
  in
  let ra = triage (Lazy.force seq) in
  let rb = triage (Lazy.force par) in
  Alcotest.(check bool) "report clusters identical" true (ra = rb);
  Alcotest.(check string) "table5 identical" (Dce_report.Triage.table5 ra)
    (Dce_report.Triage.table5 rb)

let test_metrics_sanity () =
  let c = Lazy.force seq in
  let m = c.Campaign.Corpus.c_metrics in
  Alcotest.(check int) "every case executed" corpus_count m.Metrics.cases;
  Alcotest.(check bool) "throughput positive" true (m.Metrics.throughput > 0.);
  let diff =
    List.find_opt (fun s -> s.Metrics.ss_stage = "differential") m.Metrics.stages
  in
  (match diff with
   | None -> Alcotest.fail "no differential stage in metrics"
   | Some s ->
     Alcotest.(check bool) "differential sampled" true (s.Metrics.ss_samples > 0);
     Alcotest.(check bool) "p50 <= p90 <= p99" true
       (s.Metrics.ss_p50 <= s.Metrics.ss_p90 && s.Metrics.ss_p90 <= s.Metrics.ss_p99));
  let cache = m.Metrics.cache in
  Alcotest.(check bool) "cache counters moved" true
    (cache.Dce_compiler.Passmgr.cfg_hits + cache.Dce_compiler.Passmgr.cfg_misses > 0)

(* ------------------------------------------------------------------ *)
(* engine semantics on a toy runner (cheap, no compilation)            *)
(* ------------------------------------------------------------------ *)

let toy_codec = { Engine.encode = (fun i -> Json.Int i); decode = Json.int_exn }

let test_engine_toy_parallel () =
  let r = Engine.run ~jobs:8 ~count:5 (fun _ctx i -> i * i) in
  Alcotest.(check bool) "squares in case order" true
    (Array.to_list r.Engine.outcomes = List.map (fun i -> Engine.Done (i * i)) [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check int) "no quarantine" 0 (List.length r.Engine.quarantine);
  let r0 = Engine.run ~jobs:3 ~count:0 (fun _ctx i -> i) in
  Alcotest.(check int) "empty campaign" 0 (Array.length r0.Engine.outcomes)

let test_engine_innermost_stage () =
  let r =
    Engine.run ~jobs:2 ~count:6 (fun ctx i ->
        Engine.stage ctx "outer" (fun () ->
            Engine.stage ctx "inner" (fun () ->
                if i = 3 then failwith "boom";
                i)))
  in
  match r.Engine.quarantine with
  | [ q ] ->
    Alcotest.(check int) "guilty case" 3 q.Engine.q_case;
    Alcotest.(check string) "innermost stage" "inner" q.Engine.q_stage;
    Alcotest.(check bool) "error text kept" true (contains q.Engine.q_error "boom")
  | qs -> Alcotest.failf "expected one quarantined case, got %d" (List.length qs)

let test_engine_toy_resume () =
  let path = temp_journal () in
  let executed = ref [] in
  let runner _ctx i =
    executed := i :: !executed;
    i + 100
  in
  let r1 = Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~jobs:1 ~count:10 runner in
  Alcotest.(check int) "first run executes all" 10 (List.length !executed);
  truncate_journal path ~cases:6;
  executed := [];
  let r2 = Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~jobs:1 ~count:10 runner in
  Alcotest.(check int) "six cases restored" 6 r2.Engine.resumed;
  Alcotest.(check int) "four cases re-executed" 4 (List.length !executed);
  Alcotest.(check bool) "same outcomes" true (r1.Engine.outcomes = r2.Engine.outcomes);
  (* the rewritten journal is complete again: a third run re-executes nothing *)
  executed := [];
  let r3 = Engine.run ~journal:path ~codec:toy_codec ~seed:7 ~jobs:4 ~count:10 runner in
  Alcotest.(check int) "all restored" 10 r3.Engine.resumed;
  Alcotest.(check int) "nothing re-executed" 0 (List.length !executed);
  Alcotest.(check bool) "same outcomes across jobs" true (r1.Engine.outcomes = r3.Engine.outcomes);
  Sys.remove path

let test_engine_journal_mismatch () =
  let path = temp_journal () in
  ignore (Engine.run ~journal:path ~codec:toy_codec ~seed:1 ~jobs:1 ~count:3 (fun _ i -> i));
  (match
     Engine.run ~journal:path ~codec:toy_codec ~seed:2 ~jobs:1 ~count:3 (fun _ i -> i)
   with
   | _ -> Alcotest.fail "expected a header-mismatch failure"
   | exception Failure msg ->
     Alcotest.(check bool) "mismatch names both campaigns" true (contains msg "seed=1"));
  (match Engine.run ~journal:path ~jobs:1 ~count:3 (fun _ i -> i) with
   | _ -> Alcotest.fail "expected journal-without-codec rejection"
   | exception Invalid_argument _ -> ());
  Sys.remove path

let test_engine_crash_checkpointed () =
  let path = temp_journal () in
  let runner _ctx i = if i = 2 then failwith "flaky" else i in
  let r1 = Engine.run ~journal:path ~codec:toy_codec ~jobs:2 ~count:5 runner in
  Alcotest.(check int) "one quarantined" 1 (List.length r1.Engine.quarantine);
  (* resume with a runner that would now succeed: the journaled crash is
     replayed, not retried — quarantine is part of the campaign's record *)
  let r2 = Engine.run ~journal:path ~codec:toy_codec ~jobs:1 ~count:5 (fun _ i -> i) in
  Alcotest.(check int) "all five restored" 5 r2.Engine.resumed;
  Alcotest.(check bool) "quarantine replayed" true
    (r1.Engine.quarantine = r2.Engine.quarantine);
  Sys.remove path

(* Case 0 spins until every other case has finished, giving up after
   ~5 s.  Under work stealing the second domain drains cases 1-5 while the
   first is stuck on case 0; under any static split some later case would
   sit behind case 0 on its domain and the wait would time out. *)
let spin_until_others_done ~others =
  let finished = Atomic.make 0 in
  fun _ctx i ->
    if i = 0 then begin
      let give_up = Unix.gettimeofday () +. 5.0 in
      while Atomic.get finished < others && Unix.gettimeofday () < give_up do
        Domain.cpu_relax ()
      done;
      Atomic.get finished
    end
    else begin
      Atomic.incr finished;
      i
    end

let test_engine_work_stealing () =
  let r = Engine.run ~jobs:2 ~count:6 (spin_until_others_done ~others:5) in
  Alcotest.(check bool) "case 0 saw cases 1-5 finish (no timeout)" true
    (r.Engine.outcomes.(0) = Engine.Done 5);
  Alcotest.(check bool) "other outcomes in case order" true
    (Array.sub r.Engine.outcomes 1 5 = Array.init 5 (fun i -> Engine.Done (i + 1)))

(* The calling domain is worker 0: at jobs 2 and 3 cases run on it and on
   at most jobs - 1 other domains, and the outcomes are those of jobs 1.
   A case on a spawned domain waits (up to ~5 s) until the caller has run
   one, so the caller's share does not hang on how fast domains start. *)
let test_engine_caller_is_worker_0 () =
  let caller = (Domain.self () :> int) in
  let count = 12 in
  let solo = Engine.run ~jobs:1 ~count (fun _ctx i -> i * i) in
  List.iter
    (fun jobs ->
      let ran_on = Array.make count (-1) in
      let caller_ran = Atomic.make false in
      let runner _ctx i =
        let self = (Domain.self () :> int) in
        ran_on.(i) <- self;
        if self = caller then Atomic.set caller_ran true
        else begin
          let give_up = Unix.gettimeofday () +. 5.0 in
          while (not (Atomic.get caller_ran)) && Unix.gettimeofday () < give_up do
            Domain.cpu_relax ()
          done
        end;
        i * i
      in
      let r = Engine.run ~jobs ~count runner in
      let domains = List.sort_uniq compare (Array.to_list ran_on) in
      Alcotest.(check bool) (Printf.sprintf "jobs %d: outcomes of jobs 1" jobs) true
        (r.Engine.outcomes = solo.Engine.outcomes);
      Alcotest.(check bool) (Printf.sprintf "jobs %d: the caller ran cases" jobs) true
        (List.mem caller domains);
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: at most %d other domains" jobs (jobs - 1))
        true
        (List.length domains - 1 <= jobs - 1))
    [ 2; 3 ]

(* A journal write that raises on the caller's worker (its codec fails on
   the caller's cases) is re-raised only once the spawned domain has
   finished every case it started. *)
let test_engine_caller_fault_joins_first () =
  let path = temp_journal () in
  let caller = (Domain.self () :> int) in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let runner _ctx i =
    if (Domain.self () :> int) <> caller then begin
      Atomic.incr started;
      Unix.sleepf 0.02;
      Atomic.incr finished
    end;
    i
  in
  let codec =
    {
      toy_codec with
      Engine.encode =
        (fun i -> if (Domain.self () :> int) = caller then failwith "encode" else Json.Int i);
    }
  in
  (match Engine.run ~journal:path ~codec ~jobs:2 ~count:6 runner with
   | _ -> Alcotest.fail "expected the caller's encode failure to propagate"
   | exception Failure msg -> Alcotest.(check string) "caller failure propagates" "encode" msg);
  Alcotest.(check int) "every case the spawned domain started had finished"
    (Atomic.get started) (Atomic.get finished);
  Alcotest.(check int) "the spawned domain drained the cases the caller left" 5
    (Atomic.get finished);
  Sys.remove path

(* An exception escaping the engine itself (a codec that cannot encode, a
   journal write hitting a full disk) must still release the journal lock:
   a later run on the same path, in the same process, resumes from it. *)
let test_engine_exception_releases_journal () =
  let path = temp_journal () in
  let failing =
    { toy_codec with Engine.encode = (fun i -> if i = 2 then failwith "encode" else Json.Int i) }
  in
  (match Engine.run ~journal:path ~codec:failing ~jobs:1 ~count:4 (fun _ i -> i) with
   | _ -> Alcotest.fail "expected the encode failure to propagate"
   | exception Failure msg -> Alcotest.(check string) "codec failure propagates" "encode" msg);
  let r = Engine.run ~journal:path ~codec:toy_codec ~jobs:1 ~count:4 (fun _ i -> i) in
  Alcotest.(check int) "cases 0 and 1 resumed" 2 r.Engine.resumed;
  Alcotest.(check bool) "all outcomes" true
    (Array.to_list r.Engine.outcomes = List.map (fun i -> Engine.Done i) [ 0; 1; 2; 3 ]);
  Sys.remove path

(* A journal rubbed the wrong way: records the decoder does not recognize
   (from a newer build), indexes out of range, and a line a buggy float
   printer once made unparseable.  All of it must be skipped and counted —
   never fatal — with the skipped cases simply re-executed. *)
let test_engine_journal_robustness () =
  let path = temp_journal () in
  let executed = ref [] in
  let runner _ctx i =
    executed := i :: !executed;
    i + 100
  in
  let clean = Engine.run ~journal:path ~codec:toy_codec ~seed:9 ~jobs:1 ~count:6 runner in
  let lines = String.split_on_char '\n' (read_file path) in
  let header = List.nth lines 0 in
  let keep i = List.nth lines i in
  write_file path
    (String.concat "\n"
       [
         header;
         keep 1;
         keep 2;
         (* unknown record status: a record kind this build does not know *)
         "{\"case\":3,\"status\":\"from-the-future\",\"data\":303}";
         (* decodable but out of range *)
         "{\"case\":99,\"status\":\"done\",\"data\":199}";
         (* the pre-fix Json printer emitted bare nan tokens: unparseable,
            so this line and everything after it is dropped and counted *)
         "{\"case\":4,\"status\":\"done\",\"data\":nan}";
         keep 5;
         "";
       ]);
  executed := [];
  let r = Engine.run ~journal:path ~codec:toy_codec ~seed:9 ~jobs:2 ~count:6 runner in
  Alcotest.(check int) "two cases restored" 2 r.Engine.resumed;
  Alcotest.(check int) "four records skipped" 4 r.Engine.metrics.Metrics.journal_skipped;
  Alcotest.(check int) "skipped cases re-executed" 4 (List.length !executed);
  Alcotest.(check bool) "outcomes equal the clean run" true
    (r.Engine.outcomes = clean.Engine.outcomes);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* campaign settings: one validating constructor                       *)
(* ------------------------------------------------------------------ *)

let test_settings_validation () =
  let module S = Campaign.Settings in
  let rejects flag f =
    match f () with
    | _ -> Alcotest.failf "%s: out-of-range value accepted" flag
    | exception Failure msg ->
      Alcotest.(check bool) (flag ^ " named") true (String.starts_with ~prefix:(flag ^ ":") msg)
  in
  rejects "--workers" (fun () -> S.v ~workers:0 ());
  rejects "--retries" (fun () -> S.v ~retries:(-1) ());
  rejects "--deadline" (fun () -> S.v ~deadline:0. ());
  rejects "--deadline" (fun () -> S.v ~deadline:(-1.) ());
  rejects "--deadline" (fun () -> S.v ~deadline:Float.nan ());
  rejects "--step-budget" (fun () -> S.v ~step_budget:0 ());
  rejects "--chaos" (fun () -> S.v ~chaos:"explode@1" ());
  (* a planted case past the corpus would never fire: refused before any
     case runs, by every runner that knows its case count *)
  rejects "--chaos" (fun () ->
      Campaign.Corpus.run ~settings:(S.v ~chaos:"crash@9" ()) ~jobs:1 ~seed:42 ~count:4 ());
  rejects "--chaos" (fun () ->
      Campaign.Oracle_campaign.run_size ~settings:(S.v ~chaos:"crash@1,hang@4:spin" ()) ~jobs:1
        ~seed:42 ~count:4 ());
  S.check_cases ~count:4 (S.v ~chaos:"crash@3" ());
  rejects "--count" (fun () -> Campaign.Corpus.run ~jobs:1 ~seed:42 ~count:(-1) ());
  (* repair checks its smoke-corpus count before the search, and its
     verification sweep runs on the same case runner *)
  rejects "--count" (fun () ->
      Dce_repair.Driver.run ~count:(-1) C.Gcc_sim.compiler C.Level.O3
        (parse "int main(void) { return 0; }") ~marker:0);
  rejects "--count" (fun () ->
      Dce_repair.Verify.campaign ~name:"verify" ~compilers:[] ~seed:42 ~count:(-1) ());
  rejects "--jobs" (fun () -> S.jobs 0);
  Alcotest.(check int) "valid jobs pass through" 3 (S.jobs 3);
  (* the runtime's domain limit, the calling domain included; only the
     check runs, nothing is spawned *)
  Alcotest.(check int) "jobs at the domain limit pass" S.max_jobs (S.jobs S.max_jobs);
  rejects "--jobs" (fun () -> S.jobs (S.max_jobs + 1));
  let s = S.v ~deadline:5. ~step_budget:100 ~retries:2 ~workers:2 () in
  Alcotest.(check bool) "valid values kept" true
    (s.S.deadline = Some 5. && s.S.step_budget = Some 100 && s.S.retries = 2 && s.S.workers = 2);
  Alcotest.(check bool) "v () is the default" true (S.v () = S.default);
  (* the chaos rule: a corrupt-IR plan forces checked validation, while the
     requested flag (what run ids and meta.json record) stays as given *)
  let corrupt = S.v ~chaos:"corrupt@2" () in
  Alcotest.(check bool) "default unchecked" false (S.checked S.default);
  Alcotest.(check bool) "corrupt plan forces checked" true (S.checked corrupt);
  Alcotest.(check bool) "requested flag kept" false corrupt.S.checked;
  Alcotest.(check bool) "crash plan does not" false (S.checked (S.v ~chaos:"crash@1" ()));
  Alcotest.(check bool) "checked as requested" true (S.checked (S.v ~checked:true ()));
  Alcotest.(check (option string)) "spec kept byte for byte" (Some "crash@1,transient@0")
    (Option.map (fun c -> c.S.spec) (S.v ~chaos:"crash@1,transient@0" ()).S.chaos);
  Alcotest.(check int) "plan parsed" 2 (List.length (S.plan (S.v ~chaos:"crash@1,transient@0" ())))

(* ------------------------------------------------------------------ *)
(* fault isolation on the real corpus campaign                         *)
(* ------------------------------------------------------------------ *)

let test_fault_isolation () =
  let count = 8 in
  let clean = Campaign.Corpus.run ~jobs:2 ~seed:4242 ~count () in
  let crashed =
    Campaign.Corpus.run ~jobs:2 ~seed:4242 ~count
      ~settings:(Campaign.Settings.v ~chaos:"crash@1,crash@6" ())
      ()
  in
  Alcotest.(check int) "campaign completed all slots" count
    (Array.length crashed.Campaign.Corpus.c_cases);
  (match crashed.Campaign.Corpus.c_quarantine with
   | [ a; b ] ->
     Alcotest.(check (list int)) "quarantined cases" [ 1; 6 ]
       [ a.Engine.q_case; b.Engine.q_case ];
     Alcotest.(check string) "guilty stage" "generate" a.Engine.q_stage;
     Alcotest.(check bool) "error recorded" true (contains a.Engine.q_error "injected");
     let text =
       Engine.quarantine_to_string ~seeds:crashed.Campaign.Corpus.c_seeds
         crashed.Campaign.Corpus.c_quarantine
     in
     Alcotest.(check bool) "report names the seed" true
       (contains text (string_of_int crashed.Campaign.Corpus.c_seeds.(1)))
   | qs -> Alcotest.failf "expected 2 quarantined cases, got %d" (List.length qs));
  (* the surviving cases are untouched: findings minus the crashed programs *)
  let surviving_findings c =
    List.filter
      (fun (f : Stats.finding) -> f.Stats.f_program <> 1 && f.Stats.f_program <> 6)
      (Campaign.Corpus.stats c).Stats.findings
  in
  Alcotest.(check bool) "other cases' findings preserved" true
    (surviving_findings clean = (Campaign.Corpus.stats crashed).Stats.findings)

(* ------------------------------------------------------------------ *)
(* checkpoint/resume on the real corpus campaign                       *)
(* ------------------------------------------------------------------ *)

let test_corpus_resume () =
  let count = 8 and seed = 555 in
  let path = temp_journal () in
  let full = Campaign.Corpus.run ~journal:path ~jobs:1 ~seed ~count () in
  truncate_journal path ~cases:3;
  let resumed = Campaign.Corpus.run ~journal:path ~jobs:2 ~seed ~count () in
  Alcotest.(check int) "three cases restored" 3 resumed.Campaign.Corpus.c_resumed;
  let sa = Campaign.Corpus.stats full and sb = Campaign.Corpus.stats resumed in
  Alcotest.(check bool) "stats equal after resume" true (sa = sb);
  Alcotest.(check string) "table1 equal" (Stats.table1 sa) (Stats.table1 sb);
  Sys.remove path

(* a --journal path naming someone else's file: the campaign refuses it by
   name and leaves the file as it was, rather than truncating it; a torn
   first line (a campaign killed before its header was flushed) still starts
   over *)
let test_corpus_journal_foreign_file () =
  let path = temp_journal () in
  let notes = "shopping list\n- eggs\n" in
  write_file path notes;
  (match Campaign.Corpus.run ~journal:path ~jobs:1 ~seed:3 ~count:1 () with
   | _ -> Alcotest.fail "a foreign file was accepted as a journal"
   | exception Failure msg ->
     Alcotest.(check bool) "the error names the path" true (contains msg path));
  Alcotest.(check string) "the file is untouched" notes (read_file path);
  write_file path "{\"journal\":\"dce-cam";
  let c = Campaign.Corpus.run ~journal:path ~jobs:1 ~seed:3 ~count:1 () in
  Alcotest.(check int) "a torn first line starts over" 0 c.Campaign.Corpus.c_resumed;
  Sys.remove path

(* replace the first occurrence of [needle] in [hay] *)
let replace_first hay needle replacement =
  let n = String.length needle and m = String.length hay in
  let rec find i = if i + n > m then None else if String.sub hay i n = needle then Some i else find (i + 1) in
  match find 0 with
  | None -> None
  | Some i ->
    Some (String.sub hay 0 i ^ replacement ^ String.sub hay (i + n) (m - i - n))

let test_corpus_journal_unknown_kind () =
  let count = 4 and seed = 777 in
  let path = temp_journal () in
  let clean = Campaign.Corpus.run ~journal:path ~jobs:1 ~seed ~count () in
  (* rewrite one record's payload kind to something a newer build might
     write: resume must skip (and count) it, then re-run the case *)
  let lines = String.split_on_char '\n' (read_file path) in
  let mutated =
    List.mapi
      (fun i line ->
        if i <> 2 then line
        else
          match replace_first line "\"kind\":\"" "\"kind\":\"from-the-future-" with
          | Some l -> l
          | None -> Alcotest.fail "journal record has no kind field")
      lines
  in
  write_file path (String.concat "\n" mutated);
  let resumed = Campaign.Corpus.run ~journal:path ~jobs:1 ~seed ~count () in
  Alcotest.(check int) "three cases restored" 3 resumed.Campaign.Corpus.c_resumed;
  Alcotest.(check int) "one record skipped, surfaced in metrics" 1
    resumed.Campaign.Corpus.c_metrics.Metrics.journal_skipped;
  Alcotest.(check bool) "stats equal the clean run" true
    (Campaign.Corpus.stats clean = Campaign.Corpus.stats resumed);
  Sys.remove path

let test_corpus_journal_oracle_kinds () =
  (* the specific future kinds a newer build actually writes: a size-hunt
     or level-hunt journal record must be skipped-with-count by this
     reader, not crash the resume *)
  let count = 4 and seed = 777 in
  List.iter
    (fun future_kind ->
      let path = temp_journal () in
      let clean = Campaign.Corpus.run ~journal:path ~jobs:1 ~seed ~count () in
      let lines = String.split_on_char '\n' (read_file path) in
      let mutated =
        List.mapi
          (fun i line ->
            if i <> 2 then line
            else
              (* "kind":"analyzed" becomes "kind":"size-case","x":"analyzed"
                 — still valid JSON, now carrying an oracle record's kind *)
              match
                replace_first line "\"kind\":\""
                  (Printf.sprintf "\"kind\":\"%s\",\"x\":\"" future_kind)
              with
              | Some l -> l
              | None -> Alcotest.fail "journal record has no kind field")
          lines
      in
      write_file path (String.concat "\n" mutated);
      let resumed = Campaign.Corpus.run ~journal:path ~jobs:1 ~seed ~count () in
      Alcotest.(check int) (future_kind ^ ": record skipped") 1
        resumed.Campaign.Corpus.c_metrics.Metrics.journal_skipped;
      Alcotest.(check bool) (future_kind ^ ": stats equal the clean run") true
        (Campaign.Corpus.stats clean = Campaign.Corpus.stats resumed);
      Sys.remove path)
    [ "size-case"; "inversion-case" ]

let test_value_campaign_determinism () =
  let a = Campaign.Corpus.run_value ~jobs:1 ~seed:corpus_seed ~count:6 () in
  let b = Campaign.Corpus.run_value ~jobs:3 ~seed:corpus_seed ~count:6 () in
  Alcotest.(check bool) "value cases identical" true
    (a.Engine.result.outcomes = b.Engine.result.outcomes);
  Alcotest.(check string) "value table identical" (Campaign.Corpus.value_table a)
    (Campaign.Corpus.value_table b)

(* ------------------------------------------------------------------ *)
(* JSON codec and metrics helpers                                      *)
(* ------------------------------------------------------------------ *)

let json_gen =
  let open QCheck2.Gen in
  let finite_float = map (fun (a, b) -> float_of_int a /. float_of_int (1 + abs b)) (pair int int) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.String s) string;
      ]
  in
  let rec value n =
    if n = 0 then leaf
    else
      oneof
        [
          leaf;
          map (fun l -> Json.List l) (list_size (int_bound 4) (value (n - 1)));
          map
            (fun kvs -> Json.Obj kvs)
            (list_size (int_bound 4) (pair string (value (n - 1))));
        ]
  in
  value 3

let json_roundtrip =
  qtest ~count:300 "json: of_string (to_string v) = v" json_gen (fun v ->
      Json.of_string (Json.to_string v) = Ok v)

(* The one level and marker-set codec shared by every record kind:
   encoding then decoding is the identity, and decoding any other value
   either returns or raises Failure, never anything else. *)
let level_iset_roundtrip =
  let open QCheck2.Gen in
  qtest ~count:300 "json: level and marker-set codec round-trips"
    (pair (oneofl C.Level.all) (list_size (int_bound 20) int))
    (fun (level, markers) ->
      let s = Ir.Iset.of_list markers in
      Json.level_exn (Json.of_level level) = level
      && Ir.Iset.equal (Json.iset_exn (Json.of_iset s)) s)

let level_iset_decoders_total =
  let open QCheck2.Gen in
  let near_miss =
    oneof
      [
        map Json.of_level (oneofl C.Level.all);
        map (fun s -> Json.String s) (oneofl [ ""; "-"; "O2"; "-os"; "-O9"; "O3 " ]);
        map (fun l -> Json.List l) (list_size (int_bound 5) (oneof [ map (fun i -> Json.Int i) int; json_gen ]));
      ]
  in
  qtest ~count:500 "json: level and marker-set decoders return or raise Failure"
    (oneof [ json_gen; near_miss ])
    (fun v ->
      let total decode = match decode v with _ -> true | exception Failure _ -> true in
      total Json.level_exn && total Json.iset_exn)

(* The journal decoder on hostile bytes.  A written journal followed by any
   suffix (a torn write, a foreign process appending, disk garbage) loads
   without raising and returns the written records first; any whole file
   loads to [None] or [Some], never an exception. *)
let journal_bytes_gen =
  let open QCheck2.Gen in
  let byte = oneof [ char; oneofl [ '\n'; '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; '-'; '9'; 'e' ] ] in
  let noise = string_size ~gen:byte (int_bound 200) in
  (* a line that is valid JSON, often a near-miss header, so decoding gets
     past the parser *)
  let json_line =
    let field = pair (oneofl [ "journal"; "version"; "campaign"; "seed"; "count" ]) json_gen in
    map
      (fun (header, fields) ->
        Json.to_string (Json.Obj ((if header then [ ("journal", Json.String "dce-campaign") ] else []) @ fields))
        ^ "\n")
      (pair bool (list_size (int_bound 5) field))
  in
  map (String.concat "") (list_size (int_range 1 4) (oneof [ noise; json_line ]))

let journal_header = { Campaign.Journal.h_campaign = "fuzz"; h_seed = 7; h_count = 3 }

let with_temp_journal f =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let journal_suffix_tolerated =
  qtest ~count:200 "journal: written records survive any appended suffix"
    QCheck2.Gen.(pair (list_size (int_bound 6) json_gen) journal_bytes_gen)
    (fun (records, suffix) ->
      with_temp_journal (fun path ->
          let j = Campaign.Journal.open_append ~path journal_header in
          List.iter (Campaign.Journal.append j) records;
          Campaign.Journal.close j;
          let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
          output_string oc suffix;
          close_out oc;
          match Campaign.Journal.load ~path with
          | Some (h, loaded, _) ->
            h = journal_header
            && List.length loaded >= List.length records
            && List.filteri (fun i _ -> i < List.length records) loaded = records
          | None -> false))

let journal_load_total =
  (* half the files start with a valid header, so the record decoder runs *)
  let header_line =
    lazy
      (with_temp_journal (fun path ->
           Campaign.Journal.close (Campaign.Journal.open_append ~path journal_header);
           read_file path))
  in
  qtest ~count:500 "journal: load on arbitrary bytes returns, never raises"
    QCheck2.Gen.(pair bool journal_bytes_gen)
    (fun (with_header, bytes) ->
      with_temp_journal (fun path ->
          write_file path ((if with_header then Lazy.force header_line else "") ^ bytes);
          match Campaign.Journal.load ~path with None | Some _ -> true))

let test_json_escaping () =
  let v = Json.Obj [ ("k\"ey\n", Json.String "a\tb\\c\x01d\xc3\xa9") ] in
  Alcotest.(check bool) "awkward strings round-trip" true
    (Json.of_string (Json.to_string v) = Ok v);
  (match Json.of_string "{\"a\":[1,tru" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "truncated input must not parse");
  Alcotest.(check bool) "single line" true
    (not (String.contains (Json.to_string v) '\n'))

let test_json_nonfinite () =
  (* JSON has no nan/infinity tokens; a metrics record holding one (e.g. a
     0/0 throughput) must still serialize to a parseable line *)
  let v =
    Json.Obj
      [
        ("nan", Json.Float Float.nan);
        ("inf", Json.Float Float.infinity);
        ("ninf", Json.Float Float.neg_infinity);
        ("ok", Json.Float 2.5);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "no bare nan token" false (contains s "nan,");
  (match Json.of_string s with
   | Ok (Json.Obj [ ("nan", Json.Null); ("inf", Json.Null); ("ninf", Json.Null); ("ok", Json.Float f) ]) ->
     Alcotest.(check (float 0.0)) "finite float survives" 2.5 f
   | Ok other -> Alcotest.failf "unexpected round-trip shape: %s" (Json.to_string other)
   | Error e -> Alcotest.failf "non-finite floats made the line unparseable: %s" e)

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Metrics.percentile xs 0.5);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Metrics.percentile xs 0.99);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Metrics.percentile xs 1.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Metrics.percentile [||] 0.5);
  Alcotest.(check (float 0.0)) "singleton" 7.0 (Metrics.percentile [| 7.0 |] 0.9)

(* ------------------------------------------------------------------ *)
(* journal bytes pinned across builds                                  *)
(* ------------------------------------------------------------------ *)

(* Resume tests read back what the same build wrote, so they cannot see a
   record format drift.  These digests pin one journal line of every record
   kind, each computed from master seed [pin_seed]: real campaign cases
   where the corpus has them, hand-built rejections (no corpus seed this
   small generates a program ground truth rejects).  A changed digest of a
   hand-built record means the format drifted and old journals no longer
   resume byte for byte; a campaign case's digest also moves when the
   pipeline's results for this seed change. *)
let pin_seed = 6

let pin_reason = "trap: division by zero"

(* the journal line of case 0 that [run path] writes *)
let journal_line run =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      run path;
      List.nth (String.split_on_char '\n' (read_file path)) 1)

let hand_built codec x = Json.to_string (Engine.case_to_json codec 0 (Engine.Done x))

(* the line's digest, after checking that decoding then encoding it gives
   the same bytes *)
let pin codec line =
  (match Result.map (Engine.case_of_json codec) (Json.of_string line) with
   | Ok (Some (i, o)) ->
     Alcotest.(check string) "decode then encode" line
       (Json.to_string (Engine.case_to_json codec i o))
   | _ -> Alcotest.failf "undecodable record %s" line);
  Digest.to_hex (Digest.string line)

let test_journal_bytes_pinned () =
  let module O = Campaign.Oracle_campaign in
  let module V = Dce_repair.Verify in
  let case_seed = List.hd (Dce_smith.Smith.corpus_seeds ~seed:pin_seed ~count:1) in
  let corpus = ref None in
  let hunt =
    journal_line (fun journal ->
        corpus := Some (Campaign.Corpus.run ~journal ~jobs:1 ~seed:pin_seed ~count:1 ()))
  in
  let hunt_rejected =
    hand_built Campaign.Corpus.codec
      (Campaign.Corpus.codec.Engine.decode
         (Json.Obj
            [
              ("seed", Json.Int case_seed);
              ("kind", Json.String "rejected");
              ("reason", Json.String pin_reason);
            ]))
  in
  let verify_compilers = [ (C.Gcc_sim.compiler, "gcc-sim"); (C.Llvm_sim.compiler, "llvm-sim") ] in
  let digests =
    [
      ("hunt", pin Campaign.Corpus.codec hunt);
      ("hunt rejected", pin Campaign.Corpus.codec hunt_rejected);
      ( "value",
        pin Campaign.Corpus.value_codec
          (journal_line (fun journal ->
               ignore (Campaign.Corpus.run_value ~journal ~jobs:1 ~seed:pin_seed ~count:1 ()))) );
      ( "size-case",
        pin O.size_codec
          (journal_line (fun journal ->
               ignore (O.run_size ~journal ~jobs:1 ~seed:pin_seed ~count:1 ()))) );
      ( "size-case rejected",
        pin O.size_codec
          (hand_built O.size_codec
             { O.sc_seed = case_seed; sc_rejected = Some pin_reason; sc_curve = [] }) );
      ( "inversion-case",
        pin O.inv_codec
          (journal_line (fun journal ->
               ignore (O.run_inversion ~journal ~jobs:1 ~seed:pin_seed ~count:1 ()))) );
      ( "inversion-case rejected",
        pin O.inv_codec
          (hand_built O.inv_codec
             {
               O.ic_seed = case_seed;
               ic_rejected = Some pin_reason;
               ic_dead = Ir.Iset.empty;
               ic_surviving = [];
               ic_findings = [];
             }) );
      ( "verify-case",
        pin V.codec
          (journal_line (fun journal ->
               ignore
                 (V.campaign ~journal ~name:"verify" ~compilers:verify_compilers ~seed:pin_seed
                    ~count:1 ()))) );
      ( "verify-case rejected",
        pin V.codec
          (hand_built V.codec { V.vc_seed = case_seed; vc_rejected = Some pin_reason; vc_rows = [] })
      );
      ( "bisect-case",
        pin Campaign.Bisect_campaign.codec
          (journal_line (fun journal ->
               ignore (Campaign.Bisect_campaign.run ~journal ~jobs:1 (Option.get !corpus)))) );
    ]
  in
  Alcotest.(check (list (pair string string)))
    "record digests"
    [
      ("hunt", "251b1c1573f866412f1b4304d56f15d5");
      ("hunt rejected", "a801e159b826deaed7ba0994051b51eb");
      ("value", "7ffe2939d0e3fd6273fd83d690b14779");
      ("size-case", "89f27f0ec29d0e69288da38c811f2e9e");
      ("size-case rejected", "508fb490818362023091a2418bf7d6d1");
      ("inversion-case", "c7aa97f91b6e94286539b431b4301079");
      ("inversion-case rejected", "95a9e70ee7c0868c1f4b42314aca6c06");
      ("verify-case", "a53799d44751470ec487a5cb415b56e3");
      ("verify-case rejected", "282cd31b58941484de1704ad00612fbd");
      ("bisect-case", "97688b529119085a6fd1eae5cd110be1");
    ]
    digests

(* No generated program is rejected by ground truth, so a mode's rejected
   branch only runs on journal records: resume hunt, size-hunt and
   level-hunt through the mode table from a run-directory journal whose
   every case is the rejected record the pin test builds. *)
let test_rejected_through_mode_table () =
  let module O = Campaign.Oracle_campaign in
  let seed = pin_seed and count = 3 in
  let settings = Campaign.Settings.default in
  let done_ codec i x = Engine.case_to_json codec i (Engine.Done x) in
  let rejected =
    [
      ( "hunt",
        fun i case_seed ->
          done_ Campaign.Corpus.codec i
            (Campaign.Corpus.codec.Engine.decode
               (Json.Obj
                  [
                    ("seed", Json.Int case_seed);
                    ("kind", Json.String "rejected");
                    ("reason", Json.String pin_reason);
                  ])) );
      ( "size-hunt",
        fun i case_seed ->
          done_ O.size_codec i
            { O.sc_seed = case_seed; sc_rejected = Some pin_reason; sc_curve = [] } );
      ( "level-hunt",
        fun i case_seed ->
          done_ O.inv_codec i
            {
              O.ic_seed = case_seed;
              ic_rejected = Some pin_reason;
              ic_dead = Ir.Iset.empty;
              ic_surviving = [];
              ic_findings = [];
            } );
    ]
  in
  List.iter
    (fun (name, record) ->
      let root = Filename.temp_file "dce_rejected" "" in
      Sys.remove root;
      Fun.protect
        ~finally:(fun () -> Dce_support.Fsx.rm_rf root)
        (fun () ->
          let id = Campaign.Run_store.campaign_run_id ~campaign:name ~seed ~count settings in
          let journal = Campaign.Run_store.journal_path (Campaign.Run_store.dir_of ~root ~id) in
          let j =
            Campaign.Journal.open_append ~path:journal
              { Campaign.Journal.h_campaign = name; h_seed = seed; h_count = count }
          in
          List.iteri
            (fun i case_seed -> Campaign.Journal.append j (record i case_seed))
            (Dce_smith.Smith.corpus_seeds ~seed ~count);
          Campaign.Journal.close j;
          let m = Option.get (Campaign.Mode.find name) in
          let r = m.run ~journal ~settings ~jobs:1 ~seed ~count () in
          Alcotest.(check int) (name ^ ": every case resumed") count r.resumed;
          Alcotest.(check bool) (name ^ ": summary counts the rejections") true
            (contains r.summary "(3 rejected)");
          Alcotest.(check (list int)) (name ^ ": report lists every case rejected") [ 0; 1; 2 ]
            r.report.Campaign.Run_store.r_rejected;
          Alcotest.(check int) (name ^ ": no findings") 0 r.findings))
    rejected

let suite =
  [
    ("jobs determinism: stats and findings", `Slow, test_jobs_determinism_stats);
    ("jobs determinism: triage tables", `Slow, test_jobs_determinism_triage);
    ("campaign metrics sanity", `Slow, test_metrics_sanity);
    ("engine: toy parallel run", `Quick, test_engine_toy_parallel);
    ("engine: innermost stage blamed", `Quick, test_engine_innermost_stage);
    ("engine: resume from torn journal", `Quick, test_engine_toy_resume);
    ("engine: journal header mismatch", `Quick, test_engine_journal_mismatch);
    ("engine: crashes are checkpointed", `Quick, test_engine_crash_checkpointed);
    ("engine: slow case does not block the rest", `Quick, test_engine_work_stealing);
    ("engine: the calling domain is worker 0", `Quick, test_engine_caller_is_worker_0);
    ("engine: a caller fault is re-raised after the join", `Quick,
     test_engine_caller_fault_joins_first);
    ("engine: exception releases the journal", `Quick, test_engine_exception_releases_journal);
    ("engine: hostile journal skipped and counted", `Quick, test_engine_journal_robustness);
    ("settings: out-of-range values name their flag", `Quick, test_settings_validation);
    ("journal: record bytes pinned across builds", `Slow, test_journal_bytes_pinned);
    ("mode table: rejected cases resume as rejected", `Quick, test_rejected_through_mode_table);
    ("fault isolation: injected crash quarantined", `Slow, test_fault_isolation);
    ("checkpoint/resume: corpus campaign", `Slow, test_corpus_resume);
    ("checkpoint/resume: unknown record kind skipped", `Slow, test_corpus_journal_unknown_kind);
    ("checkpoint/resume: a foreign --journal file is refused", `Quick,
     test_corpus_journal_foreign_file);
    ("checkpoint/resume: oracle record kinds skipped", `Slow, test_corpus_journal_oracle_kinds);
    ("value campaign: jobs determinism", `Slow, test_value_campaign_determinism);
    json_roundtrip;
    level_iset_roundtrip;
    level_iset_decoders_total;
    journal_suffix_tolerated;
    journal_load_total;
    ("json: escaping and truncation", `Quick, test_json_escaping);
    ("json: non-finite floats serialize as null", `Quick, test_json_nonfinite);
    ("metrics: nearest-rank percentile", `Quick, test_percentile);
  ]
