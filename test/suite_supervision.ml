(* The supervision layer: cooperative guards, retry policy, crash bundles,
   journal locking, and the chaos soak.

   The soak is the tentpole invariant: under an arbitrary deterministic
   fault plan, every non-faulted case produces results identical to the
   fault-free campaign, every injected fault is either quarantined with the
   right classification or recovered by retry, and a torn journal resumes
   under chaos to the same report — at every worker count. *)

open Helpers
module Campaign = Dce_campaign
module Engine = Campaign.Engine
module Guard = Dce_support.Guard
module Chaos = Campaign.Chaos
module Bundle = Campaign.Bundle
module Journal = Campaign.Journal
module Metrics = Campaign.Metrics

(* ------------------------------------------------------------------ *)
(* Guard unit behaviour                                                *)
(* ------------------------------------------------------------------ *)

let test_guard_step_budget () =
  let g = Guard.create ~steps:5 () in
  let trip () =
    Guard.with_guard g (fun () ->
        for _ = 1 to 10 do
          Guard.poll ~site:"unit"
        done)
  in
  (match trip () with
   | () -> Alcotest.fail "expected Budget_exceeded"
   | exception Guard.Budget_exceeded { site; steps; _ } ->
     Alcotest.(check string) "site" "unit" site;
     (* the poll that finds the budget spent is the one that trips *)
     Alcotest.(check int) "tripped just past the budget" 6 steps);
  (* the guard is ambient only inside with_guard *)
  Alcotest.(check bool) "no ambient guard outside" false (Guard.active ())

let test_guard_deadline_trips () =
  (* a deadline already in the past must trip on the first clock check *)
  let g = Guard.create ~deadline:(-1.0) () in
  match Guard.with_guard g (fun () -> Guard.poll ~site:"dl") with
  | () -> Alcotest.fail "an expired deadline must trip on the first poll"
  | exception Guard.Budget_exceeded { site; _ } -> Alcotest.(check string) "site" "dl" site

let test_guard_unlimited_noop () =
  (* both bounds absent: create returns the unlimited sentinel and polling
     is free; a million polls must neither raise nor activate *)
  let g = Guard.create () in
  Guard.with_guard g (fun () ->
      Alcotest.(check bool) "unlimited is not active" false (Guard.active ());
      for _ = 1 to 1_000_000 do
        Guard.poll ~site:"free"
      done);
  Guard.poll ~site:"no-guard-at-all"

let test_guard_nesting_restored () =
  let outer = Guard.create ~steps:1_000 () in
  let inner = Guard.create ~steps:2 () in
  Guard.with_guard outer (fun () ->
      (match Guard.with_guard inner (fun () ->
               Guard.poll ~site:"a";
               Guard.poll ~site:"b";
               Guard.poll ~site:"c")
       with
       | () -> Alcotest.fail "inner budget must trip"
       | exception Guard.Budget_exceeded _ -> ());
      (* the outer guard must be back in force after the inner one died *)
      Alcotest.(check bool) "outer restored" true (Guard.active ());
      Guard.poll ~site:"outer-still-fine")

(* ------------------------------------------------------------------ *)
(* poll points: interpreter and pass manager                           *)
(* ------------------------------------------------------------------ *)

let test_guard_cuts_interp () =
  (* a long-running loop polls every 256 steps; a small step budget must cut
     it long before the interpreter's own fuel would *)
  let prog =
    lower
      "int main(void) { int i = 0; int s = 0; while (i < 1000000) { s = s + i; i = i + 1; } \
       return s; }"
  in
  let g = Guard.create ~steps:10 () in
  match Guard.with_guard g (fun () -> I.run ~fuel:100_000_000 prog) with
  | _ -> Alcotest.fail "expected the guard to cut the interpreter"
  | exception Guard.Budget_exceeded { site; _ } -> Alcotest.(check string) "site" "interp" site

let test_guard_cuts_passmgr () =
  (* every executed pass polls on entry; a tiny budget dies inside the
     pipeline, naming a pass as the site *)
  let prog = Core.Instrument.program (smith_program 99) in
  let g = Guard.create ~steps:3 () in
  match
    Guard.with_guard g (fun () ->
        markers_of (compiler_named "gcc") C.Level.O3 prog)
  with
  | _ -> Alcotest.fail "expected the guard to cut the pipeline"
  | exception Guard.Budget_exceeded { site; steps; _ } ->
    Alcotest.(check bool) "site is a pass label" true (site <> "");
    Alcotest.(check int) "tripped just past the budget" 4 steps

(* ------------------------------------------------------------------ *)
(* engine: timeout classification, retries, backtraces                 *)
(* ------------------------------------------------------------------ *)

let test_engine_timeout_quarantine () =
  (* deterministic flavour: a chaos hang against a step budget *)
  let settings = Campaign.Settings.v ~step_budget:5_000 ~chaos:"hang@2:spin" () in
  let r =
    Engine.run ~settings ~jobs:1 ~count:4 (fun ctx i ->
        Engine.stage ctx "spin" (fun () -> i * 2))
  in
  (match r.Engine.quarantine with
   | [ q ] ->
     Alcotest.(check int) "case" 2 q.Engine.q_case;
     Alcotest.(check string) "stage" "spin" q.Engine.q_stage;
     Alcotest.(check bool) "classified timeout" true (q.Engine.q_kind = Engine.Timeout);
     Alcotest.(check bool) "error names the budget" true (contains q.Engine.q_error "budget")
   | qs -> Alcotest.failf "expected 1 timeout, got %d quarantined" (List.length qs));
  Alcotest.(check int) "metrics count the timeout" 1 r.Engine.metrics.Metrics.timeouts;
  Alcotest.(check int) "no plain crashes" 0 r.Engine.metrics.Metrics.crashed;
  (* the other cases were unaffected *)
  Alcotest.(check bool) "case 1 done" true (r.Engine.outcomes.(1) = Engine.Done 2)

(* Every campaign prints its quarantine through one printer: a step budget
   that trips reads "timed out" in the value campaign and in the bisection
   campaign alike. *)
let test_quarantine_wording_shared () =
  let budget n = Campaign.Settings.v ~step_budget:n () in
  let check_lines what lines =
    Alcotest.(check bool) (what ^ ": something quarantined") true (lines <> []);
    List.iter
      (fun line ->
        if not (contains line "timed out in stage") || contains line "crashed" then
          Alcotest.failf "%s: quarantine line %S" what line)
      lines
  in
  let split text = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let v = Campaign.Corpus.run_value ~settings:(budget 50) ~jobs:1 ~seed:42 ~count:4 () in
  check_lines "value-hunt"
    (split (Engine.quarantine_to_string ~seeds:v.Engine.seeds v.Engine.result.Engine.quarantine));
  let corpus = Campaign.Corpus.run ~jobs:1 ~seed:42 ~count:6 () in
  let b = Campaign.Bisect_campaign.run ~settings:(budget 400) ~jobs:1 corpus in
  check_lines "bisect-campaign"
    (split
       (Engine.quarantine_to_string ~seeds:corpus.Campaign.Corpus.c_seeds
          b.Campaign.Bisect_campaign.b_quarantine))

let test_engine_wall_clock_deadline () =
  (* the non-deterministic flavour: a real wall-clock deadline against an
     unbounded spin (kept tiny so the test costs ~0.2s) *)
  let settings = Campaign.Settings.v ~deadline:0.2 ~chaos:"hang@0:spin" () in
  let r =
    Engine.run ~settings ~jobs:1 ~count:1 (fun ctx _ ->
        Engine.stage ctx "spin" (fun () -> ()))
  in
  match r.Engine.quarantine with
  | [ q ] -> Alcotest.(check bool) "timeout" true (q.Engine.q_kind = Engine.Timeout)
  | qs -> Alcotest.failf "expected 1 timeout, got %d" (List.length qs)

let test_engine_retry_recovers () =
  let settings = Campaign.Settings.v ~retries:2 ~chaos:"transient2@1:work" () in
  let r =
    Engine.run ~settings ~jobs:1 ~count:3 (fun ctx i ->
        Engine.stage ctx "work" (fun () -> i + 10))
  in
  Alcotest.(check (list int)) "no quarantine" []
    (List.map (fun q -> q.Engine.q_case) r.Engine.quarantine);
  Alcotest.(check bool) "case 1 recovered" true (r.Engine.outcomes.(1) = Engine.Done 11);
  Alcotest.(check int) "two retry attempts counted" 2 r.Engine.metrics.Metrics.retries;
  Alcotest.(check int) "one case recovered" 1 r.Engine.metrics.Metrics.recovered;
  let text = Metrics.to_string r.Engine.metrics in
  Alcotest.(check bool) "summary mentions recovery" true (contains text "recovered")

let test_engine_retry_exhausted () =
  let settings = Campaign.Settings.v ~retries:2 ~chaos:"transient5@0:work" () in
  let r =
    Engine.run ~settings ~jobs:1 ~count:1 (fun ctx _ ->
        Engine.stage ctx "work" (fun () -> ()))
  in
  match r.Engine.quarantine with
  | [ q ] ->
    Alcotest.(check int) "retries recorded on the quarantine" 2 q.Engine.q_retries;
    Alcotest.(check bool) "still transient-kind crash" true (q.Engine.q_kind = Engine.Crash);
    Alcotest.(check int) "both retry attempts counted" 2 r.Engine.metrics.Metrics.retries;
    Alcotest.(check int) "nothing recovered" 0 r.Engine.metrics.Metrics.recovered
  | qs -> Alcotest.failf "expected 1 quarantined, got %d" (List.length qs)

let test_engine_backtrace_captured () =
  let r =
    Engine.run ~jobs:1 ~count:1 (fun ctx _ ->
        Engine.stage ctx "boom" (fun () -> failwith "kaboom"))
  in
  match r.Engine.quarantine with
  | [ q ] ->
    Alcotest.(check bool) "backtrace non-empty" true (String.length q.Engine.q_backtrace > 0);
    Alcotest.(check bool) "backtrace mentions a frame" true
      (contains q.Engine.q_backtrace "Raised")
  | qs -> Alcotest.failf "expected 1 quarantined, got %d" (List.length qs)

(* ------------------------------------------------------------------ *)
(* journal locking                                                     *)
(* ------------------------------------------------------------------ *)

let test_journal_double_open_fails () =
  let path = Filename.temp_file "dce_lock_test" ".jsonl" in
  let header = { Journal.h_campaign = "lock-test"; h_seed = 1; h_count = 2 } in
  let j1 = Journal.open_append ~path header in
  (match Journal.open_append ~path header with
   | _ -> Alcotest.fail "second open of a live journal must fail"
   | exception Failure msg ->
     Alcotest.(check bool) "message names the lock" true (contains msg "locked");
     Alcotest.(check bool) "message names the path" true (contains msg path));
  (* an opener that loaded the file before the live campaign wrote its
     header is refused for the lock too, not as a foreign file *)
  (match Journal.open_append ~existing:None ~path header with
   | _ -> Alcotest.fail "an open that loaded before the header was written must fail"
   | exception Failure msg ->
     Alcotest.(check bool) "stale load: message names the lock" true (contains msg "locked"));
  (* the refused openers must not have damaged the live journal *)
  Journal.append j1 (Campaign.Json.Obj [ ("case", Campaign.Json.Int 0) ]);
  Journal.close j1;
  (* after close the lock is released and reopening resumes normally *)
  let j2 = Journal.open_append ~path header in
  Journal.close j2;
  (match Journal.load ~path with
   | Some (h, cases, 0) ->
     Alcotest.(check bool) "header survived" true (h = header);
     Alcotest.(check int) "case written before the failed open survived" 1 (List.length cases)
   | _ -> Alcotest.fail "journal unreadable after lock round-trip");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* chaos plan parsing                                                  *)
(* ------------------------------------------------------------------ *)

let test_chaos_plan_parse () =
  (match Chaos.of_string "crash@1,transient2@3:differential,hang@5:ground-truth,corrupt@7" with
   | Error e -> Alcotest.failf "parse failed: %s" e
   | Ok plan ->
     Alcotest.(check int) "entries" 4 (List.length plan);
     Alcotest.(check bool) "default stage is generate" true
       (List.exists
          (fun i -> i.Chaos.inj_case = 1 && i.Chaos.inj_stage = "generate"
                    && i.Chaos.inj_fault = Chaos.Crash)
          plan);
     Alcotest.(check bool) "transient count parsed" true
       (List.exists
          (fun i -> i.Chaos.inj_case = 3 && i.Chaos.inj_stage = "differential"
                    && i.Chaos.inj_fault = Chaos.Transient 2)
          plan);
     Alcotest.(check bool) "corrupt defaults to the dce pass" true
       (List.exists
          (fun i -> i.Chaos.inj_case = 7 && i.Chaos.inj_stage = "dce"
                    && i.Chaos.inj_fault = Chaos.Corrupt_ir)
          plan);
     (* canonical round trip *)
     Alcotest.(check bool) "to_string/of_string round-trips" true
       (Chaos.of_string (Chaos.to_string plan) = Ok plan));
  (match Chaos.of_string "explode@3" with
   | Error e -> Alcotest.(check bool) "unknown kind reported" true (contains e "explode")
   | Ok _ -> Alcotest.fail "unknown fault kind must be rejected");
  match Chaos.of_string "crash@x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-integer case must be rejected"

let test_chaos_hang_refused_without_guard () =
  (* no deadline and no step budget: arming a hang must refuse loudly rather
     than stall the worker forever *)
  let settings = Campaign.Settings.v ~chaos:"hang@0:spin" () in
  let r = Engine.run ~settings ~jobs:1 ~count:1 (fun ctx _ -> Engine.stage ctx "spin" Fun.id) in
  match r.Engine.quarantine with
  | [ q ] ->
    Alcotest.(check bool) "refusal names the guard" true
      (contains q.Engine.q_error "without an active guard")
  | qs -> Alcotest.failf "expected 1 quarantined, got %d" (List.length qs)

(* ------------------------------------------------------------------ *)
(* checked mode: the Passmgr IR hook blames the guilty pass            *)
(* ------------------------------------------------------------------ *)

let test_checked_mode_blames_pass () =
  let prog = Core.Instrument.program (smith_program 7) in
  let plan = [ { Chaos.inj_case = 0; inj_stage = "dce"; inj_fault = Chaos.Corrupt_ir } ] in
  Chaos.arm plan ~case:0 ~attempt:0;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      match
        markers_of ~validate:true (compiler_named "gcc") C.Level.O2 prog
      with
      | _ -> Alcotest.fail "corrupted IR must fail validation"
      | exception C.Passmgr.Ir_invalid { pass; errors } ->
        Alcotest.(check string) "guilty pass" "dce" pass;
        Alcotest.(check bool) "validator diagnostics present" true (errors <> []));
  (* without checked mode the same corruption is NOT attributed: it either
     flows through or blows up arbitrarily far from the guilty pass (sccp
     trips an array bound on the bogus register) — why Corpus forces
     checked for corrupt plans *)
  Chaos.arm plan ~case:0 ~attempt:0;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      match markers_of (compiler_named "gcc") C.Level.O2 prog with
      | _ -> ()
      | exception C.Passmgr.Ir_invalid _ ->
        Alcotest.fail "unchecked run must not classify the fault"
      | exception _ -> ())

(* ------------------------------------------------------------------ *)
(* crash bundles                                                       *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Dce_support.Fsx.mkdir_p d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_bundle_roundtrip () =
  let dir = temp_dir "dce_bundle_test" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let q =
        {
          Engine.q_case = 42;
          q_stage = "differential";
          q_error = "some pass exploded";
          q_kind = Engine.Ir_invalid;
          q_backtrace = "Raised at Somewhere.deep in file \"x.ml\"";
          q_retries = 1;
        }
      in
      let b =
        Bundle.of_quarantined ~campaign:"hunt" ~seed:12345
          ~source:"int main(void) { return 0; }" q
      in
      let written = Bundle.write ~dir b in
      Alcotest.(check string) "case dir layout" (Bundle.case_dir ~dir 42) written;
      match Bundle.load written with
      | None -> Alcotest.fail "bundle did not load back"
      | Some b' ->
        Alcotest.(check bool) "round-trips" true (b = b');
        Alcotest.(check bool) "summary mentions the kind" true
          (contains (Bundle.to_string b') "ir-invalid"))

let test_bundles_written_by_campaign () =
  let dir = temp_dir "dce_bundle_campaign" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c =
        Campaign.Corpus.run ~jobs:2 ~seed:4242 ~count:6
          ~settings:(Campaign.Settings.v ~chaos:"crash@1,crash@4" ())
          ~bundle_dir:dir ()
      in
      Alcotest.(check int) "two quarantined" 2 (List.length c.Campaign.Corpus.c_quarantine);
      List.iter
        (fun case ->
          match Bundle.load (Bundle.case_dir ~dir case) with
          | None -> Alcotest.failf "no bundle for case %d" case
          | Some b ->
            Alcotest.(check int) "bundle seed is the case seed"
              c.Campaign.Corpus.c_seeds.(case) b.Bundle.b_seed;
            Alcotest.(check string) "guilty stage" "generate" b.Bundle.b_stage;
            (match b.Bundle.b_source with
             | None -> Alcotest.fail "bundle has no source"
             | Some src ->
               (* the repro must stand alone: parse and typecheck it *)
               ignore (parse src)))
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* the chaos soak                                                      *)
(* ------------------------------------------------------------------ *)

(* one fault of every kind, aimed at distinct cases of the shared 50-case
   corpus (Suite_campaign.seq is the fault-free baseline) *)
let soak_spec =
  "crash@3,hang@7:ground-truth,transient@11:differential,slow@13:instrument,corrupt@17"

let soak_faulted = [ 3; 7; 17 ]  (* quarantined; 11 recovers, 13 only slows *)

let run_soak ?journal jobs =
  Campaign.Corpus.run ?journal ~jobs ~seed:Suite_campaign.corpus_seed
    ~count:Suite_campaign.corpus_count
    ~settings:(Campaign.Settings.v ~chaos:soak_spec ~step_budget:2_000_000 ~retries:2 ())
    ()

let soak1 = lazy (run_soak 1)

(* Per-case projection of everything result-like in an analysis outcome:
   surviving/missed/primary-missed per config, and the per-stage marker
   attribution.  Deliberately excludes stage wall times ([sr_time]) — they
   are measurements, not results, and differ between any two runs. *)
let project (c : Campaign.Corpus.t) =
  Array.to_list c.Campaign.Corpus.c_cases
  |> List.mapi (fun i case ->
         match case with
         | Campaign.Corpus.Quarantined q ->
           (i, `Quarantined (q.Engine.q_kind, q.Engine.q_stage))
         | Campaign.Corpus.Case (Core.Analysis.Rejected r, _) -> (i, `Rejected r)
         | Campaign.Corpus.Case (Core.Analysis.Analyzed a, _) ->
           ( i,
             `Analyzed
               (List.map
                  (fun (pc : Core.Analysis.per_config) ->
                    ( pc.Core.Analysis.cfg_compiler,
                      pc.Core.Analysis.cfg_level,
                      pc.Core.Analysis.surviving,
                      pc.Core.Analysis.missed,
                      pc.Core.Analysis.primary_missed,
                      C.Passmgr.attribution pc.Core.Analysis.cfg_trace ))
                  a.Core.Analysis.configs) ))

(* An injection whose case never reaches its stage is named, not
   dropped: case 1 of this corpus has no level inversion, so its bisection
   never runs and the run completes with nothing quarantined. *)
let test_chaos_unfired_named () =
  let m = Campaign.Mode.level ~bisect:true in
  let settings = Campaign.Settings.v ~chaos:"crash@1:bisect" () in
  let r = m.run ~settings ~jobs:1 ~seed:42 ~count:20 () in
  Alcotest.(check int) "nothing quarantined" 0 r.quarantined;
  Alcotest.(check bool) "the epilogue names it" true
    (contains
       (Campaign.Mode.epilogue ~metrics:false r)
       "chaos injection crash@1:bisect never fired: case 1 never reached bisect\n")

let test_soak_fault_accounting () =
  let c = Lazy.force soak1 in
  let quarantined =
    List.map (fun q -> (q.Engine.q_case, q.Engine.q_kind, q.Engine.q_stage))
      c.Campaign.Corpus.c_quarantine
  in
  Alcotest.(check bool) "every fault quarantined with its classification" true
    (quarantined
     = [
         (3, Engine.Crash, "generate");
         (7, Engine.Timeout, "ground-truth");
         (17, Engine.Ir_invalid, "differential");
       ]);
  let m = c.Campaign.Corpus.c_metrics in
  Alcotest.(check int) "crash counted" 1 m.Metrics.crashed;
  Alcotest.(check int) "timeout counted" 1 m.Metrics.timeouts;
  Alcotest.(check int) "ir-invalid counted" 1 m.Metrics.ir_invalid;
  Alcotest.(check int) "one retry, one recovery" 1 m.Metrics.retries;
  Alcotest.(check int) "recovered" 1 m.Metrics.recovered;
  (* crash + hang + transient + slow + corrupt each fired exactly once *)
  Alcotest.(check int) "all five faults fired" 5 m.Metrics.chaos_fired;
  Alcotest.(check int) "no injection left unfired" 0 (List.length m.Metrics.chaos_unfired);
  let text = Metrics.to_string m in
  Alcotest.(check bool) "summary says timed out" true (contains text "timed out");
  Alcotest.(check bool) "summary says recovered" true (contains text "recovered")

let test_soak_non_faulted_identical () =
  let base = project (Lazy.force Suite_campaign.seq) in
  let soak = project (Lazy.force soak1) in
  List.iter2
    (fun (i, b) (i', s) ->
      Alcotest.(check int) "case order" i i';
      if not (List.mem i soak_faulted) then
        Alcotest.(check bool)
          (Printf.sprintf "case %d identical to fault-free run" i)
          true (b = s))
    base soak;
  (* the recovered and the slowed case are among the identical ones — state
     it explicitly, they are the interesting survivors *)
  Alcotest.(check bool) "recovered case 11 matches baseline" true
    (List.assoc 11 base = List.assoc 11 soak);
  Alcotest.(check bool) "slowed case 13 matches baseline" true
    (List.assoc 13 base = List.assoc 13 soak)

let test_soak_jobs_independent () =
  let p1 = project (Lazy.force soak1) in
  let p3 = project (run_soak 3) in
  let p4 = project (run_soak 4) in
  Alcotest.(check bool) "jobs=3 identical" true (p1 = p3);
  Alcotest.(check bool) "jobs=4 identical" true (p1 = p4)

let test_soak_resume_under_chaos () =
  let path = Filename.temp_file "dce_soak_journal" ".jsonl" in
  Sys.remove path;
  let full = run_soak ~journal:path 1 in
  (* tear the journal after 20 records the way a killed campaign would *)
  Suite_campaign.truncate_journal path ~cases:20;
  let resumed = run_soak ~journal:path 3 in
  Alcotest.(check int) "twenty cases restored" 20 resumed.Campaign.Corpus.c_resumed;
  Alcotest.(check bool) "projection identical after resume" true
    (project full = project resumed);
  Alcotest.(check bool) "quarantine identical after resume" true
    (List.map (fun q -> (q.Engine.q_case, q.Engine.q_kind))
       full.Campaign.Corpus.c_quarantine
    = List.map (fun q -> (q.Engine.q_case, q.Engine.q_kind))
        resumed.Campaign.Corpus.c_quarantine);
  (* resuming the chaos journal without the plan is a parameter mismatch *)
  (match
     Campaign.Corpus.run ~journal:path ~jobs:1 ~seed:Suite_campaign.corpus_seed
       ~count:Suite_campaign.corpus_count ()
   with
  | _ -> Alcotest.fail "resume without the chaos plan must be rejected"
  | exception Failure msg ->
    Alcotest.(check bool) "mismatch names the chaos campaign" true (contains msg "chaos"));
  Sys.remove path

let suite =
  [
    Alcotest.test_case "guard: step budget trips at the bound" `Quick test_guard_step_budget;
    Alcotest.test_case "guard: zero deadline trips on first poll" `Quick
      test_guard_deadline_trips;
    Alcotest.test_case "guard: unlimited polling is free" `Quick test_guard_unlimited_noop;
    Alcotest.test_case "guard: nesting restores the outer guard" `Quick
      test_guard_nesting_restored;
    Alcotest.test_case "guard: cuts a runaway interpreter" `Quick test_guard_cuts_interp;
    Alcotest.test_case "guard: cuts a pipeline between passes" `Quick test_guard_cuts_passmgr;
    Alcotest.test_case "engine: hang quarantined as timeout" `Quick
      test_engine_timeout_quarantine;
    Alcotest.test_case "engine: wall-clock deadline" `Quick test_engine_wall_clock_deadline;
    Alcotest.test_case "quarantine: one wording for every campaign" `Quick
      test_quarantine_wording_shared;
    Alcotest.test_case "engine: transient fault recovers by retry" `Quick
      test_engine_retry_recovers;
    Alcotest.test_case "engine: retry budget exhausts into quarantine" `Quick
      test_engine_retry_exhausted;
    Alcotest.test_case "engine: backtrace captured at quarantine" `Quick
      test_engine_backtrace_captured;
    Alcotest.test_case "journal: second opener fails fast" `Quick
      test_journal_double_open_fails;
    Alcotest.test_case "chaos: plan spec parses and round-trips" `Quick test_chaos_plan_parse;
    Alcotest.test_case "chaos: hang refused without a guard" `Quick
      test_chaos_hang_refused_without_guard;
    Alcotest.test_case "checked mode: invalid IR blames the pass" `Quick
      test_checked_mode_blames_pass;
    Alcotest.test_case "bundle: write/load round-trip" `Quick test_bundle_roundtrip;
    Alcotest.test_case "bundle: campaign writes parseable repros" `Quick
      test_bundles_written_by_campaign;
    Alcotest.test_case "chaos: an injection that never fires is named" `Quick
      test_chaos_unfired_named;
    Alcotest.test_case "soak: faults quarantined or recovered, all accounted" `Slow
      test_soak_fault_accounting;
    Alcotest.test_case "soak: non-faulted cases byte-identical" `Slow
      test_soak_non_faulted_identical;
    Alcotest.test_case "soak: identical at jobs 1/3/4" `Slow test_soak_jobs_independent;
    Alcotest.test_case "soak: torn journal resumes under chaos" `Slow
      test_soak_resume_under_chaos;
  ]
