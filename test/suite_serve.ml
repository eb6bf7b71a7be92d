(* The campaign service: crash-safe queue replay, fair scheduling,
   cancellation, deadline enforcement, retry/quarantine, and the chaos
   soak — kill the job child mid-campaign, kill the whole daemon
   mid-campaign, restart, and require the resumed job's report to be
   byte-identical to an uninterrupted run.

   Every daemon here runs in a forked child of the test process, so this
   suite MUST run before any suite that spawns a domain (OCaml 5 forbids
   Unix.fork once a domain has ever existed); test_main registers it
   first, before even the fabric suite's fork-poisoning final test. *)

module Campaign = Dce_campaign
module Json = Campaign.Json
module Serve = Dce_serve
module Job = Serve.Job
module Store = Serve.Store
module Sched = Serve.Sched
module Fsx = Dce_support.Fsx

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* ------------------------------------------------------------------ *)
(* run ids                                                             *)
(* ------------------------------------------------------------------ *)

(* Run ids name directories that outlive the binary that wrote them, so
   the derivation must never drift: these literals pin the ids the hunt CLI
   and the serve daemon have always produced. *)
let test_run_ids_pinned () =
  let id ?chaos ~checked () =
    Campaign.Run_store.campaign_run_id ~campaign:"hunt" ~seed:42 ~count:3
      (Campaign.Settings.v ?chaos ~checked ())
  in
  Alcotest.(check string) "plain" "run-377cb1560fa9a5d" (id ~checked:false ());
  Alcotest.(check string) "chaos" "run-2d226f66565e067" (id ~chaos:"crash@1" ~checked:false ());
  Alcotest.(check string) "checked" "run-283ef22a6e37064" (id ~checked:true ());
  Alcotest.(check string) "checked and chaos" "run-973292ef2ceabc2"
    (id ~chaos:"crash@1,transient@0" ~checked:true ());
  let job chaos = { Job.default_spec with Job.sp_seed = 42; sp_count = 3; sp_chaos = chaos } in
  Alcotest.(check (option string)) "serve job" (Some "run-377cb1560fa9a5d")
    (Serve.Runjob.run_id_of (job None));
  Alcotest.(check (option string)) "serve chaos job" (Some "run-2d226f66565e067")
    (Serve.Runjob.run_id_of (job (Some "crash@1")))

(* ------------------------------------------------------------------ *)
(* job specs: the settings they build, validation, wire compatibility  *)
(* ------------------------------------------------------------------ *)

let pinned_spec =
  {
    Job.default_spec with
    Job.sp_kind = Job.Mode "size-hunt";
    sp_seed = 7;
    sp_count = 12;
    sp_lane = "nightly";
    sp_deadline = Some 60.;
    sp_case_deadline = Some 2.5;
    sp_step_budget = Some 100_000;
    sp_retries = 1;
    sp_chaos = Some "crash@1";
  }

(* spec.json files outlive the daemon that wrote them: queued jobs in an
   existing spool must survive an upgrade *)
let pinned_spec_json =
  {|{"kind":"size-hunt","seed":7,"count":12,"lane":"nightly","deadline":60.0,"case_deadline":2.5,"step_budget":100000,"retries":1,"strikes":2,"chaos":"crash@1","source":null,"marker":null}|}

let decode_spec s =
  match Json.of_string s with
  | Ok j -> Job.spec_of_json j
  | Error e -> Alcotest.failf "spec json: %s" e

let test_spec_json_pinned () =
  Alcotest.(check string) "spec.json bytes" pinned_spec_json
    (Json.to_string (Job.spec_to_json pinned_spec));
  Alcotest.(check bool) "decodes to the same spec" true
    (decode_spec pinned_spec_json = pinned_spec);
  let s = Job.settings ~workers:3 (decode_spec pinned_spec_json) in
  Alcotest.(check (option (float 0.))) "case deadline wins" (Some 2.5) s.Campaign.Settings.deadline;
  Alcotest.(check (option int)) "step budget" (Some 100_000) s.Campaign.Settings.step_budget;
  Alcotest.(check int) "retries" 1 s.Campaign.Settings.retries;
  Alcotest.(check (option string)) "chaos spec verbatim" (Some "crash@1")
    (Option.map (fun c -> c.Campaign.Settings.spec) s.Campaign.Settings.chaos);
  Alcotest.(check bool) "serve jobs never run checked" false s.Campaign.Settings.checked;
  Alcotest.(check int) "workers from the daemon" 3 s.Campaign.Settings.workers;
  (* a minimal hand-written spec: an integer whole-job deadline is the
     per-case fallback *)
  let s = Job.settings (decode_spec {|{"kind":"hunt","deadline":30}|}) in
  Alcotest.(check (option (float 0.))) "job deadline as fallback" (Some 30.)
    s.Campaign.Settings.deadline

let test_spec_rejects_bad_settings () =
  List.iter
    (fun (what, json, flag) ->
      match decode_spec json with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Failure msg -> Alcotest.(check bool) what true (Helpers.contains msg flag))
    [
      ("negative retries", {|{"kind":"hunt","retries":-1}|}, "--retries");
      ("zero case deadline", {|{"kind":"hunt","case_deadline":0}|}, "--deadline");
      ("negative job deadline", {|{"kind":"hunt","deadline":-1,"case_deadline":5}|}, "--deadline");
      ("zero step budget", {|{"kind":"size-hunt","step_budget":0}|}, "--step-budget");
      ("unparsable chaos", {|{"kind":"hunt","chaos":"explode@1"}|}, "--chaos");
      ("chaos past the corpus", {|{"kind":"triage","count":4,"chaos":"crash@9"}|}, "--chaos");
      ("negative count", {|{"kind":"hunt","count":-1}|}, "--count");
    ]

(* both halves of a bisect job run under the job's settings: a step budget
   that trips quarantines the cases in the corpus half (the report's
   quarantined list) rather than reaching the bisection half alone *)
let test_bisect_corpus_half_supervised () =
  let root = temp_dir "dce_serve_bisect" in
  Fun.protect
    ~finally:(fun () -> Fsx.rm_rf root)
    (fun () ->
      let oc =
        Serve.Runjob.execute ~runs_root:root ~workers:1 ~jobs:1
          {
            Job.default_spec with
            Job.sp_kind = Job.Mode "bisect";
            sp_seed = 7;
            sp_count = 3;
            sp_step_budget = Some 1;
          }
      in
      (* the outcome counts both halves, as the CLI's two epilogues print them *)
      Alcotest.(check int) "outcome counts the corpus half's quarantine" 3
        oc.Serve.Runjob.oc_quarantined;
      match oc.Serve.Runjob.oc_run_dir with
      | None -> Alcotest.fail "bisect job wrote no run dir"
      | Some dir ->
        Alcotest.(check (list int)) "every corpus case tripped the budget" [ 0; 1; 2 ]
          (Campaign.Run_store.load_report dir).Campaign.Run_store.r_quarantined)

(* a bisect job's findings are its bisected regressions *)
let test_bisect_job_findings () =
  let root = temp_dir "dce_serve_bisect_findings" in
  Fun.protect
    ~finally:(fun () -> Fsx.rm_rf root)
    (fun () ->
      let oc =
        Serve.Runjob.execute ~runs_root:root ~workers:1 ~jobs:1
          { Job.default_spec with Job.sp_kind = Job.Mode "bisect"; sp_seed = 7; sp_count = 3 }
      in
      let direct =
        Campaign.Bisect_campaign.run ~jobs:1 (Campaign.Corpus.run ~jobs:1 ~seed:7 ~count:3 ())
      in
      let regressions = List.length (Campaign.Bisect_campaign.regressions direct) in
      Alcotest.(check bool) "the corpus has regressions" true (regressions > 0);
      Alcotest.(check int) "findings = regressions" regressions oc.Serve.Runjob.oc_findings)

(* the job kinds are the mode table's names plus reduce: each round-trips
   through the spec codec, and anything else is refused naming them all *)
let test_kinds_from_mode_table () =
  List.iter
    (fun (m : Campaign.Mode.t) ->
      let spec = { Job.default_spec with Job.sp_kind = Job.kind_of_string m.name } in
      let back = decode_spec (Json.to_string (Job.spec_to_json spec)) in
      Alcotest.(check string) (m.name ^ " round-trips") m.name (Job.kind_to_string back.Job.sp_kind);
      Alcotest.(check bool) (m.name ^ " decodes to the same spec") true (back = spec))
    Campaign.Mode.all;
  match decode_spec {|{"kind":"smith-hunt"}|} with
  | _ -> Alcotest.fail "unknown kind accepted"
  | exception Failure msg ->
    List.iter
      (fun name -> Alcotest.(check bool) ("message names " ^ name) true (Helpers.contains msg name))
      ("reduce" :: List.map (fun (m : Campaign.Mode.t) -> m.name) Campaign.Mode.all)

(* the daemon's executor serves every table entry with no code of its own:
   each persists under the run id the job names, with its own campaign *)
let test_every_mode_served () =
  let root = temp_dir "dce_serve_modes" in
  Fun.protect
    ~finally:(fun () -> Fsx.rm_rf root)
    (fun () ->
      List.iter
        (fun (m : Campaign.Mode.t) ->
          let spec =
            { Job.default_spec with Job.sp_kind = Job.Mode m.name; sp_seed = 7; sp_count = 2 }
          in
          let oc = Serve.Runjob.execute ~runs_root:root ~workers:1 ~jobs:1 spec in
          Alcotest.(check (option string)) (m.name ^ ": run dir named by the job")
            (Option.map (fun id -> Filename.concat root id) (Serve.Runjob.run_id_of spec))
            oc.Serve.Runjob.oc_run_dir;
          let report = Campaign.Run_store.load_report (Option.get oc.Serve.Runjob.oc_run_dir) in
          Alcotest.(check string) (m.name ^ ": report campaign") m.name
            report.Campaign.Run_store.r_campaign;
          Alcotest.(check int) (m.name ^ ": cases") 2 oc.Serve.Runjob.oc_cases)
        Campaign.Mode.all)

(* ------------------------------------------------------------------ *)
(* write_atomic (satellite)                                            *)
(* ------------------------------------------------------------------ *)

let test_write_atomic () =
  let dir = temp_dir "dce_serve_fsx" in
  let path = Filename.concat dir "out.json" in
  Fsx.write_atomic path "first";
  Alcotest.(check string) "written" "first" (read_file path);
  Fsx.write_atomic path "second, longer than before";
  Alcotest.(check string) "overwritten atomically" "second, longer than before" (read_file path);
  let leftovers =
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> f <> "out.json")
  in
  Alcotest.(check (list string)) "no temp files left behind" [] leftovers;
  Fsx.rm_rf dir

(* ------------------------------------------------------------------ *)
(* runs list / gc (satellite)                                          *)
(* ------------------------------------------------------------------ *)

let fake_run ~root ~id ~campaign ~seed ~count ~cases ~age =
  let dir = Filename.concat root id in
  Fsx.mkdir_p dir;
  Fsx.write_atomic
    (Filename.concat dir "meta.json")
    (Json.to_string
       (Json.Obj
          [
            ("campaign", Json.String campaign); ("seed", Json.Int seed); ("count", Json.Int count);
          ]));
  if cases > 0 then
    Fsx.write_atomic
      (Campaign.Run_store.journal_path dir)
      (String.concat "" (List.init (cases + 1) (fun i -> Printf.sprintf "{\"line\":%d}\n" i)));
  let t = Unix.gettimeofday () -. age in
  Unix.utimes dir t t

let test_runs_list_and_gc () =
  let root = temp_dir "dce_serve_runs" in
  fake_run ~root ~id:"run-00000000000000a" ~campaign:"hunt" ~seed:1 ~count:10 ~cases:10
    ~age:3600.;
  fake_run ~root ~id:"run-00000000000000b" ~campaign:"triage" ~seed:2 ~count:5 ~cases:0 ~age:60.;
  fake_run ~root ~id:"run-00000000000000c" ~campaign:"hunt" ~seed:3 ~count:7 ~cases:3 ~age:1.;
  let entries = Campaign.Run_store.list_runs ~root in
  Alcotest.(check (list string))
    "newest first"
    [ "run-00000000000000c"; "run-00000000000000b"; "run-00000000000000a" ]
    (List.map (fun e -> e.Campaign.Run_store.e_id) entries);
  let c = List.hd entries in
  Alcotest.(check string) "campaign from meta" "hunt" c.Campaign.Run_store.e_campaign;
  Alcotest.(check int) "cases from journal" 3 c.Campaign.Run_store.e_cases;
  (* dry run deletes nothing *)
  let would = Campaign.Run_store.gc ~dry_run:true ~keep_last:1 ~root () in
  Alcotest.(check (list string))
    "dry-run victims" [ "run-00000000000000b"; "run-00000000000000a" ] would;
  Alcotest.(check int) "dry run kept everything" 3
    (List.length (Campaign.Run_store.list_runs ~root));
  (* age-gated: only the hour-old run is older than 10 minutes *)
  let pruned = Campaign.Run_store.gc ~keep_last:1 ~older_than:600. ~root () in
  Alcotest.(check (list string)) "age-gated victims" [ "run-00000000000000a" ] pruned;
  (* keep-last alone prunes every unprotected run *)
  let pruned = Campaign.Run_store.gc ~keep_last:1 ~root () in
  Alcotest.(check (list string)) "keep-last victims" [ "run-00000000000000b" ] pruned;
  Alcotest.(check (list string))
    "survivor" [ "run-00000000000000c" ]
    (List.map (fun e -> e.Campaign.Run_store.e_id) (Campaign.Run_store.list_runs ~root));
  Fsx.rm_rf root

(* ------------------------------------------------------------------ *)
(* job lifecycle fold + store replay                                   *)
(* ------------------------------------------------------------------ *)

let test_queue_replay () =
  let spool = temp_dir "dce_serve_store" in
  let st = Store.open_spool spool in
  let spec = { Job.default_spec with Job.sp_count = 3; sp_lane = "lane-a" } in
  let id = Store.submit st ~time:1. spec in
  Alcotest.(check string) "first id" "job-000001" id;
  let id2 = Store.submit st ~time:2. { Job.default_spec with Job.sp_lane = "lane-b" } in
  Alcotest.(check string) "second id" "job-000002" id2;
  (* a full retry history: running -> strike requeue -> running again *)
  Store.append st id ~time:3. (Job.Running 4242);
  Store.append st id ~time:4.
    (Job.Requeued { rq_reason = "worker died"; rq_strike = true; rq_not_before = 5. });
  Store.append st id ~time:6. (Job.Running 4243);
  (* torn tail: a half-written record must be skipped, not fatal *)
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Store.state_path st id)
  in
  output_string oc "{\"t\":7,\"ev\":\"don";
  close_out oc;
  (match Store.load st id with
   | None -> Alcotest.fail "job should load"
   | Some (loaded_spec, events) ->
     Alcotest.(check int) "spec round-trips" 3 loaded_spec.Job.sp_count;
     Alcotest.(check string) "lane round-trips" "lane-a" loaded_spec.Job.sp_lane;
     let v = Job.view_of_events events in
     (match v.Job.v_state with
      | Job.S_running pid -> Alcotest.(check int) "last complete event wins" 4243 pid
      | s -> Alcotest.failf "expected running, got %s" (Job.state_to_string s));
     Alcotest.(check int) "strikes survive replay" 1 v.Job.v_strikes);
  let all = Store.load_all st in
  Alcotest.(check (list string))
    "load_all in submission order" [ "job-000001"; "job-000002" ]
    (List.map (fun (i, _, _) -> i) all);
  Fsx.rm_rf spool

let test_sched_fair () =
  let cand id lane seq = { Sched.cd_id = id; cd_lane = lane; cd_seq = seq } in
  (* lane a has a backlog; lane b has one late job.  Round-robin must
     alternate instead of draining a first. *)
  let pool = [ cand "a1" "a" 1; cand "a2" "a" 2; cand "a3" "a" 3; cand "b1" "b" 4 ] in
  let pick last pool = Option.map (fun c -> c.Sched.cd_id) (Sched.next ?last pool) in
  Alcotest.(check (option string)) "first pick: lane a, lowest seq" (Some "a1") (pick None pool);
  let pool = List.filter (fun c -> c.Sched.cd_id <> "a1") pool in
  Alcotest.(check (option string))
    "after lane a served, lane b next" (Some "b1")
    (pick (Some "a") pool);
  let pool = List.filter (fun c -> c.Sched.cd_id <> "b1") pool in
  Alcotest.(check (option string)) "back to lane a" (Some "a2") (pick (Some "b") pool);
  Alcotest.(check (option string)) "empty pool" None (pick (Some "a") []);
  (* a drained lane in [last] must not wedge the rotation *)
  Alcotest.(check (option string)) "unknown last lane" (Some "a2") (pick (Some "gone") pool)

(* ------------------------------------------------------------------ *)
(* the live daemon: forked, driven over the socket                     *)
(* ------------------------------------------------------------------ *)

let hunt_seed = 4242
let hunt_count = 6

let test_config ?chaos ~spool () =
  {
    (Serve.Daemon.default ~spool) with
    Serve.Daemon.cf_tick = 0.02;
    cf_drain_grace = 3.0;
    cf_backoff = 0.05;
    cf_chaos = chaos;
    cf_quiet = true;
  }

let fork_daemon cf =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Serve.Daemon.run cf with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> pid

let wait_pid pid =
  match Unix.waitpid [] pid with _, status -> status

let rec wait_socket ?(tries = 200) path =
  if Sys.file_exists path then ()
  else if tries = 0 then Alcotest.failf "daemon socket %s never appeared" path
  else begin
    ignore (Unix.select [] [] [] 0.05);
    wait_socket ~tries:(tries - 1) path
  end

let submit_hunt ?(count = hunt_count) ?deadline ~socket () =
  match
    Serve.Client.submit ~socket
      { Job.default_spec with Job.sp_seed = hunt_seed; sp_count = count; sp_deadline = deadline }
  with
  | Ok id -> id
  | Error e -> Alcotest.failf "submit: %s" e

let wait_terminal ?(timeout = 120.) ~socket job =
  match Serve.Client.wait ~timeout ~socket ~job () with
  | Ok j -> Option.value ~default:"?" (Serve.Client.state_of_status j)
  | Error e -> Alcotest.failf "wait %s: %s" job e

(* poll until the job's campaign journal shows progress — "mid-campaign"
   made deterministic *)
let wait_progress ?(min_cases = 1) ~socket job =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec loop () =
    if Unix.gettimeofday () > deadline then Alcotest.failf "%s never made progress" job
    else
      match Serve.Client.status ~job ~socket () with
      | Error _ -> retry ()
      | Ok j -> (
        match
          Option.bind (Json.member "job_status" j) (fun js ->
              Option.bind (Json.member "progress" js) Json.to_int)
        with
        | Some p when p >= min_cases -> ()
        | _ -> retry ())
  and retry () =
    ignore (Unix.select [] [] [] 0.02);
    loop ()
  in
  loop ()

let job_pid ~spool job =
  let st = Store.open_spool spool in
  List.fold_left
    (fun acc ev -> match ev with Job.Running pid -> Some pid | _ -> acc)
    None (Store.load_events st job)

let alive pid = match Unix.kill pid 0 with () -> true | exception Unix.Unix_error _ -> false

(* report.json, report.txt and meta.json of a run directory *)
let run_artifacts dir =
  let read f = read_file (Filename.concat dir f) in
  (read "report.json", read "report.txt", read "meta.json")

(* the uninterrupted baseline: the same executor the daemon's job child
   runs, in this process — what `dce_hunt hunt --run-root` produces *)
let baseline_report () =
  let root = temp_dir "dce_serve_baseline" in
  let outcome =
    Serve.Runjob.execute ~runs_root:root ~workers:1 ~jobs:1
      { Job.default_spec with Job.sp_seed = hunt_seed; sp_count = hunt_count }
  in
  match outcome.Serve.Runjob.oc_run_dir with
  | None -> Alcotest.fail "baseline hunt produced no run dir"
  | Some dir ->
    let r = run_artifacts dir in
    Fsx.rm_rf root;
    r

let serve_report ~spool job =
  let st = Store.open_spool spool in
  let oc =
    Serve.Runjob.outcome_of_json
      (match Json.of_string (String.trim (read_file (Store.outcome_path st job))) with
       | Ok j -> j
       | Error e -> Alcotest.failf "outcome.json: %s" e)
  in
  match oc.Serve.Runjob.oc_run_dir with
  | None -> Alcotest.fail "job outcome carries no run dir"
  | Some dir -> run_artifacts dir

let test_daemon_roundtrip () =
  let spool = temp_dir "dce_serve_rt" in
  let cf = test_config ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  let job = submit_hunt ~socket () in
  Alcotest.(check string) "job completes" "done" (wait_terminal ~socket job);
  let base_json, base_txt, base_meta = baseline_report () in
  let got_json, got_txt, got_meta = serve_report ~spool job in
  Alcotest.(check string) "report.json identical to direct run" base_json got_json;
  Alcotest.(check string) "report.txt identical to direct run" base_txt got_txt;
  Alcotest.(check string) "meta.json identical to direct run" base_meta got_meta;
  (* an out-of-range setting is an error reply, not a queued job *)
  (match Serve.Client.submit ~socket { Job.default_spec with Job.sp_retries = -1 } with
   | Ok id -> Alcotest.failf "bad spec queued as %s" id
   | Error e ->
     Alcotest.(check bool) "error names the setting" true (Helpers.contains e "--retries"));
  (match Serve.Client.shutdown ~socket with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "shutdown: %s" e);
  Alcotest.(check bool) "daemon exits 0" true (wait_pid pid = Unix.WEXITED 0);
  Alcotest.(check bool) "socket removed on drain" false (Sys.file_exists socket);
  Fsx.rm_rf spool

let test_daemon_cancel () =
  let spool = temp_dir "dce_serve_cancel" in
  let cf = test_config ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  let job = submit_hunt ~count:60 ~socket () in
  wait_progress ~socket job;
  (match Serve.Client.cancel ~socket ~job with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "cancel: %s" e);
  Alcotest.(check string) "cancelled" "cancelled" (wait_terminal ~socket job);
  (match job_pid ~spool job with
   | None -> Alcotest.fail "no pid recorded"
   | Some jp ->
     ignore (Unix.select [] [] [] 0.2);
     Alcotest.(check bool) "job process group is gone" false (alive jp));
  ignore (Serve.Client.shutdown ~socket);
  ignore (wait_pid pid);
  Fsx.rm_rf spool

let test_daemon_deadline () =
  let spool = temp_dir "dce_serve_deadline" in
  let cf = test_config ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  let job = submit_hunt ~count:200 ~deadline:0.4 ~socket () in
  Alcotest.(check string) "deadline trips to failed" "failed" (wait_terminal ~socket job);
  let st = Store.open_spool spool in
  let v = Job.view_of_events (Store.load_events st job) in
  (match v.Job.v_state with
   | Job.S_failed reason ->
     Alcotest.(check bool)
       (Printf.sprintf "reason names the deadline: %s" reason)
       true
       (Helpers.contains reason "eadline")
   | s -> Alcotest.failf "expected failed, got %s" (Job.state_to_string s));
  ignore (Serve.Client.shutdown ~socket);
  ignore (wait_pid pid);
  Fsx.rm_rf spool

(* chaos: the daemon SIGKILLs the job child mid-campaign; the retry must
   resume from the journal and produce the identical report *)
let test_chaos_kill_job () =
  let spool = temp_dir "dce_serve_killjob" in
  let chaos = { Serve.Daemon.kill_job_at = Some 2; crash_daemon_at = None } in
  let cf = test_config ~chaos ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  let job = submit_hunt ~socket () in
  Alcotest.(check string) "retried to completion" "done" (wait_terminal ~socket job);
  let st = Store.open_spool spool in
  let v = Job.view_of_events (Store.load_events st job) in
  Alcotest.(check int) "the kill cost one strike" 1 v.Job.v_strikes;
  let base_json, base_txt, _ = baseline_report () in
  let got_json, got_txt, _ = serve_report ~spool job in
  Alcotest.(check string) "report.json identical after mid-job kill" base_json got_json;
  Alcotest.(check string) "report.txt identical after mid-job kill" base_txt got_txt;
  ignore (Serve.Client.shutdown ~socket);
  ignore (wait_pid pid);
  Fsx.rm_rf spool

(* chaos: the daemon itself dies without any cleanup mid-campaign; a
   restarted daemon must replay the queue, resume the job, and produce
   the identical report *)
let test_chaos_crash_daemon () =
  let spool = temp_dir "dce_serve_crash" in
  let chaos = { Serve.Daemon.kill_job_at = None; crash_daemon_at = Some 2 } in
  let cf = test_config ~chaos ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  let job = submit_hunt ~socket () in
  Alcotest.(check bool) "daemon crashed as planned" true (wait_pid pid = Unix.WEXITED 70);
  (* the restarted daemon inherits the spool — stale socket, running-state
     journal, possibly a still-running orphan child *)
  let pid2 = fork_daemon (test_config ~spool ()) in
  Alcotest.(check string) "job resumed to done" "done" (wait_terminal ~socket job);
  let base_json, base_txt, _ = baseline_report () in
  let got_json, got_txt, _ = serve_report ~spool job in
  Alcotest.(check string) "report.json identical after daemon crash" base_json got_json;
  Alcotest.(check string) "report.txt identical after daemon crash" base_txt got_txt;
  ignore (Serve.Client.shutdown ~socket);
  ignore (wait_pid pid2);
  Fsx.rm_rf spool

(* SIGKILL, not simulated: the strongest form of the acceptance test *)
let test_sigkill_daemon_mid_campaign () =
  let spool = temp_dir "dce_serve_sigkill" in
  let cf = test_config ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  let job = submit_hunt ~count:40 ~socket () in
  wait_progress ~min_cases:2 ~socket job;
  Unix.kill pid Sys.sigkill;
  ignore (wait_pid pid);
  (* the orphaned job child keeps its process group; the restarted daemon
     must kill it before requeueing (single-writer journals) *)
  let pid2 = fork_daemon (test_config ~spool ()) in
  Alcotest.(check string) "job resumed to done" "done" (wait_terminal ~timeout:180. ~socket job);
  let st = Store.open_spool spool in
  let events = Store.load_events st job in
  Alcotest.(check bool) "replay recorded the restart requeue" true
    (List.exists
       (function
         | Job.Requeued { rq_reason = "daemon-restart"; rq_strike = false; _ } -> true
         | _ -> false)
       events);
  let oc =
    Serve.Runjob.outcome_of_json
      (match Json.of_string (String.trim (read_file (Store.outcome_path st job))) with
       | Ok j -> j
       | Error e -> Alcotest.failf "outcome.json: %s" e)
  in
  Alcotest.(check bool) "second attempt resumed from the journal" true
    (oc.Serve.Runjob.oc_resumed > 0);
  ignore (Serve.Client.shutdown ~socket);
  ignore (wait_pid pid2);
  Fsx.rm_rf spool

let test_sigterm_drain () =
  let spool = temp_dir "dce_serve_drain" in
  let cf = test_config ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  let job = submit_hunt ~count:60 ~socket () in
  wait_progress ~socket job;
  let jp = match job_pid ~spool job with Some p -> p | None -> Alcotest.fail "no pid" in
  Unix.kill pid Sys.sigterm;
  Alcotest.(check bool) "drain exits 0" true (wait_pid pid = Unix.WEXITED 0);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
  Alcotest.(check bool) "job process group reaped" false (alive jp);
  let st = Store.open_spool spool in
  let v = Job.view_of_events (Store.load_events st job) in
  (match v.Job.v_state with
   | Job.S_queued -> ()
   | s -> Alcotest.failf "drained job should be queued, got %s" (Job.state_to_string s));
  Alcotest.(check int) "drain requeue is strike-free" 0 v.Job.v_strikes;
  (* the lock is released: a fresh daemon can adopt the spool and finish
     the requeued job *)
  let pid2 = fork_daemon (test_config ~spool ()) in
  Alcotest.(check string) "requeued job finishes after restart" "done"
    (wait_terminal ~socket job);
  ignore (Serve.Client.shutdown ~socket);
  ignore (wait_pid pid2);
  Fsx.rm_rf spool

(* out-of-range serve settings are refused before the daemon creates its
   spool, takes the lock or binds the socket *)
let test_bad_settings_refused_at_start () =
  let root = temp_dir "dce_serve_bad" in
  let spool = Filename.concat root "spool" in
  let cf = test_config ~spool () in
  List.iter
    (fun (flag, cf) ->
      match Serve.Daemon.run cf with
      | () -> Alcotest.failf "%s 0 accepted" flag
      | exception Failure msg ->
        Alcotest.(check string) (flag ^ " message") (flag ^ ": must be >= 1 (got 0)") msg;
        Alcotest.(check bool) (flag ^ ": no spool created") false (Sys.file_exists spool))
    [
      ("--workers", { cf with Serve.Daemon.cf_workers = 0 });
      ("--jobs", { cf with Serve.Daemon.cf_jobs = 0 });
      ("--slots", { cf with Serve.Daemon.cf_slots = 0 });
    ];
  Fsx.rm_rf root

(* two daemons, one spool: the lock must turn the second away *)
let test_spool_lock_exclusive () =
  let spool = temp_dir "dce_serve_lock" in
  let cf = test_config ~spool () in
  let pid = fork_daemon cf in
  let socket = Serve.Daemon.socket_path cf in
  wait_socket socket;
  (match Unix.fork () with
   | 0 ->
     (* a second daemon on the same spool must refuse, not corrupt *)
     (try
        Serve.Daemon.run { cf with Serve.Daemon.cf_socket = Some (spool ^ "/other.sock") };
        Unix._exit 0
      with Failure _ -> Unix._exit 81)
   | pid2 ->
     Alcotest.(check bool) "second daemon refused the held spool" true
       (wait_pid pid2 = Unix.WEXITED 81));
  ignore (Serve.Client.shutdown ~socket);
  ignore (wait_pid pid);
  Fsx.rm_rf spool

(* ------------------------------------------------------------------ *)
(* fabric drain on SIGTERM (satellite)                                 *)
(* ------------------------------------------------------------------ *)

let test_fabric_sigterm_drain () =
  let dir = temp_dir "dce_serve_fabterm" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let codec =
      { Campaign.Engine.encode = (fun i -> Json.Int i); decode = Campaign.Json.int_exn }
    in
    let runner _ i =
      (* every worker advertises its pid so the parent can check the
         fleet is dead after the drain *)
      Fsx.write_atomic
        (Filename.concat dir (Printf.sprintf "worker-%d.pid" (Unix.getpid ())))
        (string_of_int (Unix.getpid ()));
      ignore (Unix.select [] [] [] 0.15);
      i
    in
    let code =
      try
        (* 15 cases over 2 workers: chunks of one case, so the drain
           waits for one 0.15 s case per worker *)
        let settings = Campaign.Settings.v ~workers:2 () in
        ignore (Campaign.Engine.run ~codec ~settings ~jobs:1 ~count:15 runner);
        0
      with
      | Campaign.Engine.Interrupted signo -> if signo = Sys.sigterm then 77 else 78
      | _ -> 1
    in
    Unix._exit code
  | pid ->
    (* wait until at least one worker has checked in, then interrupt *)
    let deadline = Unix.gettimeofday () +. 30. in
    let rec wait_workers () =
      let pids = Sys.readdir dir in
      if Array.length pids > 0 then ()
      else if Unix.gettimeofday () > deadline then
        Alcotest.fail "fabric workers never started"
      else begin
        ignore (Unix.select [] [] [] 0.05);
        wait_workers ()
      end
    in
    wait_workers ();
    ignore (Unix.select [] [] [] 0.2);
    Unix.kill pid Sys.sigterm;
    Alcotest.(check bool)
      "coordinator raised Interrupted(SIGTERM)" true
      (wait_pid pid = Unix.WEXITED 77);
    ignore (Unix.select [] [] [] 0.3);
    Array.iter
      (fun f ->
        let wp = int_of_string (read_file (Filename.concat dir f)) in
        Alcotest.(check bool)
          (Printf.sprintf "worker %d is dead after the drain" wp)
          false (alive wp))
      (Sys.readdir dir);
    Fsx.rm_rf dir

let suite =
  [
    Alcotest.test_case "run ids pinned" `Quick test_run_ids_pinned;
    Alcotest.test_case "job spec: spec.json pinned, settings derived" `Quick test_spec_json_pinned;
    Alcotest.test_case "job spec: out-of-range settings rejected" `Quick
      test_spec_rejects_bad_settings;
    Alcotest.test_case "bisect job: corpus half supervised" `Quick
      test_bisect_corpus_half_supervised;
    Alcotest.test_case "bisect job: findings are its regressions" `Quick test_bisect_job_findings;
    Alcotest.test_case "job spec: kinds come from the mode table" `Quick
      test_kinds_from_mode_table;
    Alcotest.test_case "job executor: every mode table entry served" `Quick
      test_every_mode_served;
    Alcotest.test_case "fsx: write_atomic" `Quick test_write_atomic;
    Alcotest.test_case "run_store: list and gc" `Quick test_runs_list_and_gc;
    Alcotest.test_case "store: queue replay over a torn journal" `Quick test_queue_replay;
    Alcotest.test_case "sched: fair round-robin over lanes" `Quick test_sched_fair;
    Alcotest.test_case "daemon: submit/watch/result roundtrip, byte-identical" `Slow
      test_daemon_roundtrip;
    Alcotest.test_case "daemon: cooperative cancellation" `Slow test_daemon_cancel;
    Alcotest.test_case "daemon: job deadline trips to failed" `Slow test_daemon_deadline;
    Alcotest.test_case "chaos: kill job child mid-campaign, identical report" `Slow
      test_chaos_kill_job;
    Alcotest.test_case "chaos: crash daemon mid-campaign, identical report" `Slow
      test_chaos_crash_daemon;
    Alcotest.test_case "chaos: SIGKILL daemon mid-campaign, resume on restart" `Slow
      test_sigkill_daemon_mid_campaign;
    Alcotest.test_case "daemon: SIGTERM drains, requeues, releases the lock" `Slow
      test_sigterm_drain;
    Alcotest.test_case "daemon: spool lock is exclusive" `Quick test_spool_lock_exclusive;
    Alcotest.test_case "daemon: bad settings refused at start" `Quick
      test_bad_settings_refused_at_start;
    Alcotest.test_case "fabric: SIGTERM drains the fleet and raises" `Quick
      test_fabric_sigterm_drain;
  ]
