(* The campaign ledger: cases per second on four campaign workloads, with a
   traced per-layer split.

     ledger.exe --workload hunt|hunt-par|resume|triage --seed N --seconds S --trace 0|1

   Run from the repository root (perfbench/run.py builds and invokes it).
   Every workload runs the pinned corpus of perfbench/ledger.json through the
   same public library calls `dce_hunt` makes and checks every output against
   the pins there.  The corpus is the same for every --seed: per-program cost
   varies too much for a seed-drawn corpus that fits in one run to measure
   steadily (README.md).  The last line of standard output is one JSON object:
   with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
   `--print-pins` recomputes the pins; `--list-metrics` prints the per-layer
   metric table for BENCHMARK.json. *)

module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Smith = Dce_smith.Smith
module Campaign = Dce_campaign
module Corpus = Campaign.Corpus
module Json = Campaign.Json
module Reduce = Dce_reduce

let process_start = Span.now ()

(* ---------------------------------------------------------------- *)
(* configuration and pins                                             *)
(* ---------------------------------------------------------------- *)

let config_path = "perfbench/ledger.json"

type config = {
  corpus_seed : int;
  count : int;
  triage_cases : int;  (* bisected prefix of the corpus *)
  findings : int;  (* gcc-keeps/llvm-kills findings reduced *)
  max_tests : int;
  pins : Json.t;
}

(* Set-up repetitions of an end-to-end run; setup_s is their median. *)
let setup_reps = 3

(* Largest share of the traced hunt wall the named layers may leave
   unaccounted before the run fails. *)
let accounting_bound = 0.05

let load_config () =
  let ic = open_in_bin config_path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = match Json.of_string text with Ok j -> j | Error e -> failwith (config_path ^ ": " ^ e) in
  let corpus = Json.get j "corpus" and triage = Json.get j "triage" in
  {
    corpus_seed = Json.get_int corpus "seed";
    count = Json.get_int corpus "count";
    triage_cases = Json.get_int triage "cases";
    findings = Json.get_int triage "findings";
    max_tests = Json.get_int triage "max_tests";
    pins = Json.get j "pins";
  }

let md5 s = Digest.to_hex (Digest.string s)

let report_digest (r : Campaign.Run_store.report) =
  (* the bytes `dce_hunt hunt --run-root` writes as report.json *)
  md5 (Json.to_string (Campaign.Run_store.report_to_json (Campaign.Run_store.sort_report r)) ^ "\n")

(* ---------------------------------------------------------------- *)
(* the tally: operations attempted and failed, with the reasons       *)
(* ---------------------------------------------------------------- *)

let attempted = ref 0
let failures : string list ref = ref []

let attempt n = attempted := !attempted + n

let fail msg =
  failures := msg :: !failures;
  prerr_endline ("ledger: FAILED: " ^ msg)

let check what ok =
  attempt 1;
  if not ok then fail what

let check_pin cfg key got =
  let want = Option.bind (Json.member key cfg.pins) Json.to_str in
  check (Printf.sprintf "%s: got %s, pinned %s" key got (Option.value ~default:"-" want))
    (want = Some got)

(* ---------------------------------------------------------------- *)
(* work directories and cold starts                                   *)
(* ---------------------------------------------------------------- *)

let work_root = Filename.concat ".perfbench-work" (Printf.sprintf "run-%d" (Unix.getpid ()))
let fresh_n = ref 0

let fresh_dir () =
  incr fresh_n;
  let d = Filename.concat work_root (Printf.sprintf "d%d" !fresh_n) in
  Dce_support.Fsx.mkdir_p d;
  d

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* Every timed run starts from the same state: empty compile caches, zeroed
   pass-manager counters, a compacted heap. *)
let cold () =
  C.Compiler.clear_caches ();
  C.Passmgr.reset_counters ();
  Gc.compact ()

(* ---------------------------------------------------------------- *)
(* set-up: corpus seeds, the resume journal, the triage corpus        *)
(* ---------------------------------------------------------------- *)

type inputs = {
  seeds : int array;
  journal : string;  (* a complete journal of the corpus *)
  reference : Corpus.t;  (* the untraced hunt that wrote it *)
  triage_corpus : Corpus.t;  (* the corpus resumed from the journal *)
}

let setup cfg =
  let seeds = Array.of_list (Smith.corpus_seeds ~seed:cfg.corpus_seed ~count:cfg.count) in
  let journal = Filename.concat (fresh_dir ()) "journal.jsonl" in
  cold ();
  let reference = Corpus.run ~journal ~jobs:1 ~seed:cfg.corpus_seed ~count:cfg.count () in
  let triage_corpus = Corpus.run ~journal ~jobs:1 ~seed:cfg.corpus_seed ~count:cfg.count () in
  { seeds; journal; reference; triage_corpus }

(* ---------------------------------------------------------------- *)
(* the timed loop                                                     *)
(* ---------------------------------------------------------------- *)

(* Run [f] until the next run would overrun [budget] seconds, at least
   [min_runs] times.  [f] returns its own timed duration and result. *)
let repeat ~budget ~min_runs f =
  let t0 = Span.now () in
  let rec go n last acc =
    if n >= min_runs && Span.since t0 +. last > budget then List.rev acc
    else
      let t = Span.now () in
      let r = f () in
      go (n + 1) (Span.since t) (r :: acc)
  in
  go 0 0. []

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type gc_delta = { alloc_mb : float; minor : int; major : int }

let with_gc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  ( r,
    {
      alloc_mb = (words s1 -. words s0) *. float_of_int (Sys.word_size / 8) /. 1e6;
      minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* The host's speed drifts by up to half over seconds to minutes, so every
   end-to-end time is also expressed on a reference machine: one on which
   the probe below takes [reference_probe_s].  The probe brackets each timed
   run, and the run's seconds scale by reference / (mean of the two probes).
   The probe does pseudo-random reads and writes over a preallocated 2 MB
   table, then builds a small Map, so it pays for memory traffic and
   allocation the way campaign code does; it calls nothing in lib/, so a
   change there cannot move it. *)
let reference_probe_s = 0.010

module Imap = Map.Make (Int)

let table = Array.init (1 lsl 18) (fun i -> i)

let kernel () =
  let x = ref 1 in
  for _ = 1 to 400_000 do
    let i = !x land ((1 lsl 18) - 1) in
    let v = Array.unsafe_get table i in
    Array.unsafe_set table i (v + 1);
    x := (!x * 1103515245) + v + 12345
  done;
  let m = ref Imap.empty in
  for i = 0 to 15_000 do
    m := Imap.add ((i * 7919) land 0xffff) i !m
  done;
  Imap.cardinal !m + !x

(* median of three, so one preempted sample does not count *)
let probe () = median (List.init 3 (fun _ -> snd (Span.timed kernel)))

(* One timed run from a cold start: cases finished, seconds, the probe's
   mean duration around it, gc deltas. *)
type run = { cases : int; secs : float; probe : float; gc : gc_delta }

let reference_secs r = r.secs *. reference_probe_s /. r.probe

let timed_run ~cases f =
  let before = probe () in
  cold ();
  let (v, secs), gc = with_gc (fun () -> Span.timed f) in
  ({ cases; secs; probe = (before +. probe ()) /. 2.; gc }, v)

let check_corpus cfg what (c : Corpus.t) report =
  attempt c.c_count;
  List.iter
    (fun (q : Campaign.Engine.quarantined) ->
      fail (Printf.sprintf "%s: case %d quarantined: %s" what q.q_case q.q_error))
    c.c_quarantine;
  check_pin cfg "report_md5" (report_digest report)

(* ---------------------------------------------------------------- *)
(* the workloads, untraced                                            *)
(* ---------------------------------------------------------------- *)

(* Corpus.run over [journal] plus the report, as `dce_hunt hunt --run-root`
   does it; the output checks run after the clock stops. *)
let campaign cfg ~jobs ~journal what =
  let run, (corpus, r) =
    timed_run ~cases:cfg.count (fun () ->
        let corpus = Corpus.run ~journal ~jobs ~seed:cfg.corpus_seed ~count:cfg.count () in
        let r = Corpus.report ~campaign:"hunt" ~seed:cfg.corpus_seed ~count:cfg.count corpus in
        ignore (Corpus.report_text corpus);
        (corpus, r))
  in
  check_corpus cfg what corpus r;
  (run, corpus)

let hunt cfg ~jobs () =
  fst (campaign cfg ~jobs ~journal:(Filename.concat (fresh_dir ()) "journal.jsonl") "hunt")

let resume cfg (inp : inputs) () =
  let journal = Filename.concat (fresh_dir ()) "journal.jsonl" in
  copy_file inp.journal journal;
  let run, corpus = campaign cfg ~jobs:1 ~journal "resume" in
  check "resume: every case restored from the journal" (corpus.c_resumed = cfg.count);
  run

(* ---- triage: bisection campaign + reductions ---- *)

let o3 compiler = { Core.Differential.compiler; level = C.Level.O3; version = None }

(* The first [n] cases where gcc-sim -O3 keeps a dead marker llvm-sim -O3
   eliminates, with the smallest such marker. *)
let triage_findings n (c : Corpus.t) =
  List.filter_map
    (fun (i, (o, _)) ->
      match o with
      | Core.Analysis.Rejected _ -> None
      | Core.Analysis.Analyzed a -> (
        match
          ( Core.Analysis.find_config a "gcc-sim" C.Level.O3,
            Core.Analysis.find_config a "llvm-sim" C.Level.O3 )
        with
        | Some g, Some l ->
          Ir.Iset.diff g.Core.Analysis.missed l.Core.Analysis.surviving
          |> Ir.Iset.min_elt_opt
          |> Option.map (fun m -> (i, m, a.Core.Analysis.instrumented))
        | _ -> None))
    (Corpus.outcomes c)
  |> Dce_support.Listx.take n

let prefix (c : Corpus.t) m =
  { c with c_count = m; c_seeds = Array.sub c.c_seeds 0 m; c_cases = Array.sub c.c_cases 0 m }

type triage_out = {
  bisect : Campaign.Bisect_campaign.t;
  bisect_pipelines : int;
  reduced : (int * int * Reduce.Engine.result) list;
}

let triage_once cfg acc (inp : inputs) =
  let bisect =
    Span.span acc "bisect" (fun () ->
        Campaign.Bisect_campaign.run ~jobs:1 (prefix inp.triage_corpus cfg.triage_cases))
  in
  let bisect_pipelines = (C.Compiler.cache_stats ()).C.Compiler.cs_surviving.C.Compile_cache.misses in
  let reduced =
    List.map
      (fun (i, marker, prog) ->
        let predicate =
          Reduce.Predicate.marker_diff ~compile_cache:true ~keep_missed_by:(o3 C.Gcc_sim.compiler)
            ~eliminated_by:(o3 C.Llvm_sim.compiler) ~marker ()
        in
        (i, marker, Span.span acc "reduce" (fun () -> Reduce.Engine.reduce ~max_tests:cfg.max_tests ~predicate prog)))
      (triage_findings cfg.findings inp.triage_corpus)
  in
  { bisect; bisect_pipelines; reduced }

let regressions_text (b : Campaign.Bisect_campaign.t) =
  String.concat ""
    (List.map
       (fun (i, compiler, marker, (r : Dce_bisect.Bisect.regression)) ->
         Printf.sprintf "%d %s %d %s\n" i compiler marker r.Dce_bisect.Bisect.offending.C.Version.id)
       (Campaign.Bisect_campaign.regressions b))

let offending_commits (b : Campaign.Bisect_campaign.t) =
  String.concat "; "
    (List.map
       (fun (compiler, commits) ->
         compiler ^ " "
         ^ String.concat "," (List.sort_uniq compare (List.map (fun c -> c.C.Version.id) commits)))
       (Campaign.Bisect_campaign.commits_by_compiler b))

let reduced_text t =
  String.concat ";"
    (List.map
       (fun (i, m, (r : Reduce.Engine.result)) ->
         Printf.sprintf "%d:%d:%d:%s" i m r.final_size
           (md5 (Dce_minic.Pretty.program_to_string r.program)))
       t.reduced)

let check_triage cfg t =
  attempt (Array.length t.bisect.b_cases + List.length t.reduced);
  List.iter
    (fun (q : Campaign.Engine.quarantined) ->
      fail (Printf.sprintf "triage: bisect case %d quarantined: %s" q.q_case q.q_error))
    t.bisect.b_quarantine;
  List.iter
    (fun (i, _, (r : Reduce.Engine.result)) ->
      List.iter
        (fun (c : Reduce.Engine.crash) ->
          fail (Printf.sprintf "triage: reduction of case %d crashed in %s: %s" i c.cr_stage c.cr_error))
        r.stats.s_crashes)
    t.reduced;
  check_pin cfg "offending_commits" (offending_commits t.bisect);
  check_pin cfg "regressions_md5" (md5 (regressions_text t.bisect));
  check_pin cfg "reduced" (reduced_text t)

let triage cfg inp () =
  let run, t = timed_run ~cases:cfg.triage_cases (fun () -> triage_once cfg (Span.create ()) inp) in
  check_triage cfg t;
  run

(* ---------------------------------------------------------------- *)
(* the traced runs                                                    *)
(* ---------------------------------------------------------------- *)

type traced = {
  acc : Span.t;  (* one traced run's spans and counts *)
  wall : float;  (* traced wall, side measurements excluded *)
  jobs : int;
}

let check_same_outcomes what (reference : Corpus.t) outcomes =
  Array.iteri
    (fun i o ->
      match reference.c_cases.(i) with
      | Corpus.Case (r, _) ->
        check (Printf.sprintf "%s: traced case %d differs from the untraced run" what i)
          (Traced.same_outcome o r)
      | Corpus.Quarantined _ -> fail (Printf.sprintf "%s: reference case %d quarantined" what i))
    outcomes

(* [f] returns the run's accumulator, its domain count, and the checks of
   its outputs, which run after the clock stops. *)
let traced_run f =
  cold ();
  let t0 = Span.now () in
  let acc, jobs, checks = f () in
  let wall = Span.since t0 -. Span.time acc "side" in
  (* pass-manager cache activity of this run (counters were reset by cold) *)
  let pc = C.Passmgr.counters () in
  Span.add_count acc "passmgr.hits" (pc.meminfo_hits + pc.cfg_hits + pc.dom_hits);
  Span.add_count acc "passmgr.misses" (pc.meminfo_misses + pc.cfg_misses + pc.dom_misses);
  checks ();
  { acc; wall; jobs }

let traced_hunt cfg inp ~jobs () =
  traced_run (fun () ->
      let outcomes, acc, r = Traced.hunt ~split:(jobs = 1) ~jobs ~seed:cfg.corpus_seed inp.seeds in
      ( acc,
        jobs,
        fun () ->
          check_same_outcomes "traced hunt" inp.reference outcomes;
          check_pin cfg "report_md5" (report_digest r) ))

let traced_resume cfg inp () =
  let journal = Filename.concat (fresh_dir ()) "journal.jsonl" in
  copy_file inp.journal journal;
  traced_run (fun () ->
      let outcomes, acc, r = Traced.resume ~seed:cfg.corpus_seed ~journal inp.seeds in
      ( acc,
        1,
        fun () ->
          check_same_outcomes "traced resume" inp.reference outcomes;
          check_pin cfg "report_md5" (report_digest r) ))

(* The triage run's counts, read off the bisection and reduction stats and
   the compile-cache counters (cleared by the cold start). *)
let triage_counts acc t =
  let n = Span.add_count acc in
  n "bisect.probes" t.bisect.b_probes;
  n "bisect.pipelines" t.bisect_pipelines;
  List.iter
    (fun (_, _, (r : Reduce.Engine.result)) ->
      let s = r.stats in
      n "reduce.tests" s.s_charged;
      n "reduce.predicate_runs" s.s_predicate_runs;
      n "reduce.pipelines_run" s.s_pipelines_run;
      n "reduce.verdict.hits" s.s_cache.hits;
      n "reduce.verdict.misses" s.s_cache.misses;
      List.iter
        (fun (sc : Reduce.Predicate.stage_count) ->
          n ("reduce.stage." ^ sc.sc_name ^ ".entered") sc.sc_entered;
          n ("reduce.stage." ^ sc.sc_name ^ ".rejected") sc.sc_rejected)
        s.s_stages)
    t.reduced;
  let cs = C.Compiler.cache_stats () in
  n "compile_cache.surviving.hits" cs.cs_surviving.hits;
  n "compile_cache.surviving.misses" cs.cs_surviving.misses;
  n "compile_cache.lower_fn.hits" cs.cs_lower_fn.hits;
  n "compile_cache.lower_fn.misses" cs.cs_lower_fn.misses

let traced_triage cfg inp () =
  traced_run (fun () ->
      let acc = Span.create () in
      let t = triage_once cfg acc inp in
      ( acc,
        1,
        fun () ->
          check_triage cfg t;
          triage_counts acc t ))

(* ---------------------------------------------------------------- *)
(* metrics                                                            *)
(* ---------------------------------------------------------------- *)

let share_layers =
  [
    "smith.generate"; "instrument"; "ground_truth"; "exec.compile"; "exec.run"; "lower";
    "pipeline"; "codegen"; "asm.scan"; "primary.build"; "primary.missed"; "report";
    "journal.load"; "bisect"; "reduce";
  ]

let count_metrics =
  [
    ("instrument.markers", "count"); ("exec.steps", "count"); ("lower.calls", "count");
    ("journal.bytes", "bytes"); ("journal.records", "count"); ("bisect.probes", "count");
    ("bisect.pipelines", "count"); ("reduce.tests", "count"); ("reduce.predicate_runs", "count");
    ("reduce.pipelines_run", "count");
  ]

let reduce_stages =
  [ "typecheck"; "marker-present"; "ground-truth"; "keeper-survives"; "eliminator-kills" ]

(* (name, unit) of every per-layer metric, in output order *)
let per_layer =
  [ ("trace.wall_s", "s"); ("trace.unaccounted_frac", "ratio"); ("trace.overhead_frac", "ratio") ]
  @ List.map (fun l -> (l ^ ".share", "ratio")) share_layers
  @ count_metrics
  @ List.concat_map
      (fun l -> [ ("pass." ^ l ^ ".share", "ratio"); ("pass." ^ l ^ ".changed_frac", "ratio") ])
      Traced.pass_labels
  @ [
      ("passmgr.hit_rate", "ratio"); ("engine.busy_frac", "ratio"); ("engine.imbalance", "ratio");
      ("compile_cache.surviving_hit_rate", "ratio"); ("compile_cache.lower_fn_hit_rate", "ratio");
      ("reduce.verdict_hit_rate", "ratio");
    ]
  @ List.map (fun s -> ("reduce.stage." ^ s ^ ".rejected_frac", "ratio")) reduce_stages
  @ [ ("gc.alloc_mb", "MB"); ("gc.minor_collections", "count"); ("gc.major_collections", "count") ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let accounted_layers = function
  | "resume" -> Traced.resume_layers
  | "triage" -> Traced.triage_layers
  | _ -> Traced.hunt_layers

(* Per-layer metrics of a workload's traced runs.  Times become shares of
   the traced capacity (jobs x traced wall); counts repeat exactly across
   runs, so one run's count stands for all of them. *)
let layer_metrics ~workload ~untraced ~(runs : traced list) =
  let acc = Span.create () in
  List.iter (fun r -> Span.merge_into acc r.acc) runs;
  let first = (List.hd runs).acc in
  let sorted_counts t = List.sort compare (List.of_seq (Hashtbl.to_seq t.Span.counts)) in
  List.iter
    (fun r ->
      check (workload ^ ": traced counts repeat exactly") (sorted_counts r.acc = sorted_counts first))
    runs;
  check (workload ^ ": exec split matches ground truth") (Span.count first "mismatch" = 0);
  let jobs = (List.hd runs).jobs in
  let capacity = List.fold_left (fun s r -> s +. (float_of_int r.jobs *. r.wall)) 0. runs in
  let share k = Span.time acc k /. capacity in
  let c = Span.count first in
  let frac a b = Span.ratio (c a) (c a + c b) in
  let unaccounted = 1. -. List.fold_left (fun s l -> s +. share l) 0. (accounted_layers workload) in
  if workload = "hunt" then
    check
      (Printf.sprintf "hunt: unaccounted share %.4f exceeds the accounting bound %.4f" unaccounted
         accounting_bound)
      (Float.abs unaccounted <= accounting_bound);
  let wall = median (List.map (fun r -> r.wall) runs) in
  let busy = List.init jobs (fun w -> Span.time acc (Printf.sprintf "busy.%d" w)) in
  let busy_total = List.fold_left ( +. ) 0. busy in
  let gc f = median (List.map f untraced) in
  let value = function
    | "trace.wall_s" -> wall
    | "trace.unaccounted_frac" -> unaccounted
    | "trace.overhead_frac" -> (wall /. median (List.map (fun r -> r.secs) untraced)) -. 1.
    | "passmgr.hit_rate" -> frac "passmgr.hits" "passmgr.misses"
    | "engine.busy_frac" -> busy_total /. capacity
    | "engine.imbalance" ->
      if busy_total = 0. then 0.
      else (List.fold_left Float.max 0. busy /. (busy_total /. float_of_int jobs)) -. 1.
    | "compile_cache.surviving_hit_rate" ->
      frac "compile_cache.surviving.hits" "compile_cache.surviving.misses"
    | "compile_cache.lower_fn_hit_rate" ->
      frac "compile_cache.lower_fn.hits" "compile_cache.lower_fn.misses"
    | "reduce.verdict_hit_rate" -> frac "reduce.verdict.hits" "reduce.verdict.misses"
    | "gc.alloc_mb" -> gc (fun r -> r.gc.alloc_mb)
    | "gc.minor_collections" -> gc (fun r -> float_of_int r.gc.minor)
    | "gc.major_collections" -> gc (fun r -> float_of_int r.gc.major)
    | name -> (
      match String.split_on_char '.' name |> List.rev with
      | "share" :: rest -> share (String.concat "." (List.rev rest))
      | "changed_frac" :: label :: _ ->
        Span.ratio (c ("pass." ^ label ^ ".changed")) (c ("pass." ^ label ^ ".runs"))
      | "rejected_frac" :: stage :: _ ->
        Span.ratio (c ("reduce.stage." ^ stage ^ ".rejected")) (c ("reduce.stage." ^ stage ^ ".entered"))
      | _ -> float_of_int (c name))
  in
  (* a stage label outside the metric list would silently drop out of the split *)
  Hashtbl.iter
    (fun k _ ->
      match String.split_on_char '.' k with
      | [ "pass"; label; "runs" ] ->
        check ("unknown pass-manager stage " ^ label) (List.mem label Traced.pass_labels)
      | _ -> ())
    first.counts;
  let layers = accounted_layers workload in
  Printf.printf "layer shares of the traced %s run (%d run(s), capacity %.3f s):\n%s" workload
    (List.length runs) capacity
    (Span.share_table ~wall:capacity ~layers acc);
  if Span.time acc "pipeline" > 0. then
    Printf.printf "pass shares of the traced %s run:\n%s" workload
      (Span.share_table ~rest:"(not in a pass)" ~wall:capacity
         ~layers:(List.map (fun l -> "pass." ^ l) Traced.pass_labels)
         acc);
  List.map (fun (name, unit) -> (name, unit, value name)) per_layer

(* ---------------------------------------------------------------- *)
(* output                                                             *)
(* ---------------------------------------------------------------- *)

let result_line metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failures = []) (max 1 !attempted) (List.length !failures) (String.concat ", " m)

let workloads = [ "hunt"; "hunt-par"; "resume"; "triage" ]

let main ~workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then
    failwith (Printf.sprintf "unknown workload %S (one of %s)" workload (String.concat ", " workloads));
  (* set-up: repeated, each timed (the first from process start) and
     followed by a probe *)
  let reps = if trace then 1 else setup_reps in
  let setups =
    List.init reps (fun i ->
        let t0 = if i = 0 then process_start else Span.now () in
        let cfg = load_config () in
        let inp = setup cfg in
        let secs = Span.since t0 in
        (cfg, inp, secs, probe ()))
  in
  let cfg, inp, _, _ = List.hd setups in
  check_corpus cfg "set-up hunt" inp.reference
    (Corpus.report ~campaign:"hunt" ~seed:cfg.corpus_seed ~count:cfg.count inp.reference);
  Printf.printf "ledger: workload %s, seed %d, corpus seed %d x %d cases, set-up %s s\n%!" workload
    seed cfg.corpus_seed cfg.count
    (String.concat " " (List.map (fun (_, _, s, _) -> Printf.sprintf "%.3f" s) setups));
  let untraced_run =
    match workload with
    | "hunt" -> hunt cfg ~jobs:1
    | "hunt-par" -> hunt cfg ~jobs:2
    | "resume" -> resume cfg inp
    | _ -> triage cfg inp
  in
  let budget = if trace then seconds /. 2. else seconds in
  let untraced = repeat ~budget ~min_runs:(if trace then 2 else 3) untraced_run in
  let rate secs r = float_of_int r.cases /. secs r in
  let reference_rate = median (List.map (rate reference_secs) untraced) in
  Printf.printf
    "untraced: %d runs of %d cases, cases/s median %.3f measured, %.3f on the reference machine\n"
    (List.length untraced) (List.hd untraced).cases
    (median (List.map (rate (fun r -> r.secs)) untraced))
    reference_rate;
  let metrics =
    if trace then begin
      let traced_once =
        match workload with
        | "hunt" -> traced_hunt cfg inp ~jobs:1
        | "hunt-par" -> traced_hunt cfg inp ~jobs:2
        | "resume" -> traced_resume cfg inp
        | _ -> traced_triage cfg inp
      in
      let runs = repeat ~budget ~min_runs:2 traced_once in
      layer_metrics ~workload ~untraced ~runs
    end
    else
      [
        ("cases_per_s", "cases/s", reference_rate);
        ("peak_rss_mb", "MB", peak_rss_mb ());
        ( "setup_s",
          "s",
          median (List.map (fun (_, _, secs, p) -> secs *. reference_probe_s /. p) setups) );
      ]
  in
  print_endline (result_line metrics)

(* ---------------------------------------------------------------- *)
(* pins and metric listing                                            *)
(* ---------------------------------------------------------------- *)

let print_pins () =
  let cfg = load_config () in
  let inp = setup cfg in
  let r = Corpus.report ~campaign:"hunt" ~seed:cfg.corpus_seed ~count:cfg.count inp.reference in
  cold ();
  let t = triage_once cfg (Span.create ()) inp in
  let pins =
    [
      ("report_md5", report_digest r);
      ("offending_commits", offending_commits t.bisect);
      ("regressions_md5", md5 (regressions_text t.bisect));
      ("reduced", reduced_text t);
    ]
  in
  print_string (regressions_text t.bisect);
  print_endline
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) pins)))

let list_metrics () =
  let entry (name, unit) =
    Json.Obj [ ("name", Json.String name); ("unit", Json.String unit) ]
  in
  print_endline (Json.to_string (Json.List (List.map entry per_layer)))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | k' :: v :: _ when k' = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let required k = match opt k args with Some v -> v | None -> failwith ("missing " ^ k) in
  Dce_support.Fsx.mkdir_p work_root;
  let code =
    match
      if List.mem "--print-pins" args then print_pins ()
      else if List.mem "--list-metrics" args then list_metrics ()
      else
        main ~workload:(required "--workload")
          ~seed:(int_of_string (required "--seed"))
          ~seconds:(float_of_string (required "--seconds"))
          ~trace:(required "--trace" = "1")
    with
    | () -> 0
    | exception e ->
      prerr_endline ("ledger: " ^ Printexc.to_string e);
      1
  in
  Dce_support.Fsx.rm_rf work_root;
  exit code
