module C = Dce_compiler
module Stats = Dce_report.Stats

type run = {
  text : string;
  coda : string;
  report_text : string;
  findings : int;
  summary : string;
  report : Run_store.report;
  seeds : int array;
  quarantine : Engine.quarantined list;
  quarantined : int;
  resumed : int;
  metrics : Metrics.summary;
}

type t = {
  name : string;
  command : string;
  doc : string;
  count : int;
  run :
    ?journal:string -> settings:Settings.t -> jobs:int -> seed:int -> count:int -> unit -> run;
}

let entry ?command ?(count = 50) name doc run =
  { name; command = Option.value ~default:name command; doc; count; run }

let first_line s = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let of_seeded (s : _ Engine.seeded) ~text ~findings report =
  {
    text;
    coda = "";
    report_text = text;
    findings;
    summary = first_line text;
    report;
    seeds = s.seeds;
    quarantine = s.result.quarantine;
    quarantined = List.length s.result.quarantine;
    resumed = s.result.resumed;
    metrics = s.result.metrics;
  }

let of_corpus (c : Corpus.t) ~name ~text ~report_text ~findings ~summary =
  {
    text;
    coda = "";
    report_text;
    findings;
    summary;
    report = Corpus.report ~campaign:name ~seed:c.c_seed ~count:c.c_count c;
    seeds = c.c_seeds;
    quarantine = c.c_quarantine;
    quarantined = List.length c.c_quarantine;
    resumed = c.c_resumed;
    metrics = c.c_metrics;
  }

let epilogue ~metrics r =
  String.concat ""
    [
      (if r.quarantine = [] then ""
       else
         Printf.sprintf "%d case(s) quarantined (campaign completed without them):\n%s"
           (List.length r.quarantine)
           (Engine.quarantine_to_string ~seeds:r.seeds r.quarantine));
      (if r.resumed = 0 then ""
       else Printf.sprintf "(%d case(s) restored from the journal, not re-run)\n" r.resumed);
      (if r.metrics.journal_skipped = 0 then ""
       else
         Printf.sprintf
           "(%d journal record(s) skipped — unreadable or from another build — and re-run)\n"
           r.metrics.journal_skipped);
      String.concat ""
        (List.map
           (fun (i : Chaos.injection) ->
             Printf.sprintf "chaos injection %s never fired: case %d never reached %s\n"
               (Chaos.to_string [ i ]) i.inj_case i.inj_stage)
           r.metrics.chaos_unfired);
      (if metrics then Metrics.to_string r.metrics else "");
    ]

(* A run's first half, then its bisection: the first half's epilogue and
   the bisection's summary and Tables 3/4 follow the first half's text, the
   bisection's quarantine is the run's, and an injection is unfired when
   neither half fired it. *)
let then_bisect first (b : Bisect_campaign.t) =
  let quiet = { first with metrics = { first.metrics with chaos_unfired = [] } } in
  {
    first with
    text =
      first.text ^ epilogue ~metrics:false quiet ^ Bisect_campaign.summary b
      ^ Bisect_campaign.component_tables b;
    seeds = b.b_seeds;
    quarantine = b.b_quarantine;
    quarantined = first.quarantined + List.length b.b_quarantine;
    resumed = b.b_resumed;
    metrics =
      {
        b.b_metrics with
        chaos_unfired =
          List.filter (fun i -> List.mem i b.b_metrics.chaos_unfired) first.metrics.chaos_unfired;
      };
  }

let persist ~root settings r =
  Run_store.persist ~report_text:r.report_text ~root settings ~metrics:r.metrics r.report

let hunt ?bundle_dir ?minimize () =
  let run ?journal ~settings ~jobs ~seed ~count () =
    let c = Corpus.run ?journal ~settings ?bundle_dir ~jobs ~seed ~count () in
    let stats = Corpus.stats c in
    let report_text = Corpus.report_text c in
    let primary = List.filter (fun (f : Stats.finding) -> f.f_primary) stats.findings in
    let finding (f : Stats.finding) =
      Printf.sprintf "  program %d marker %d: %s %s misses, %s eliminates\n" f.f_program f.f_marker
        f.f_compiler (C.Level.to_string f.f_level) f.f_witness
    in
    let text =
      String.concat ""
        ([
           report_text;
           "Markers eliminated per stage at -O3 (pass attribution):\n";
           Stats.attribution_table stats;
           Printf.sprintf "%d primary cross-compiler findings; first few:\n" (List.length primary);
         ]
        @ List.map finding (Dce_support.Listx.take 10 primary))
    in
    let coda =
      match bundle_dir with
      | Some dir when c.c_quarantine <> [] ->
        let minimized =
          match minimize with
          | None -> ""
          | Some minimize ->
            (* replay under the same budgets so a hanging repro times out
               the same way it did in the campaign *)
            let still_faulty prog =
              let guard =
                Dce_support.Guard.create ?deadline:settings.Settings.deadline
                  ?steps:settings.step_budget ()
              in
              match
                Dce_support.Guard.with_guard guard (fun () ->
                    Dce_core.Analysis.run ~checked:(Settings.checked settings) prog)
              with
              | _ -> false
              | exception _ -> true
            in
            Printf.sprintf "%d bundle(s) auto-minimized\n" (minimize ~still_faulty ~dir)
        in
        Printf.sprintf "crash bundles written under %s/\n%s" dir minimized
      | _ -> ""
    in
    {
      (of_corpus c ~name:"hunt" ~text ~report_text ~findings:(List.length stats.findings)
         ~summary:(Stats.prevalence stats))
      with
      coda;
    }
  in
  entry "hunt"
    "Generate a corpus and run the full differential campaign over it — run over $(b,--jobs) \
     worker domains, fault isolated, supervised via $(b,--deadline) / $(b,--step-budget) / \
     $(b,--retries), chaos-testable via $(b,--chaos), and resumable via $(b,--journal) — and \
     optionally forked over $(b,--workers) persistent worker processes with dynamic work \
     stealing."
    run

let triage =
  let run ?journal ~settings ~jobs ~seed ~count () =
    let c = Corpus.run ?journal ~settings ~jobs ~seed ~count () in
    let reports = Corpus.triage c in
    let cluster (r : Dce_report.Triage.report) =
      Printf.sprintf "  %-9s %-4s %-28s %-22s %-12s %-9s x%d (program %d, marker %d)\n" r.r_compiler
        (C.Level.to_string r.r_level) r.r_signature
        (Option.value ~default:"-" r.r_component)
        (Option.value ~default:"-" r.r_guilty_stage)
        (Dce_report.Triage.status_name r.r_status)
        r.r_occurrences r.r_example_program r.r_example_marker
    in
    let table5 = Dce_report.Triage.table5 reports in
    of_corpus c ~name:"triage"
      ~text:(String.concat "" ((table5 ^ "report clusters:\n") :: List.map cluster reports))
      ~report_text:table5 ~findings:(List.length reports)
      ~summary:(Printf.sprintf "%d deduplicated reports" (List.length reports))
  in
  entry "triage"
    "Run the full reporting pipeline on a generated corpus: differential campaign, root-cause \
     diagnosis, deduplication into reports, and Table-5 style statuses."
    run

let value =
  let run ?journal ~settings ~jobs ~seed ~count () =
    let v = Corpus.run_value ?journal ~settings ~jobs ~seed ~count () in
    (* a value record keeps per-configuration counts, not check ids: the
       findings are the surviving checks, and the report has no rows *)
    let kept n = function
      | Engine.Done (vc : Corpus.value_case) ->
        List.fold_left (fun n (_, _, k) -> n + k) n vc.vc_kept
      | Engine.Crashed _ -> n
    in
    of_seeded v ~text:(Corpus.value_table v)
      ~findings:(Array.fold_left kept 0 v.result.outcomes)
      (Run_store.seeded_report ~campaign:"value-hunt" ~seed
         ~rejected:(fun _ -> false)
         ~sizes:[] ~inversions:[] v)
  in
  entry ~count:30 "value-hunt"
    "Plant profiled value checks after loops (the paper's future-work mode) and show which \
     configurations prove them — on one file, or as a campaign over a generated corpus."
    run

let size ~ratio =
  let module O = Oracle_campaign in
  let run ?journal ~settings ~jobs ~seed ~count () =
    let s = O.run_size ?journal ~settings ~jobs ~seed ~count () in
    of_seeded s ~text:(O.size_report ~ratio s)
      ~findings:(List.length (O.size_findings ~ratio s))
      (O.size_run_report ~ratio ~seed s)
  in
  entry "size-hunt"
    "Run the code-size oracle over a generated corpus: flag programs where one simulated \
     compiler's -Os output is $(b,--ratio) times larger than the other's, or larger than its \
     own -O2 — run over $(b,--jobs) worker domains, resumable via $(b,--journal), with sizes \
     routed through the content-addressed compile cache."
    run

let level ~bisect =
  let module O = Oracle_campaign in
  let run ?journal ~settings ~jobs ~seed ~count () =
    let t = O.run_inversion ?journal ~settings ~jobs ~seed ~count () in
    let r =
      of_seeded t ~text:(O.inversion_report t)
        ~findings:(List.length (O.inversion_findings t))
        (O.inversion_run_report ~seed t)
    in
    if bisect then then_bisect r (Bisect_campaign.inversions ~settings ~jobs t) else r
  in
  entry "level-hunt"
    "Run the level-inversion oracle over a generated corpus: find markers a compiler eliminates \
     at a weak level (-O1/-Os) but keeps at a stronger one (-O2/-O3), attribute each to the pass \
     the strong level is missing, and optionally $(b,--bisect) each inversion to its offending \
     commit."
    run

let bisect ~level =
  let module B = Bisect_campaign in
  let run ?journal ~settings ~jobs ~seed ~count () =
    (* the corpus half re-generates deterministically under the same
       settings; only the expensive bisection half journals *)
    let corpus = Corpus.run ~settings ~jobs ~seed ~count () in
    let b = B.run ?journal ~level ~settings ~jobs corpus in
    then_bisect
      (of_corpus corpus ~name:"bisect" ~text:""
         ~report_text:(B.summary b ^ B.component_tables b)
         ~findings:(List.length (B.regressions b))
         ~summary:(String.trim (B.summary b)))
      b
  in
  entry ~command:"bisect-campaign" "bisect"
    "Run the differential campaign over a generated corpus, then bisect every (case, \
     missed-marker) pair to its offending commit — run over $(b,--jobs) worker domains, \
     probe-cached, resumable via $(b,--journal) — and aggregate the offending commits into the \
     paper's component tables (Tables 3/4)."
    run

let all =
  [
    hunt ();
    triage;
    value;
    size ~ratio:Oracle_campaign.default_ratio;
    level ~bisect:false;
    bisect ~level:C.Level.O3;
  ]

let find name = List.find_opt (fun m -> m.name = name) all
