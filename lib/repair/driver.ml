module C = Dce_compiler
module Core = Dce_core
module Campaign = Dce_campaign
module Json = Campaign.Json
module Run_store = Campaign.Run_store
module Run_diff = Campaign.Run_diff

(* The closed loop: search → patched campaign → diff.  A candidate fix is
   accepted only when its A/B diff against the base run shows no regressions
   on the smoke corpus; a candidate that fixes the repro but breaks another
   case is recorded as rejected and the next passing candidate is tried. *)

type candidate_verdict = {
  cv_edits : string list;  (** repair names of the edit set *)
  cv_verdict : Run_diff.verdict;
  cv_clean : bool;
}

type result = {
  rr_compiler : string;
  rr_level : C.Level.t;
  rr_marker : int;
  rr_search : Search.outcome;
  rr_tried : candidate_verdict list;  (** verified candidates, in order *)
  rr_accepted : (Core.Diagnose.repair list * Run_diff.verdict) option;
  rr_base_report : Run_store.report;
  rr_base_metrics : Campaign.Metrics.summary;
  rr_patched_metrics : Campaign.Metrics.summary option;  (** accepted run's *)
  rr_base_dir : string option;
  rr_patched_dir : string option;
}

let default_rival (compiler : C.Compiler.t) =
  if compiler.C.Compiler.name = C.Gcc_sim.compiler.C.Compiler.name then C.Llvm_sim.compiler
  else C.Gcc_sim.compiler

let base_campaign_name (compiler : C.Compiler.t) = "repair-verify:base:" ^ compiler.C.Compiler.name

let patched_campaign_name (compiler : C.Compiler.t) edits =
  Printf.sprintf "repair-verify:patched:%s+%s" compiler.C.Compiler.name (Edit.signature edits)

let run ?(jobs = 1) ?(settings = Campaign.Settings.default) ?(seed = 20220228) ?(count = 20)
    ?(verify_limit = 3) ?max_pairs ?run_root ?(candidates = []) compiler level prog ~marker =
  (* before the search, which would otherwise run in full first *)
  Campaign.Settings.check_cases ~count settings;
  let rival = default_rival compiler in
  (* the fabric forks worker processes, and OCaml forbids fork once any
     domain has been spawned — so under a multi-process grid the search
     stage runs jobs=1 (its result is jobs-independent anyway) to keep the
     process fork-clean for the verification campaigns *)
  let search_jobs = if settings.Campaign.Settings.workers > 1 then 1 else jobs in
  let search = Search.search ~jobs:search_jobs ?max_pairs compiler level prog ~marker in
  let journal_for name edits =
    match run_root with
    | None -> None
    | Some root ->
      let id =
        Run_store.run_id ~campaign:name ~seed ~count
          (compiler.C.Compiler.name :: rival.C.Compiler.name
          :: (match edits with [] -> [] | es -> [ Edit.signature es ]))
      in
      Some (id, Run_store.journal_path (Run_store.dir_of ~root ~id))
  in
  let run_campaign name edits verify_compilers =
    let journal = journal_for name edits in
    Verify.campaign ?journal:(Option.map snd journal) ~settings ~jobs ~name
      ~compilers:verify_compilers ~seed ~count ()
  in
  let write_artifacts name edits (v : Verify.t) =
    match (run_root, journal_for name edits) with
    | Some root, Some (id, _) ->
      let meta =
        Json.Obj
          [
            ("campaign", Json.String name);
            ("seed", Json.Int seed);
            ("count", Json.Int count);
            ("compiler", Json.String compiler.C.Compiler.name);
            ("rival", Json.String rival.C.Compiler.name);
            ( "edits",
              Json.List
                (List.map (fun r -> Json.String r.Core.Diagnose.repair_name) edits) );
          ]
      in
      Some (Run_store.write ~root ~id ~meta ~metrics:v.Verify.vy_result.metrics v.Verify.vy_report)
    | _ -> None
  in
  let base_name = base_campaign_name compiler in
  let base =
    run_campaign base_name []
      [ (compiler, compiler.C.Compiler.name); (rival, rival.C.Compiler.name) ]
  in
  let base_dir = write_artifacts base_name [] base in
  (* caller-supplied candidates (if any) are verified first, then the
     search's passing candidates, minimal-first, up to the verify budget *)
  let queue = Dce_support.Listx.take verify_limit (candidates @ search.Search.so_passing) in
  let rec verify tried = function
    | [] -> (List.rev tried, None)
    | edits :: rest ->
      let patched = Edit.patched compiler ~level edits in
      let name = patched_campaign_name compiler edits in
      (* the patched compiler reports under the base compiler's display
         name, so the two reports diff row by row *)
      let v =
        run_campaign name edits
          [ (patched, compiler.C.Compiler.name); (rival, rival.C.Compiler.name) ]
      in
      let verdict = Run_diff.diff base.Verify.vy_report v.Verify.vy_report in
      let clean = not (Run_diff.has_regressions verdict) in
      let cv =
        { cv_edits = List.map (fun r -> r.Core.Diagnose.repair_name) edits; cv_verdict = verdict; cv_clean = clean }
      in
      if clean then (List.rev (cv :: tried), Some (edits, verdict, v, name))
      else verify (cv :: tried) rest
  in
  let tried, accepted = verify [] queue in
  let accepted_min, patched_metrics, patched_dir =
    match accepted with
    | None -> (None, None, None)
    | Some (edits, verdict, v, name) ->
      (Some (edits, verdict), Some v.Verify.vy_result.metrics, write_artifacts name edits v)
  in
  {
    rr_compiler = compiler.C.Compiler.name;
    rr_level = level;
    rr_marker = marker;
    rr_search = search;
    rr_tried = tried;
    rr_accepted = accepted_min;
    rr_base_report = base.Verify.vy_report;
    rr_base_metrics = base.Verify.vy_result.metrics;
    rr_patched_metrics = patched_metrics;
    rr_base_dir = base_dir;
    rr_patched_dir = patched_dir;
  }

(* ---------------- the repair record ---------------- *)

(* Deliberately timing-free: every field is a pure function of the inputs,
   so the record is byte-identical across --jobs/--workers settings (the
   determinism the tests pin).  Timing deltas live in campaign-diff's
   rendered output only. *)
let record_to_json r =
  let names edits = Json.List (List.map (fun n -> Json.String n) edits)
  and repair_names edits =
    Json.List (List.map (fun e -> Json.String e.Core.Diagnose.repair_name) edits)
  in
  Json.Obj
    [
      ("compiler", Json.String r.rr_compiler);
      ("level", Json.of_level r.rr_level);
      ("marker", Json.Int r.rr_marker);
      ( "guilty_stage",
        match r.rr_search.Search.so_guilty_stage with
        | Some s -> Json.String s
        | None -> Json.Null );
      ( "search",
        Json.Obj
          [
            ("singles", Json.Int r.rr_search.Search.so_singles);
            ("pairs", Json.Int r.rr_search.Search.so_pairs);
            ("probes", Json.Int r.rr_search.Search.so_probes);
            ( "passing",
              Json.List (List.map repair_names r.rr_search.Search.so_passing) );
          ] );
      ( "tried",
        Json.List
          (List.map
             (fun cv ->
               Json.Obj [ ("edits", names cv.cv_edits); ("clean", Json.Bool cv.cv_clean) ])
             r.rr_tried) );
      ( "repair",
        match r.rr_accepted with
        | Some (edits, _) -> repair_names edits
        | None -> Json.Null );
      ( "verdict",
        match r.rr_accepted with
        | Some (_, verdict) -> Run_diff.to_json verdict
        | None -> Json.Null );
      ("verified", Json.Bool (r.rr_accepted <> None));
    ]

let record_path dir = Filename.concat dir "repair.json"

let write_record r =
  match r.rr_patched_dir with
  | None -> None
  | Some dir ->
    let oc = open_out_bin (record_path dir) in
    output_string oc (Json.to_string (record_to_json r) ^ "\n");
    close_out oc;
    Some (record_path dir)
