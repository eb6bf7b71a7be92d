module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Stats = Dce_report.Stats

type case_result =
  | Case of Core.Analysis.outcome * Dce_minic.Ast.program
  | Quarantined of Engine.quarantined

type t = {
  c_seed : int;
  c_count : int;
  c_jobs : int;
  c_seeds : int array;
  c_cases : case_result array;
  c_quarantine : Engine.quarantined list;
  c_metrics : Metrics.summary;
  c_resumed : int;
}

(* ------------------------------------------------------------------ *)
(* JSON codec for analysis outcomes                                    *)
(* ------------------------------------------------------------------ *)

type payload = {
  p_seed : int;
  p_outcome : Core.Analysis.outcome;
  p_raw : Dce_minic.Ast.program;
}

let config_to_json (pc : Core.Analysis.per_config) =
  Json.Obj
    [
      ("compiler", Json.String pc.Core.Analysis.cfg_compiler);
      ("level", Json.of_level pc.Core.Analysis.cfg_level);
      ("surviving", Json.of_iset pc.Core.Analysis.surviving);
      ( "attrib",
        Json.List
          (List.map
             (fun (stage, markers) ->
               Json.List
                 [ Json.String stage; Json.List (List.map (fun m -> Json.Int m) markers) ])
             (C.Passmgr.attribution pc.Core.Analysis.cfg_trace)) );
    ]

(* a stage trace carrying exactly the journaled attribution: labels and
   eliminated markers survive the round trip, measurements (time, IR deltas)
   do not — they are not results *)
let synthetic_trace attrib : C.Passmgr.trace =
  List.map
    (fun (label, markers) ->
      {
        C.Passmgr.sr_label = label;
        sr_round = 0;
        sr_time = 0.;
        sr_changed = true;
        sr_blocks_before = 0;
        sr_blocks_after = 0;
        sr_instrs_before = 0;
        sr_instrs_after = 0;
        sr_markers_eliminated = markers;
      })
    attrib

let encode_payload p =
  let common = [ ("seed", Json.Int p.p_seed) ] in
  match p.p_outcome with
  | Core.Analysis.Rejected reason ->
    Json.Obj (common @ [ ("kind", Json.String "rejected"); ("reason", Json.String reason) ])
  | Core.Analysis.Analyzed a ->
    let truth = a.Core.Analysis.truth in
    let live_blocks =
      Ir.Bset.elements truth.Core.Ground_truth.live_blocks
      |> List.map (fun (fn, label) -> Json.List [ Json.String fn; Json.Int label ])
    in
    Json.Obj
      (common
      @ [
          ("kind", Json.String "analyzed");
          ("alive", Json.of_iset truth.Core.Ground_truth.alive);
          ("dead", Json.of_iset truth.Core.Ground_truth.dead);
          ("steps", Json.Int truth.Core.Ground_truth.steps);
          ("live_blocks", Json.List live_blocks);
          ("configs", Json.List (List.map config_to_json a.Core.Analysis.configs));
        ])

let decode_payload j =
  let seed = Json.get_int j "seed" in
  let raw = Case.program seed in
  match Json.get_str j "kind" with
  | "rejected" ->
    { p_seed = seed; p_outcome = Core.Analysis.Rejected (Json.get_str j "reason"); p_raw = raw }
  | "analyzed" ->
    let alive = Json.iset_exn (Json.get j "alive") in
    let dead = Json.iset_exn (Json.get j "dead") in
    let live_blocks =
      List.fold_left
        (fun acc entry ->
          match Json.to_list entry with
          | Some [ fn; label ] -> (
            match (Json.to_str fn, Json.to_int label) with
            | Some fn, Some label -> Ir.Bset.add (fn, label) acc
            | _ -> failwith "journal record: bad live_blocks entry")
          | _ -> failwith "journal record: bad live_blocks entry")
        Ir.Bset.empty
        (Json.get_list j "live_blocks")
    in
    let truth =
      {
        Core.Ground_truth.alive;
        dead;
        all = Ir.Iset.union alive dead;
        live_blocks;
        steps = Json.get_int j "steps";
      }
    in
    (* everything below is a cheap deterministic derivation of the journaled
       data: regenerate, re-instrument, rebuild the marker graph *)
    let instrumented = Core.Instrument.program raw in
    let graph =
      Core.Primary.build ~live_blocks:truth.Core.Ground_truth.live_blocks
        (Dce_ir.Lower.program instrumented)
    in
    let configs =
      List.map
        (fun cj ->
          let surviving = Json.iset_exn (Json.get cj "surviving") in
          let attrib =
            List.map
              (fun entry ->
                match Json.to_list entry with
                | Some [ stage; markers ] -> (
                  match (Json.to_str stage, Json.to_list markers) with
                  | Some stage, Some markers -> (stage, List.map Json.int_exn markers)
                  | _ -> failwith "journal record: bad attrib entry")
                | _ -> failwith "journal record: bad attrib entry")
              (Json.get_list cj "attrib")
          in
          let missed = Core.Differential.missed ~surviving ~dead in
          {
            Core.Analysis.cfg_compiler = Json.get_str cj "compiler";
            cfg_level = Json.level_exn (Json.get cj "level");
            surviving;
            missed;
            primary_missed = Core.Primary.primary_missed graph ~alive ~missed;
            cfg_trace = synthetic_trace attrib;
          })
        (Json.get_list j "configs")
    in
    {
      p_seed = seed;
      p_outcome = Core.Analysis.Analyzed { Core.Analysis.instrumented; truth; graph; configs };
      p_raw = raw;
    }
  | other -> failwith (Printf.sprintf "journal record: unknown case kind %S" other)

let codec = { Engine.encode = encode_payload; decode = decode_payload }

(* ------------------------------------------------------------------ *)
(* the campaign                                                        *)
(* ------------------------------------------------------------------ *)

let run ?journal ?(settings = Settings.default) ?bundle_dir ~jobs ~seed ~count () =
  let checked = Settings.checked settings in
  let { Engine.seeds; result } =
    Case.run ?journal ~settings ~codec ~campaign:"hunt" ~jobs ~seed ~count (fun ctx case_seed raw ->
        let hook = { Core.Analysis.wrap = (fun name f -> Engine.stage ctx name f) } in
        { p_seed = case_seed; p_outcome = Core.Analysis.run ~checked ~hook raw; p_raw = raw })
  in
  let cases =
    Array.map
      (function
        | Engine.Done p -> Case (p.p_outcome, p.p_raw)
        | Engine.Crashed q -> Quarantined q)
      result.Engine.outcomes
  in
  (match bundle_dir with
   | None -> ()
   | Some dir ->
     List.iter
       (fun (q : Engine.quarantined) ->
         let case_seed = seeds.(q.Engine.q_case) in
         (* regenerating can itself crash (that may be exactly the fault);
            the bundle is still written, just without a source file *)
         let source =
           match Case.program case_seed with
           | raw -> Some (Dce_minic.Pretty.program_to_string raw)
           | exception _ -> None
         in
         ignore
           (Bundle.write ~dir (Bundle.of_quarantined ~campaign:"hunt" ~seed:case_seed ?source q)))
       result.Engine.quarantine);
  {
    c_seed = seed;
    c_count = count;
    c_jobs = jobs;
    c_seeds = seeds;
    c_cases = cases;
    c_quarantine = result.Engine.quarantine;
    c_metrics = result.Engine.metrics;
    c_resumed = result.Engine.resumed;
  }

let outcomes t =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.c_cases)
  |> List.filter_map (function
       | i, Case (o, raw) -> Some (i, (o, raw))
       | _, Quarantined _ -> None)

let stats t = Stats.collect_indexed (outcomes t)

let trivial_main =
  lazy
    (Core.Instrument.program
       (Dce_minic.Typecheck.check_exn
          (Dce_minic.Parser.parse_program "int main(void) { return 0; }")))

let instrumented_programs t =
  Array.map
    (function
      | Case (Core.Analysis.Analyzed a, _) -> a.Core.Analysis.instrumented
      | Case (Core.Analysis.Rejected _, raw) -> Core.Instrument.program raw
      | Quarantined _ -> Lazy.force trivial_main)
    t.c_cases

let triage t =
  let stats = stats t in
  Dce_report.Triage.triage ~programs:(instrumented_programs t)
    (stats.Stats.findings @ stats.Stats.regression_findings)

(* Fold a corpus campaign into the cross-run comparison report: per-case
   missed dead markers per configuration, plus each compiler's level
   inversions.  Sizes are the oracle campaigns' concern — the slot stays
   empty here, and campaign-diff simply has no size cells to compare.
   Lives in the library (not the CLI) so the serve daemon's hunt jobs and
   `dce_hunt hunt --run-root` persist byte-identical reports. *)
let report ~campaign ~seed ~count (c : t) =
  let analyzed =
    List.filter_map
      (function
        | i, (Core.Analysis.Analyzed a, _) ->
          Some
            ( i,
              List.map
                (fun (pc : Core.Analysis.per_config) -> (pc.cfg_compiler, pc.cfg_level, pc.missed))
                a.Core.Analysis.configs )
        | _, (Core.Analysis.Rejected _, _) -> None)
      (outcomes c)
  in
  let rows = List.map (fun (i, missed) -> Run_store.case_rows i missed) analyzed in
  Run_store.sort_report
    {
      Run_store.r_campaign = campaign;
      r_seed = seed;
      r_count = count;
      r_compilers =
        Dce_support.Listx.uniq
          (List.concat_map (fun (_, missed) -> List.map (fun (name, _, _) -> name) missed) analyzed);
      r_misses = List.concat_map fst rows;
      r_sizes = [];
      r_inversions = List.concat_map snd rows;
      r_rejected =
        List.filter_map
          (function i, (Core.Analysis.Rejected _, _) -> Some i | _, _ -> None)
          (outcomes c);
      r_quarantined = List.map (fun q -> q.Engine.q_case) c.c_quarantine;
    }

(* The rendered human report persisted as report.txt — one definition so
   the CLI and the serve daemon agree byte for byte. *)
let report_text (c : t) =
  let stats = stats c in
  String.concat ""
    [
      Stats.prevalence stats; "\n";
      "Table 1 (% dead blocks missed):\n"; Stats.table1 stats;
      "Table 2 (% dead blocks primary missed):\n"; Stats.table2 stats;
      Stats.differential_summary stats;
    ]

(* ------------------------------------------------------------------ *)
(* §4.4 value-check campaign                                           *)
(* ------------------------------------------------------------------ *)

type value_case = {
  vc_seed : int;
  vc_checks : int;
  vc_kept : (string * C.Level.t * int) list;
}

let encode_value vc =
  Json.Obj
    [
      ("seed", Json.Int vc.vc_seed);
      ("checks", Json.Int vc.vc_checks);
      ( "kept",
        Json.List
          (List.map
             (fun (comp, level, n) ->
               Json.List [ Json.String comp; Json.of_level level; Json.Int n ])
             vc.vc_kept) );
    ]

let decode_value j =
  {
    vc_seed = Json.get_int j "seed";
    vc_checks = Json.get_int j "checks";
    vc_kept =
      List.map
        (fun entry ->
          match Json.to_list entry with
          | Some [ comp; level; n ] -> (
            match (Json.to_str comp, Json.to_int n) with
            | Some comp, Some n -> (comp, Json.level_exn level, n)
            | _ -> failwith "journal record: bad kept entry")
          | _ -> failwith "journal record: bad kept entry")
        (Json.get_list j "kept");
  }

let value_codec = { Engine.encode = encode_value; decode = decode_value }

let run_value ?journal ?settings ~jobs ~seed ~count () =
  let body ctx case_seed raw =
    let none = { vc_seed = case_seed; vc_checks = 0; vc_kept = [] } in
    match
      Engine.stage ctx "value-instrument" (fun () -> Core.Value_instrument.instrument raw)
    with
    | None -> none
    | Some (_, st) when st.Core.Value_instrument.checks_planted = 0 -> none
    | Some (vi, _) -> (
      match Engine.stage ctx "ground-truth" (fun () -> Core.Ground_truth.compute vi) with
      | Core.Ground_truth.Rejected _ -> none
      | Core.Ground_truth.Valid truth ->
        let session = C.Compiler.session vi in
        let kept =
          List.concat_map
            (fun compiler ->
              List.map
                (fun level ->
                  let surv =
                    Engine.stage ctx "differential" (fun () ->
                        (C.Compiler.observe session compiler level).C.Compiler.obs_markers)
                  in
                  (compiler.C.Compiler.name, level, List.length surv))
                C.Level.all)
            Core.Analysis.default_compilers
        in
        {
          vc_seed = case_seed;
          vc_checks = Ir.Iset.cardinal truth.Core.Ground_truth.all;
          vc_kept = kept;
        })
  in
  Case.run ?journal ?settings ~codec:value_codec ~campaign:"value-hunt" ~jobs ~seed ~count body

let value_table (v : value_case Engine.seeded) =
  let total = ref 0 in
  let kept : (string * C.Level.t, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (function
      | Engine.Done vc ->
        total := !total + vc.vc_checks;
        List.iter
          (fun (comp, level, n) ->
            Hashtbl.replace kept (comp, level)
              (n + Option.value ~default:0 (Hashtbl.find_opt kept (comp, level))))
          vc.vc_kept
      | Engine.Crashed _ -> ())
    v.result.outcomes;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d value checks planted over %d programs (all dead by construction)\n"
       !total (Array.length v.result.outcomes));
  Buffer.add_string buf
    (Dce_report.Tables.render
       ~header:[ "Level"; "gcc-sim"; "llvm-sim" ]
       (List.map
          (fun level ->
            let cell comp =
              Dce_report.Tables.pct
                (Option.value ~default:0 (Hashtbl.find_opt kept (comp, level)))
                !total
            in
            [ C.Level.to_string level; cell "gcc-sim"; cell "llvm-sim" ])
          C.Level.all));
  Buffer.contents buf
