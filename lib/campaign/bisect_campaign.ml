module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Bisect = Dce_bisect.Bisect

type bisection = {
  bs_compiler : string;
  bs_marker : int;
  bs_probes : int;
  bs_outcome : Bisect.outcome;
}

type case_report = {
  br_case : int;
  br_seed : int;
  br_probes : int;
  br_bisections : bisection list;
}

type t = {
  b_levels : C.Level.t list;
  b_cases : case_report Engine.case_outcome array;
  b_bisected : int;
  b_seeds : int array;
  b_pairs : int;
  b_probes : int;
  b_quarantine : Engine.quarantined list;
  b_metrics : Metrics.summary;
  b_resumed : int;
}

(* ------------------------------------------------------------------ *)
(* targets                                                             *)
(* ------------------------------------------------------------------ *)

(* What a corpus case bisects: its program, built inside the case so that
   a regeneration is one of its stages, and (compiler, level, marker)
   triples in campaign order.  Both entry points derive them purely from
   their input, so campaign output is deterministic for any jobs value. *)
type target = {
  program : Engine.ctx -> Dce_minic.Ast.program;
  triples : (string * C.Level.t * int) list;
}

(* The paper bisects every missed marker of every differential-tested case
   (§4.2); our triples are the case's markers missed at [level], in the
   analysis' config order then ascending marker order. *)
let missed_target level = function
  | Corpus.Case (Core.Analysis.Analyzed a, _) ->
    let triples =
      List.concat_map
        (fun (pc : Core.Analysis.per_config) ->
          if pc.Core.Analysis.cfg_level = level then
            List.map
              (fun m -> (pc.Core.Analysis.cfg_compiler, level, m))
              (Ir.Iset.elements pc.Core.Analysis.missed)
          else [])
        a.Core.Analysis.configs
    in
    if triples = [] then None
    else Some { program = (fun _ -> a.Core.Analysis.instrumented); triples }
  | Corpus.Case (Core.Analysis.Rejected _, _) | Corpus.Quarantined _ -> None

(* An inversion's marker survives at iv_high although a weaker level kills
   it: bisect the iv_high pipeline's history for the commit that lost it. *)
let inversion_target seed = function
  | Engine.Done (ic : Oracle_campaign.inv_case) when ic.ic_findings <> [] ->
    let program ctx =
      Engine.stage ctx "regenerate" (fun () -> Core.Instrument.program (Case.program seed))
    in
    let triple (f : Oracle_campaign.inv_finding) =
      (f.if_compiler, f.if_inversion.Core.Differential.iv_high,
       f.if_inversion.Core.Differential.iv_marker)
    in
    Some { program; triples = List.map triple ic.ic_findings }
  | Engine.Done _ | Engine.Crashed _ -> None

(* ------------------------------------------------------------------ *)
(* journal codec: the "bisect-case" record kind                        *)
(* ------------------------------------------------------------------ *)

let outcome_fields = function
  | Bisect.Not_missed -> [ ("verdict", Json.String "not-missed") ]
  | Bisect.Always_missed -> [ ("verdict", Json.String "always-missed") ]
  | Bisect.Regression r ->
    [
      ("verdict", Json.String "regression");
      ("offending", Json.String r.Bisect.offending.C.Version.id);
      ("index", Json.Int r.Bisect.offending_index);
      ("last_good", Json.Int r.Bisect.last_good);
      ("compilations", Json.Int r.Bisect.compilations);
    ]

let outcome_of_json ~compiler j =
  match Json.get_str j "verdict" with
  | "not-missed" -> Bisect.Not_missed
  | "always-missed" -> Bisect.Always_missed
  | "regression" ->
    let id = Json.get_str j "offending" in
    let commit =
      match
        List.find_opt (fun (c : C.Version.commit) -> c.C.Version.id = id) compiler.C.Compiler.history
      with
      | Some c -> c
      | None -> failwith (Printf.sprintf "journal record: unknown commit %S" id)
    in
    Bisect.Regression
      {
        Bisect.offending = commit;
        offending_index = Json.get_int j "index";
        last_good = Json.get_int j "last_good";
        compilations = Json.get_int j "compilations";
      }
  | other -> failwith (Printf.sprintf "journal record: unknown bisection verdict %S" other)

let encode_report r =
  Json.Obj
    [
      ("kind", Json.String "bisect-case");
      ("corpus_case", Json.Int r.br_case);
      ("seed", Json.Int r.br_seed);
      ("probes", Json.Int r.br_probes);
      ( "bisections",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 ([
                    ("compiler", Json.String b.bs_compiler);
                    ("marker", Json.Int b.bs_marker);
                    ("probes", Json.Int b.bs_probes);
                  ]
                 @ outcome_fields b.bs_outcome))
             r.br_bisections) );
    ]

let decode_report j =
  Json.expect_kind "bisect-case" j;
  {
    br_case = Json.get_int j "corpus_case";
    br_seed = Json.get_int j "seed";
    br_probes = Json.get_int j "probes";
    br_bisections =
      List.map
        (fun bj ->
          let compiler_name = Json.get_str bj "compiler" in
          {
            bs_compiler = compiler_name;
            bs_marker = Json.get_int bj "marker";
            bs_probes = Json.get_int bj "probes";
            bs_outcome = outcome_of_json ~compiler:(Core.Analysis.compiler_of_name compiler_name) bj;
          })
        (Json.get_list j "bisections");
  }

let codec = { Engine.encode = encode_report; decode = decode_report }

(* ------------------------------------------------------------------ *)
(* the campaign                                                        *)
(* ------------------------------------------------------------------ *)

(* The one bisection runner.  Engine case i is corpus case i, so a chaos
   plan and the quarantine name cases as the corpus half does; a case with
   nothing to bisect completes at once. *)
let bisect ?journal ?(seed = 0) ~campaign ~levels ~settings ~jobs ~seeds targets =
  let count = Array.length targets in
  Settings.check_cases ~count settings;
  let validate = Settings.checked settings in
  let runner ctx ci =
    let bisections =
      match targets.(ci) with
      | None -> []
      | Some { program; triples } ->
        let prog = program ctx in
        (* one session per case attempt, shared by both compilers and every
           marker: the probes of adjacent versions replay each other's stages *)
        let session = C.Compiler.session ~validate ~cache:true prog in
        List.map
          (fun (compiler_name, level, marker) ->
            let outcome, probes =
              Engine.stage ctx "bisect" (fun () ->
                  Bisect.find_regression_counted ~session
                    (Core.Analysis.compiler_of_name compiler_name) level prog ~marker)
            in
            { bs_compiler = compiler_name; bs_marker = marker; bs_probes = probes;
              bs_outcome = outcome })
          triples
    in
    {
      br_case = ci;
      br_seed = seeds.(ci);
      br_probes = Dce_support.Listx.sum (List.map (fun b -> b.bs_probes) bisections);
      br_bisections = bisections;
    }
  in
  let result = Engine.run ?journal ~codec ~campaign ~seed ~settings ~jobs ~count runner in
  let bisected, pairs =
    Array.fold_left
      (fun (cases, pairs) -> function
        | Some t -> (cases + 1, pairs + List.length t.triples)
        | None -> (cases, pairs))
      (0, 0) targets
  in
  let probes =
    Array.fold_left
      (fun acc -> function Engine.Done r -> acc + r.br_probes | Engine.Crashed _ -> acc)
      0 result.Engine.outcomes
  in
  {
    b_levels = levels;
    b_cases = result.Engine.outcomes;
    b_bisected = bisected;
    b_seeds = seeds;
    b_pairs = pairs;
    b_probes = probes;
    b_quarantine = result.Engine.quarantine;
    b_metrics = result.Engine.metrics;
    b_resumed = result.Engine.resumed;
  }

let run ?journal ?(level = C.Level.O3) ?(settings = Settings.default) ~jobs (corpus : Corpus.t) =
  bisect ?journal ~seed:corpus.Corpus.c_seed ~campaign:"bisect" ~levels:[ level ] ~settings ~jobs
    ~seeds:corpus.Corpus.c_seeds
    (Array.map (missed_target level) corpus.Corpus.c_cases)

let inversions ?(settings = Settings.default) ~jobs (t : Oracle_campaign.inv_case Engine.seeded) =
  let targets = Array.mapi (fun ci -> inversion_target t.seeds.(ci)) t.result.outcomes in
  let levels =
    Array.to_list targets
    |> List.concat_map (function Some t -> List.map (fun (_, l, _) -> l) t.triples | None -> [])
    |> List.sort_uniq (fun a b -> compare (C.Level.rank a) (C.Level.rank b))
  in
  bisect ~campaign:"inv-bisect" ~levels ~settings ~jobs ~seeds:t.seeds targets

(* ------------------------------------------------------------------ *)
(* aggregation: the paper's component/file tables                      *)
(* ------------------------------------------------------------------ *)

let bisections t =
  Array.to_list t.b_cases
  |> List.concat_map (function
       | Engine.Done r -> List.map (fun b -> (r.br_case, b)) r.br_bisections
       | Engine.Crashed _ -> [])

let regressions t =
  List.filter_map
    (fun (ci, b) ->
      match b.bs_outcome with
      | Bisect.Regression r -> Some (ci, b.bs_compiler, b.bs_marker, r)
      | Bisect.Always_missed | Bisect.Not_missed -> None)
    (bisections t)

let commits_by_compiler t =
  (* fixed compiler order: Table 3 is LLVM, Table 4 is GCC *)
  List.map
    (fun name ->
      ( name,
        List.filter_map
          (fun (_, comp, _, (r : Bisect.regression)) ->
            if comp = name then Some r.Bisect.offending else None)
          (regressions t) ))
    [ "llvm-sim"; "gcc-sim" ]

let summary t =
  let bs = bisections t in
  let verdict_count p = List.length (List.filter (fun (_, b) -> p b.bs_outcome) bs) in
  let reg = verdict_count (function Bisect.Regression _ -> true | _ -> false) in
  let always = verdict_count (function Bisect.Always_missed -> true | _ -> false) in
  let never = verdict_count (function Bisect.Not_missed -> true | _ -> false) in
  Printf.sprintf
    "%d (case, missed-marker) pairs bisected over %d cases at %s: %d regressions, %d \
     always-missed, %d not-missed; %d compile-and-check probes\n"
    t.b_pairs t.b_bisected
    (match t.b_levels with
     | [] -> "no level"
     | levels -> String.concat "/" (List.map C.Level.to_string levels))
    reg always never t.b_probes

let component_tables t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, commits) ->
      let table_name =
        if name = "llvm-sim" then "Table 3 (llvm-sim components)"
        else "Table 4 (gcc-sim components)"
      in
      Buffer.add_string buf (Printf.sprintf "%s\n" table_name);
      if commits = [] then Buffer.add_string buf "no regressions bisected for this compiler\n"
      else begin
        let rows = Bisect.component_table commits in
        Buffer.add_string buf
          (Printf.sprintf "%d regressions bisected to %d unique commits:\n" (List.length commits)
             (List.length (Dce_support.Listx.uniq (List.map (fun (c : C.Version.commit) -> c.C.Version.id) commits))));
        Buffer.add_string buf
          (Dce_report.Tables.render
             ~align:[ `Left; `Right; `Right ]
             ~header:[ "Component"; "# Commits"; "# Files" ]
             (List.map
                (fun (r : Bisect.component_row) ->
                  [ r.Bisect.component; string_of_int r.Bisect.commits; string_of_int r.Bisect.files ])
                rows))
      end)
    (commits_by_compiler t);
  Buffer.contents buf
