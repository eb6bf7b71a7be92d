module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Smith = Dce_smith.Smith
module Bisect = Dce_bisect.Bisect

let compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let compiler_named = function
  | "gcc-sim" -> C.Gcc_sim.compiler
  | "llvm-sim" -> C.Llvm_sim.compiler
  | other -> failwith (Printf.sprintf "oracle campaign: unknown compiler %S" other)

(* ------------------------------------------------------------------ *)
(* shared JSON helpers (same wire shapes as the corpus codec)          *)
(* ------------------------------------------------------------------ *)

let iset_to_json s = Json.List (List.map (fun i -> Json.Int i) (Ir.Iset.elements s))

let iset_of_json j =
  match Json.to_list j with
  | Some l -> List.fold_left (fun s v -> Ir.Iset.add (Json.int_exn v) s) Ir.Iset.empty l
  | None -> failwith "journal record: expected a marker list"

let level_to_json l = Json.String (C.Level.to_string l)

let level_of_json j =
  match Json.to_str j with
  | Some s -> (
    match C.Level.of_string s with
    | Some l -> l
    | None -> failwith (Printf.sprintf "journal record: unknown level %S" s))
  | None -> failwith "journal record: expected a level string"

let quarantine_lines seeds qs =
  String.concat ""
    (List.map
       (fun (q : Engine.quarantined) ->
         Printf.sprintf "  case %d (seed %d): %s in stage %s: %s\n" q.Engine.q_case
           seeds.(q.Engine.q_case)
           (Engine.fault_kind_name q.Engine.q_kind)
           q.Engine.q_stage q.Engine.q_error)
       qs)

(* ------------------------------------------------------------------ *)
(* size campaign: the "size-case" record kind                          *)
(* ------------------------------------------------------------------ *)

type size_case = {
  sc_seed : int;
  sc_rejected : string option;
  sc_curve : (string * C.Level.t * int) list;
}

type size_t = {
  s_seed : int;
  s_count : int;
  s_jobs : int;
  s_ratio : float;
  s_seeds : int array;
  s_cases : size_case Engine.case_outcome array;
  s_quarantine : Engine.quarantined list;
  s_metrics : Metrics.summary;
  s_resumed : int;
  s_skipped : int;
}

(* The journal stores the size curve, not the findings: findings are a pure
   function of the curve ({!Dce_core.Differential.size_findings_of}), so a
   resumed campaign can even be re-thresholded — the ratio is a reporting
   parameter, never baked into records. *)
let encode_size sc =
  let common = [ ("kind", Json.String "size-case"); ("seed", Json.Int sc.sc_seed) ] in
  match sc.sc_rejected with
  | Some reason -> Json.Obj (common @ [ ("rejected", Json.String reason) ])
  | None ->
    Json.Obj
      (common
      @ [
          ( "curve",
            Json.List
              (List.map
                 (fun (name, level, size) ->
                   Json.List [ Json.String name; level_to_json level; Json.Int size ])
                 sc.sc_curve) );
        ])

let decode_size j =
  (match Json.get_str j "kind" with
   | "size-case" -> ()
   | other -> failwith (Printf.sprintf "journal record: unknown case kind %S" other));
  let seed = Json.get_int j "seed" in
  match Json.member "rejected" j with
  | Some reason ->
    {
      sc_seed = seed;
      sc_rejected = Some (Option.get (Json.to_str reason));
      sc_curve = [];
    }
  | None ->
    let curve =
      List.map
        (fun entry ->
          match Json.to_list entry with
          | Some [ name; level; size ] -> (
            match (Json.to_str name, Json.to_int size) with
            | Some name, Some size -> (name, level_of_json level, size)
            | _ -> failwith "journal record: bad curve entry")
          | _ -> failwith "journal record: bad curve entry")
        (Json.get_list j "curve")
    in
    { sc_seed = seed; sc_rejected = None; sc_curve = curve }

let size_codec = { Engine.encode = encode_size; decode = decode_size }

let run_size ?journal ?(ratio = 1.25) ?settings ~jobs ~seed ~count () =
  let seeds = Array.of_list (Smith.corpus_seeds ~seed ~count) in
  let runner ctx i =
    let case_seed = seeds.(i) in
    let raw =
      Engine.stage ctx "generate" (fun () -> fst (Smith.generate (Smith.default_config case_seed)))
    in
    (* the *instrumented* program is what we size: it is the same object the
       marker campaigns compile, so every (config, program) cell a size hunt
       compiles is a cache hit for a marker hunt on the same corpus (and
       vice versa) *)
    let instrumented = Engine.stage ctx "instrument" (fun () -> Core.Instrument.program raw) in
    match
      Engine.stage ctx "ground-truth" (fun () -> Core.Ground_truth.compute instrumented)
    with
    | Core.Ground_truth.Rejected reason ->
      { sc_seed = case_seed; sc_rejected = Some reason; sc_curve = [] }
    | Core.Ground_truth.Valid _ ->
      let curve =
        Engine.stage ctx "size-curve" (fun () ->
            Core.Differential.size_curve ~compilers instrumented)
      in
      { sc_seed = case_seed; sc_rejected = None; sc_curve = curve }
  in
  let result =
    Fabric.run ?journal ~codec:size_codec ~campaign:"size-hunt" ~seed ?settings ~jobs ~count runner
  in
  {
    s_seed = seed;
    s_count = count;
    s_jobs = jobs;
    s_ratio = ratio;
    s_seeds = seeds;
    s_cases = result.Engine.outcomes;
    s_quarantine = result.Engine.quarantine;
    s_metrics = result.Engine.metrics;
    s_resumed = result.Engine.resumed;
    s_skipped = result.Engine.skipped;
  }

let size_findings t =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.s_cases)
  |> List.concat_map (function
       | i, Engine.Done sc when sc.sc_rejected = None ->
         List.map
           (fun f -> (i, f))
           (Core.Differential.size_findings_of ~ratio:t.s_ratio sc.sc_curve)
       | _ -> [])

let size_report t =
  let findings = size_findings t in
  let rejected =
    Array.fold_left
      (fun acc -> function Engine.Done sc when sc.sc_rejected <> None -> acc + 1 | _ -> acc)
      0 t.s_cases
  in
  let is_cross = function _, Core.Differential.Size_cross _ -> true | _ -> false in
  let cross = List.length (List.filter is_cross findings) in
  let intra = List.length findings - cross in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "%d programs (%d rejected), %d size findings (%d cross, %d intra; ratio >= %.2f)\n"
       t.s_count rejected (List.length findings) cross intra t.s_ratio);
  Buffer.add_string buf
    (Dce_report.Oracle_report.size_histogram
       (List.map (fun (_, f) -> Core.Differential.size_ratio f) findings));
  let guilty_label = function
    | Core.Differential.Size_cross { larger; _ } -> larger ^ " -Os (vs other)"
    | Core.Differential.Size_intra { compiler; _ } -> compiler ^ " -Os (vs own -O2)"
  in
  if findings <> [] then
    Buffer.add_string buf
      (Dce_report.Oracle_report.count_table ~label:"Guilty config" ~count:"Findings"
         (Dce_report.Oracle_report.tally (List.map (fun (_, f) -> guilty_label f) findings)));
  Buffer.contents buf

let size_quarantine_to_string t = quarantine_lines t.s_seeds t.s_quarantine

(* ------------------------------------------------------------------ *)
(* level-inversion campaign: the "inversion-case" record kind          *)
(* ------------------------------------------------------------------ *)

type inv_finding = {
  if_compiler : string;
  if_inversion : Core.Differential.inversion;
  if_guilty : string;
}

type inv_case = {
  ic_seed : int;
  ic_rejected : string option;
  ic_dead : Ir.Iset.t;
  ic_surviving : (string * (C.Level.t * Ir.Iset.t) list) list;
  ic_findings : inv_finding list;
}

type inv_t = {
  i_seed : int;
  i_count : int;
  i_jobs : int;
  i_seeds : int array;
  i_cases : inv_case Engine.case_outcome array;
  i_quarantine : Engine.quarantined list;
  i_metrics : Metrics.summary;
  i_resumed : int;
  i_skipped : int;
}

(* O0 keeps everything by construction, so it never eliminates and only
   inflates the surviving sets — the inversion levels start at O1. *)
let inversion_levels = [ C.Level.O1; C.Level.Os; C.Level.O2; C.Level.O3 ]

let derive_inversions ~dead surviving =
  List.concat_map
    (fun (name, per_level) ->
      List.map (fun iv -> (name, iv)) (Core.Differential.inversions ~dead per_level))
    surviving

(* Journal: the dead set and per-(compiler, level) surviving sets — the
   complete oracle input — plus the guilty-pass triples, which *are*
   journaled because attribution needs traced (uncacheable) compiles.
   Inversions themselves are re-derived on decode. *)
let encode_inv ic =
  let common = [ ("kind", Json.String "inversion-case"); ("seed", Json.Int ic.ic_seed) ] in
  match ic.ic_rejected with
  | Some reason -> Json.Obj (common @ [ ("rejected", Json.String reason) ])
  | None ->
    Json.Obj
      (common
      @ [
          ("dead", iset_to_json ic.ic_dead);
          ( "surviving",
            Json.List
              (List.map
                 (fun (name, per_level) ->
                   Json.Obj
                     [
                       ("compiler", Json.String name);
                       ( "levels",
                         Json.List
                           (List.map
                              (fun (l, s) -> Json.List [ level_to_json l; iset_to_json s ])
                              per_level) );
                     ])
                 ic.ic_surviving) );
          ( "guilty",
            Json.List
              (List.map
                 (fun f ->
                   Json.List
                     [
                       Json.String f.if_compiler;
                       Json.Int f.if_inversion.Core.Differential.iv_marker;
                       Json.String f.if_guilty;
                     ])
                 ic.ic_findings) );
        ])

let decode_inv j =
  (match Json.get_str j "kind" with
   | "inversion-case" -> ()
   | other -> failwith (Printf.sprintf "journal record: unknown case kind %S" other));
  let seed = Json.get_int j "seed" in
  match Json.member "rejected" j with
  | Some reason ->
    {
      ic_seed = seed;
      ic_rejected = Some (Option.get (Json.to_str reason));
      ic_dead = Ir.Iset.empty;
      ic_surviving = [];
      ic_findings = [];
    }
  | None ->
    let dead = iset_of_json (Json.get j "dead") in
    let surviving =
      List.map
        (fun cj ->
          ( Json.get_str cj "compiler",
            List.map
              (fun entry ->
                match Json.to_list entry with
                | Some [ level; markers ] -> (level_of_json level, iset_of_json markers)
                | _ -> failwith "journal record: bad surviving entry")
              (Json.get_list cj "levels") ))
        (Json.get_list j "surviving")
    in
    let guilty =
      List.map
        (fun entry ->
          match Json.to_list entry with
          | Some [ comp; marker; pass ] -> (
            match (Json.to_str comp, Json.to_int marker, Json.to_str pass) with
            | Some comp, Some marker, Some pass -> ((comp, marker), pass)
            | _ -> failwith "journal record: bad guilty entry")
          | _ -> failwith "journal record: bad guilty entry")
        (Json.get_list j "guilty")
    in
    let findings =
      List.map
        (fun (name, iv) ->
          {
            if_compiler = name;
            if_inversion = iv;
            if_guilty =
              Option.value ~default:"unknown"
                (List.assoc_opt (name, iv.Core.Differential.iv_marker) guilty);
          })
        (derive_inversions ~dead surviving)
    in
    { ic_seed = seed; ic_rejected = None; ic_dead = dead; ic_surviving = surviving;
      ic_findings = findings }

let inv_codec = { Engine.encode = encode_inv; decode = decode_inv }

let run_inversion ?journal ?settings ~jobs ~seed ~count () =
  let seeds = Array.of_list (Smith.corpus_seeds ~seed ~count) in
  let runner ctx i =
    let case_seed = seeds.(i) in
    let raw =
      Engine.stage ctx "generate" (fun () -> fst (Smith.generate (Smith.default_config case_seed)))
    in
    let instrumented = Engine.stage ctx "instrument" (fun () -> Core.Instrument.program raw) in
    match
      Engine.stage ctx "ground-truth" (fun () -> Core.Ground_truth.compute instrumented)
    with
    | Core.Ground_truth.Rejected reason ->
      {
        ic_seed = case_seed;
        ic_rejected = Some reason;
        ic_dead = Ir.Iset.empty;
        ic_surviving = [];
        ic_findings = [];
      }
    | Core.Ground_truth.Valid truth ->
      let dead = truth.Core.Ground_truth.dead in
      let session = C.Compiler.session ~cache:true instrumented in
      let surviving =
        Engine.stage ctx "differential" (fun () ->
            List.map
              (fun (comp : C.Compiler.t) ->
                ( comp.C.Compiler.name,
                  List.map
                    (fun level ->
                      let markers =
                        (C.Compiler.observe session comp level).C.Compiler.obs_markers
                      in
                      (level, List.fold_left (fun s n -> Ir.Iset.add n s) Ir.Iset.empty markers))
                    inversion_levels ))
              compilers)
      in
      let pairs = derive_inversions ~dead surviving in
      let findings =
        if pairs = [] then []
        else
          Engine.stage ctx "attribution" (fun () ->
              (* traces come off the pipeline, not the whole-compile memo;
                 a repeated (compiler, low level) replays from the session *)
              List.map
                (fun (name, (iv : Core.Differential.inversion)) ->
                  let _, trace =
                    C.Compiler.run session (compiler_named name) iv.Core.Differential.iv_low
                  in
                  let guilty =
                    match
                      C.Passmgr.markers_eliminated_by trace ~marker:iv.Core.Differential.iv_marker
                    with
                    | Some r -> r.C.Passmgr.sr_label
                    | None -> "unknown"
                  in
                  { if_compiler = name; if_inversion = iv; if_guilty = guilty })
                pairs)
      in
      { ic_seed = case_seed; ic_rejected = None; ic_dead = dead; ic_surviving = surviving;
        ic_findings = findings }
  in
  let result =
    Fabric.run ?journal ~codec:inv_codec ~campaign:"level-hunt" ~seed ?settings ~jobs ~count runner
  in
  {
    i_seed = seed;
    i_count = count;
    i_jobs = jobs;
    i_seeds = seeds;
    i_cases = result.Engine.outcomes;
    i_quarantine = result.Engine.quarantine;
    i_metrics = result.Engine.metrics;
    i_resumed = result.Engine.resumed;
    i_skipped = result.Engine.skipped;
  }

let inversion_findings t =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.i_cases)
  |> List.concat_map (function
       | i, Engine.Done ic -> List.map (fun f -> (i, f)) ic.ic_findings
       | _, Engine.Crashed _ -> [])

let inversion_report t =
  let findings = inversion_findings t in
  let rejected =
    Array.fold_left
      (fun acc -> function Engine.Done ic when ic.ic_rejected <> None -> acc + 1 | _ -> acc)
      0 t.i_cases
  in
  let affected =
    Array.fold_left
      (fun acc -> function Engine.Done ic when ic.ic_findings <> [] -> acc + 1 | _ -> acc)
      0 t.i_cases
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%d programs (%d rejected), %d level inversions over %d affected programs\n"
       t.i_count rejected (List.length findings) affected);
  if findings <> [] then begin
    Buffer.add_string buf
      (Dce_report.Oracle_report.count_table ~label:"Inversion" ~count:"Count"
         (Dce_report.Oracle_report.tally
            (List.map
               (fun (_, f) ->
                 Printf.sprintf "%s dead@%s live@%s" f.if_compiler
                   (C.Level.to_string f.if_inversion.Core.Differential.iv_low)
                   (C.Level.to_string f.if_inversion.Core.Differential.iv_high))
               findings)));
    Buffer.add_string buf
      (Dce_report.Oracle_report.count_table ~label:"Guilty pass (eliminates at low level)"
         ~count:"Inversions"
         (Dce_report.Oracle_report.tally
            (List.map (fun (_, f) -> f.if_compiler ^ " " ^ f.if_guilty) findings)))
  end;
  Buffer.contents buf

let inversion_quarantine_to_string t = quarantine_lines t.i_seeds t.i_quarantine

(* ------------------------------------------------------------------ *)
(* bisecting inversions over the commit model                          *)
(* ------------------------------------------------------------------ *)

type inv_bisection = {
  ib_case : int;
  ib_finding : inv_finding;
  ib_outcome : (Bisect.outcome, Engine.quarantined) result;
  ib_probes : int;
}

let bisect_inversions ?(cache = true) ?settings ~jobs t =
  let work = Array.of_list (inversion_findings t) in
  let validate = Settings.checked (Option.value ~default:Settings.default settings) in
  let runner ctx e =
    let ci, f = work.(e) in
    let prog =
      Engine.stage ctx "regenerate" (fun () ->
          Core.Instrument.program (fst (Smith.generate (Smith.default_config t.i_seeds.(ci)))))
    in
    (* one session per finding: its probes replay each other's stages *)
    let session = if cache then Some (C.Compiler.session ~validate ~cache prog) else None in
    (* the marker survives at iv_high although a weaker level kills it:
       bisect the iv_high pipeline's history for the commit that lost it *)
    let outcome, probes =
      Engine.stage ctx "bisect" (fun () ->
          Bisect.find_regression_counted ?session ~validate (compiler_named f.if_compiler)
            f.if_inversion.Core.Differential.iv_high prog
            ~marker:f.if_inversion.Core.Differential.iv_marker)
    in
    { ib_case = ci; ib_finding = f; ib_outcome = Ok outcome; ib_probes = probes }
  in
  let result =
    Engine.run ~campaign:"inv-bisect" ~seed:t.i_seed ?settings ~jobs ~count:(Array.length work)
      runner
  in
  Array.to_list
    (Array.mapi
       (fun e -> function
         | Engine.Done b -> b
         | Engine.Crashed q ->
           let ci, f = work.(e) in
           { ib_case = ci; ib_finding = f; ib_outcome = Error q; ib_probes = 0 })
       result.Engine.outcomes)

let inv_bisections_table rows =
  let verdict = function
    | Ok Bisect.Not_missed -> "not-missed"
    | Ok Bisect.Always_missed -> "always-missed"
    | Ok (Bisect.Regression r) -> "regression @ " ^ r.Bisect.offending.C.Version.id
    | Error (q : Engine.quarantined) ->
      Printf.sprintf "quarantined: %s in %s" (Engine.fault_kind_name q.Engine.q_kind)
        q.Engine.q_stage
  in
  Printf.sprintf "%d inversions bisected (%d probes)\n" (List.length rows)
    (Dce_support.Listx.sum (List.map (fun b -> b.ib_probes) rows))
  ^ Dce_report.Tables.render
      ~align:[ `Right; `Left; `Right; `Left; `Left; `Right ]
      ~header:[ "Case"; "Compiler"; "Marker"; "Level"; "Verdict"; "Probes" ]
      (List.map
         (fun b ->
           [
             string_of_int b.ib_case;
             b.ib_finding.if_compiler;
             string_of_int b.ib_finding.if_inversion.Core.Differential.iv_marker;
             C.Level.to_string b.ib_finding.if_inversion.Core.Differential.iv_high;
             verdict b.ib_outcome;
             string_of_int b.ib_probes;
           ])
         rows)
