module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir

let compilers = Core.Analysis.default_compilers

(* ------------------------------------------------------------------ *)
(* size campaign: the "size-case" record kind                          *)
(* ------------------------------------------------------------------ *)

type size_case = {
  sc_seed : int;
  sc_rejected : string option;
  sc_curve : (string * C.Level.t * int) list;
}

(* The journal stores the size curve, not the findings: findings are a pure
   function of the curve ({!Dce_core.Differential.size_findings_of}), so a
   resumed campaign can even be re-thresholded — the ratio is a reporting
   parameter, never baked into records. *)
let encode_size sc =
  Json.envelope ~kind:"size-case" ~seed:sc.sc_seed
    (match sc.sc_rejected with
     | Some reason -> Error reason
     | None ->
       Ok
         [
           ( "curve",
             Json.List
               (List.map
                  (fun (name, level, size) ->
                    Json.List [ Json.String name; Json.of_level level; Json.Int size ])
                  sc.sc_curve) );
         ])

let decode_size j =
  match Json.of_envelope ~kind:"size-case" j with
  | seed, Error reason -> { sc_seed = seed; sc_rejected = Some reason; sc_curve = [] }
  | seed, Ok j ->
    let curve =
      List.map
        (fun entry ->
          match Json.to_list entry with
          | Some [ name; level; size ] -> (
            match (Json.to_str name, Json.to_int size) with
            | Some name, Some size -> (name, Json.level_exn level, size)
            | _ -> failwith "journal record: bad curve entry")
          | _ -> failwith "journal record: bad curve entry")
        (Json.get_list j "curve")
    in
    { sc_seed = seed; sc_rejected = None; sc_curve = curve }

let size_codec = { Engine.encode = encode_size; decode = decode_size }

let run_size ?journal ?settings ~jobs ~seed ~count () =
  let body ctx case_seed raw =
    (* the *instrumented* program is what we size: it is the same object the
       marker campaigns compile *)
    match Case.valid ctx raw with
    | Error reason -> { sc_seed = case_seed; sc_rejected = Some reason; sc_curve = [] }
    | Ok (instrumented, _) ->
      let curve =
        Engine.stage ctx "size-curve" (fun () ->
            Core.Differential.size_curve ~compilers instrumented)
      in
      { sc_seed = case_seed; sc_rejected = None; sc_curve = curve }
  in
  Case.run ?journal ?settings ~codec:size_codec ~campaign:"size-hunt" ~jobs ~seed ~count body

let default_ratio = 1.25

let size_findings ~ratio (t : size_case Engine.seeded) =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.result.outcomes)
  |> List.concat_map (function
       | i, Engine.Done sc when sc.sc_rejected = None ->
         List.map (fun f -> (i, f)) (Core.Differential.size_findings_of ~ratio sc.sc_curve)
       | _ -> [])

let size_report ~ratio (t : size_case Engine.seeded) =
  let findings = size_findings ~ratio t in
  let rejected =
    Array.fold_left
      (fun acc -> function Engine.Done sc when sc.sc_rejected <> None -> acc + 1 | _ -> acc)
      0 t.result.outcomes
  in
  let is_cross = function _, Core.Differential.Size_cross _ -> true | _ -> false in
  let cross = List.length (List.filter is_cross findings) in
  let intra = List.length findings - cross in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "%d programs (%d rejected), %d size findings (%d cross, %d intra; ratio >= %.2f)\n"
       (Array.length t.result.outcomes) rejected (List.length findings) cross intra ratio);
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

(* The run report of a size campaign: each finding's two sizes become
   report rows, so campaign-diff compares two size runs cell by cell. *)
let size_run_report ~ratio ~seed (t : size_case Engine.seeded) =
  let row i compiler level size =
    { Run_store.z_case = i; z_compiler = compiler; z_level = level; z_size = size }
  in
  let sizes =
    List.concat_map
      (fun (i, (f : Core.Differential.size_finding)) ->
        match f with
        | Core.Differential.Size_cross { level; larger; larger_size; smaller; smaller_size } ->
          [ row i larger level larger_size; row i smaller level smaller_size ]
        | Core.Differential.Size_intra { compiler; os_size; o2_size } ->
          [ row i compiler C.Level.Os os_size; row i compiler C.Level.O2 o2_size ])
      (size_findings ~ratio t)
  in
  Run_store.seeded_report ~campaign:"size-hunt" ~seed
    ~rejected:(fun sc -> sc.sc_rejected <> None)
    ~sizes ~inversions:[] t

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
  Json.envelope ~kind:"inversion-case" ~seed:ic.ic_seed
    (match ic.ic_rejected with
     | Some reason -> Error reason
     | None ->
       Ok
         [
           ("dead", Json.of_iset ic.ic_dead);
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
                               (fun (l, s) -> Json.List [ Json.of_level l; Json.of_iset s ])
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

let rejected_inv seed reason =
  {
    ic_seed = seed;
    ic_rejected = Some reason;
    ic_dead = Ir.Iset.empty;
    ic_surviving = [];
    ic_findings = [];
  }

let decode_inv j =
  match Json.of_envelope ~kind:"inversion-case" j with
  | seed, Error reason -> rejected_inv seed reason
  | seed, Ok j ->
    let dead = Json.iset_exn (Json.get j "dead") in
    let surviving =
      List.map
        (fun cj ->
          ( Json.get_str cj "compiler",
            List.map
              (fun entry ->
                match Json.to_list entry with
                | Some [ level; markers ] -> (Json.level_exn level, Json.iset_exn markers)
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
  let body ctx case_seed raw =
    match Case.valid ctx raw with
    | Error reason -> rejected_inv case_seed reason
    | Ok (instrumented, truth) ->
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
                    C.Compiler.run session (Core.Analysis.compiler_of_name name)
                      iv.Core.Differential.iv_low
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
  Case.run ?journal ?settings ~codec:inv_codec ~campaign:"level-hunt" ~jobs ~seed ~count body

let inversion_findings (t : inv_case Engine.seeded) =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.result.outcomes)
  |> List.concat_map (function
       | i, Engine.Done ic -> List.map (fun f -> (i, f)) ic.ic_findings
       | _, Engine.Crashed _ -> [])

let inversion_report (t : inv_case Engine.seeded) =
  let findings = inversion_findings t in
  let count p =
    Array.fold_left (fun acc -> function Engine.Done ic when p ic -> acc + 1 | _ -> acc) 0
      t.result.outcomes
  in
  let rejected = count (fun ic -> ic.ic_rejected <> None) in
  let affected = count (fun ic -> ic.ic_findings <> []) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%d programs (%d rejected), %d level inversions over %d affected programs\n"
       (Array.length t.result.outcomes) rejected (List.length findings) affected);
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

(* The run report of a level-inversion campaign: one row per finding. *)
let inversion_run_report ~seed (t : inv_case Engine.seeded) =
  let row (i, f) =
    let iv = f.if_inversion in
    {
      Run_store.v_case = i;
      v_compiler = f.if_compiler;
      v_marker = iv.Core.Differential.iv_marker;
      v_low = iv.Core.Differential.iv_low;
      v_high = iv.Core.Differential.iv_high;
    }
  in
  Run_store.seeded_report ~campaign:"level-hunt" ~seed
    ~rejected:(fun ic -> ic.ic_rejected <> None)
    ~sizes:[] ~inversions:(List.map row (inversion_findings t)) t
