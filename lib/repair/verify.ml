module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Campaign = Dce_campaign
module Engine = Campaign.Engine
module Json = Campaign.Json
module Run_store = Campaign.Run_store

(* The A/B verification campaign: a lean differential sweep over the smoke
   corpus producing a {!Run_store.report} — per-configuration missed
   markers, assembly sizes, and level inversions — for base and patched
   compilers alike.

   Compilers carry a display name separate from their cache identity: the
   patched compiler compiles under its own (signature-bearing) name, so the
   cache never aliases base and patched cells, but its report rows carry the
   base compiler's name, so campaign-diff compares the two runs row by row.
   The rival compiler keeps its identity in both runs — every one of its
   (level, program) cells in the patched run is a cache hit from the base
   run, which is what makes verification cheap. *)

let levels = [ C.Level.O1; C.Level.Os; C.Level.O2; C.Level.O3 ]

type vrow = {
  vr_compiler : string;  (** display name *)
  vr_level : C.Level.t;
  vr_missed : int list;  (** dead markers this configuration kept, sorted *)
  vr_size : int;
}

type vcase = { vc_seed : int; vc_rejected : string option; vc_rows : vrow list }

type t = { vy_report : Run_store.report; vy_result : vcase Engine.result }

(* ---------------- journal codec ---------------- *)

let encode_case c =
  Json.envelope ~kind:"verify-case" ~seed:c.vc_seed
    (match c.vc_rejected with
     | Some reason -> Error reason
     | None ->
       Ok
         [
           ( "rows",
             Json.List
               (List.map
                  (fun r ->
                    Json.Obj
                      [
                        ("compiler", Json.String r.vr_compiler);
                        ("level", Json.of_level r.vr_level);
                        ("missed", Json.List (List.map (fun m -> Json.Int m) r.vr_missed));
                        ("size", Json.Int r.vr_size);
                      ])
                  c.vc_rows) );
         ])

let decode_case j =
  match Json.of_envelope ~kind:"verify-case" j with
  | seed, Error reason -> { vc_seed = seed; vc_rejected = Some reason; vc_rows = [] }
  | seed, Ok j ->
    let row r =
      {
        vr_compiler = Json.get_str r "compiler";
        vr_level = Json.level_exn (Json.get r "level");
        vr_missed = List.map Json.int_exn (Json.get_list r "missed");
        vr_size = Json.get_int r "size";
      }
    in
    { vc_seed = seed; vc_rejected = None; vc_rows = List.map row (Json.get_list j "rows") }

let codec = { Engine.encode = encode_case; decode = decode_case }

(* ---------------- the campaign ---------------- *)

let campaign ?journal ?settings ?(jobs = 1) ~name ~compilers ~seed ~count () =
  let body ctx case_seed raw =
    match Campaign.Case.valid ctx raw with
    | Error reason -> { vc_seed = case_seed; vc_rejected = Some reason; vc_rows = [] }
    | Ok (instrumented, truth) ->
      let dead = truth.Core.Ground_truth.dead in
      let session = C.Compiler.session ~cache:true instrumented in
      let rows =
        Engine.stage ctx "differential" (fun () ->
            List.concat_map
              (fun (compiler, display) ->
                List.map
                  (fun level ->
                    let obs = C.Compiler.observe session compiler level in
                    let missed =
                      List.filter (fun m -> Ir.Iset.mem m dead) obs.C.Compiler.obs_markers
                    in
                    {
                      vr_compiler = display;
                      vr_level = level;
                      vr_missed = missed;
                      vr_size = obs.C.Compiler.obs_size;
                    })
                  levels)
              compilers)
      in
      { vc_seed = case_seed; vc_rejected = None; vc_rows = rows }
  in
  let { Engine.result; _ } =
    Campaign.Case.run ?journal ?settings ~codec ~campaign:name ~jobs ~seed ~count body
  in
  (* fold the case outcomes into the cross-run report *)
  let cases = List.mapi (fun i o -> (i, o)) (Array.to_list result.Engine.outcomes) in
  let valid =
    List.filter_map
      (function i, Engine.Done { vc_rejected = None; vc_rows; _ } -> Some (i, vc_rows) | _ -> None)
      cases
  in
  let rows =
    List.map
      (fun (i, vrows) ->
        Run_store.case_rows i
          (List.map (fun r -> (r.vr_compiler, r.vr_level, Ir.Iset.of_list r.vr_missed)) vrows))
      valid
  in
  let report =
    Run_store.sort_report
      {
        Run_store.r_campaign = name;
        r_seed = seed;
        r_count = count;
        r_compilers = List.map snd compilers;
        r_misses = List.concat_map fst rows;
        r_sizes =
          List.concat_map
            (fun (i, vrows) ->
              List.map
                (fun r ->
                  {
                    Run_store.z_case = i;
                    z_compiler = r.vr_compiler;
                    z_level = r.vr_level;
                    z_size = r.vr_size;
                  })
                vrows)
            valid;
        r_inversions = List.concat_map snd rows;
        r_rejected =
          List.filter_map
            (function i, Engine.Done { vc_rejected = Some _; _ } -> Some i | _ -> None)
            cases;
        r_quarantined =
          List.filter_map (function i, Engine.Crashed _ -> Some i | _ -> None) cases;
      }
  in
  { vy_report = report; vy_result = result }
