module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Smith = Dce_smith.Smith
module Campaign = Dce_campaign
module Engine = Campaign.Engine
module Fabric = Campaign.Fabric
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
  let common = [ ("kind", Json.String "verify-case"); ("seed", Json.Int c.vc_seed) ] in
  match c.vc_rejected with
  | Some reason -> Json.Obj (common @ [ ("rejected", Json.String reason) ])
  | None ->
    Json.Obj
      (common
      @ [
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
  (match Json.get_str j "kind" with
   | "verify-case" -> ()
   | other -> failwith (Printf.sprintf "journal record: unknown case kind %S" other));
  let seed = Json.get_int j "seed" in
  match Json.member "rejected" j with
  | Some reason ->
    { vc_seed = seed; vc_rejected = Some (Option.get (Json.to_str reason)); vc_rows = [] }
  | None ->
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
      { vc_seed = case_seed; vc_rejected = Some reason; vc_rows = [] }
    | Core.Ground_truth.Valid truth ->
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
  let result =
    Fabric.run ?journal ~codec ~campaign:name ~seed ?settings ~jobs ~count runner
  in
  (* fold the case outcomes into the cross-run report *)
  let misses = ref [] and sizes = ref [] and invs = ref [] in
  let rejected = ref [] and quarantined = ref [] in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Engine.Crashed _ -> quarantined := i :: !quarantined
      | Engine.Done { vc_rejected = Some _; _ } -> rejected := i :: !rejected
      | Engine.Done { vc_rows; _ } ->
        List.iter
          (fun r ->
            sizes :=
              {
                Run_store.z_case = i;
                z_compiler = r.vr_compiler;
                z_level = r.vr_level;
                z_size = r.vr_size;
              }
              :: !sizes;
            List.iter
              (fun m ->
                misses :=
                  {
                    Run_store.m_case = i;
                    m_compiler = r.vr_compiler;
                    m_level = r.vr_level;
                    m_marker = m;
                  }
                  :: !misses)
              r.vr_missed)
          vc_rows;
        (* level inversions, per display compiler, from the missed sets:
           restricted to dead markers, missed ≡ surviving, so the pure
           oracle applies unchanged *)
        let by_compiler = Hashtbl.create 4 in
        List.iter
          (fun r ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_compiler r.vr_compiler) in
            Hashtbl.replace by_compiler r.vr_compiler
              ((r.vr_level, Ir.Iset.of_list r.vr_missed) :: prev))
          vc_rows;
        List.iter
          (fun (_, display) ->
            match Hashtbl.find_opt by_compiler display with
            | None -> ()
            | Some per_level ->
              let dead =
                List.fold_left (fun acc (_, s) -> Ir.Iset.union acc s) Ir.Iset.empty per_level
              in
              List.iter
                (fun (iv : Core.Differential.inversion) ->
                  invs :=
                    {
                      Run_store.v_case = i;
                      v_compiler = display;
                      v_marker = iv.Core.Differential.iv_marker;
                      v_low = iv.Core.Differential.iv_low;
                      v_high = iv.Core.Differential.iv_high;
                    }
                    :: !invs)
                (Core.Differential.inversions ~dead per_level))
          compilers)
    result.Engine.outcomes;
  let report =
    Run_store.sort_report
      {
        Run_store.r_campaign = name;
        r_seed = seed;
        r_count = count;
        r_compilers = List.map snd compilers;
        r_misses = !misses;
        r_sizes = !sizes;
        r_inversions = !invs;
        r_rejected = !rejected;
        r_quarantined = !quarantined;
      }
  in
  { vy_report = report; vy_result = result }
