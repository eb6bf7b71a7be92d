(* Bench regression gate: compare freshly generated BENCH_*.json documents
   against the committed baselines.

   Usage: gate.exe BASELINE_DIR FRESH_DIR

   Two classes of check, both walking the documents recursively so nested
   sections (scaling/skew/warm, cache, ...) are covered without the gate
   knowing each file's schema:

   - enforced booleans: a quality bar that passed at the baseline must not
     regress — fresh must have the key, and it must be true if the baseline
     said true.  (meets_5x_bar is deliberately absent: the executor's 5x
     headroom is informational, not a CI promise on shared runners.)

   - higher-is-better numerics: fresh >= baseline - tolerance.  Wall-clock
     noise on CI runners is real, so the tolerance is generous — the gate
     exists to catch collapses (a cache stops caching, scaling goes flat),
     not 10% jitter.

   Keys outside both lists (raw walls, counts, findings) are reported only
   when they disappear, never compared — corpus changes legitimately move
   them.  Exit status 1 on any violation, with every violation listed. *)

module Json = Dce_campaign.Json

let enforced_bools =
  [
    "parity_ok";
    "meets_3x_bar";
    "meets_hit_rate_floor";
    "meets_1_5x_bar";
    "meets_scaling_bar";
    "report_identical";
    "outcomes_identical";
    "found_repair";
    "verified_clean";
  ]

(* key -> slack below the baseline that is still acceptable.  Ratios in
   [0,1] get absolute slack; timing-derived speedups get relative slack
   (40%), since their baselines were measured on a different machine.  The
   fabric's two-domain speedup runs the compile path on both cores of a
   2-vCPU runner, so its slack is sized to hold a floor of 1.1x under the
   1.76x baseline: below that, a second domain is barely worth spawning. *)
let numeric_tolerance path key =
  match key with
  | "speedup_2" when path = "domains.speedup_2" -> Some (`Rel 0.375)
  | "hit_rate" -> Some (`Abs 0.15)
  | "speedup_vs_uncached" | "sibling_reuse" | "speedup_2" | "speedup_4"
  | "dyn_vs_static_speedup" | "search_cache_speedup" ->
    Some (`Rel 0.4)
  | _ -> None

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let read_doc path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string (String.trim s) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: unparseable: %s" path e)

let as_float = function
  | Json.Float f -> Some f
  | Json.Int n -> Some (float_of_int n)
  | _ -> None

(* every (dotted-path, key, value) leaf of the document *)
let rec leaves prefix = function
  | Json.Obj fields ->
    List.concat_map
      (fun (k, v) ->
        let path = if prefix = "" then k else prefix ^ "." ^ k in
        match v with
        | Json.Obj _ | Json.List _ -> leaves path v
        | leaf -> [ (path, k, leaf) ])
      fields
  | Json.List items -> List.concat (List.mapi (fun i v -> leaves (Printf.sprintf "%s[%d]" prefix i) v) items)
  | _ -> []

let check_file name baseline fresh =
  let base_leaves = leaves "" baseline in
  let fresh_leaves = leaves "" fresh in
  let fresh_at path = List.find_opt (fun (p, _, _) -> p = path) fresh_leaves in
  List.iter
    (fun (path, key, bv) ->
      if List.mem key enforced_bools then begin
        match (bv, fresh_at path) with
        | _, None -> fail "%s: %s disappeared from the fresh run" name path
        | Json.Bool true, Some (_, _, Json.Bool true) -> ()
        | Json.Bool true, Some (_, _, fv) ->
          fail "%s: %s regressed from true to %s" name path (Json.to_string fv)
        | _, Some _ -> () (* a bar the baseline itself did not meet *)
      end
      else
        match numeric_tolerance path key with
        | None -> ()
        | Some tol -> (
          match (as_float bv, fresh_at path) with
          | None, _ -> ()
          | Some _, None -> fail "%s: %s disappeared from the fresh run" name path
          | Some b, Some (_, _, fv) -> (
            match as_float fv with
            | None ->
              fail "%s: %s is no longer numeric (%s)" name path (Json.to_string fv)
            | Some f ->
              let floor = match tol with `Abs a -> b -. a | `Rel r -> b *. (1.0 -. r) in
              if f < floor then
                fail "%s: %s fell from %.3f to %.3f (floor %.3f)" name path b f floor)))
    base_leaves

let () =
  let baseline_dir, fresh_dir =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
      prerr_endline "usage: gate.exe BASELINE_DIR FRESH_DIR";
      exit 2
  in
  let baselines =
    Sys.readdir baseline_dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if baselines = [] then begin
    Printf.eprintf "no BENCH_*.json baselines under %s\n" baseline_dir;
    exit 2
  end;
  List.iter
    (fun name ->
      let fresh_path = Filename.concat fresh_dir name in
      if not (Sys.file_exists fresh_path) then
        fail "%s: fresh run produced no such file" name
      else
        check_file name
          (read_doc (Filename.concat baseline_dir name))
          (read_doc fresh_path))
    baselines;
  match List.rev !failures with
  | [] ->
    Printf.printf "bench gate: %d baseline(s) checked, no regressions\n" (List.length baselines)
  | fs ->
    Printf.eprintf "bench gate: %d regression(s):\n" (List.length fs);
    List.iter (fun f -> Printf.eprintf "  %s\n" f) fs;
    exit 1
