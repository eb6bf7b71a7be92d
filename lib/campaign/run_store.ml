module C = Dce_compiler
module Iset = Dce_ir.Ir.Iset

(* ------------------------------------------------------------------ *)
(* stable run ids                                                      *)
(* ------------------------------------------------------------------ *)

(* A run id is a pure function of the campaign parameters — no timestamps,
   no pids — so the same campaign always lands in the same directory and a
   repair search is byte-identical across --jobs/--workers settings.  The
   hash is djb2 over the parameter string, wider than the commit-id hash
   (60 bits) because ids are directory names, not table keys. *)
let run_id ~campaign ~seed ~count extras =
  let key = String.concat "\x00" (campaign :: string_of_int seed :: string_of_int count :: extras) in
  let h = ref 5381 in
  String.iter
    (fun ch -> h := ((!h lsl 5) + !h + Char.code ch) land 0xFFFFFFFFFFFFFFF)
    key;
  Printf.sprintf "run-%015x" !h

(* both read the settings as requested — [checked] without the chaos rule,
   the chaos spec as written — so ids and metadata never drift *)
let chaos_spec (s : Settings.t) = Option.map (fun c -> c.Settings.spec) s.chaos

let campaign_run_id ~campaign ~seed ~count (s : Settings.t) =
  run_id ~campaign ~seed ~count
    ((if s.checked then [ "checked" ] else [])
    @ match chaos_spec s with Some c -> [ "chaos:" ^ c ] | None -> [])

let meta ~campaign ~seed ~count (s : Settings.t) =
  Json.Obj
    [
      ("campaign", Json.String campaign);
      ("seed", Json.Int seed);
      ("count", Json.Int count);
      ("checked", Json.Bool s.checked);
      ("chaos", match chaos_spec s with Some c -> Json.String c | None -> Json.Null);
    ]

(* ------------------------------------------------------------------ *)
(* the cross-run report: what campaign-diff compares table by table    *)
(* ------------------------------------------------------------------ *)

type miss = { m_case : int; m_compiler : string; m_level : C.Level.t; m_marker : int }

type size_row = { z_case : int; z_compiler : string; z_level : C.Level.t; z_size : int }

type inv_row = {
  v_case : int;
  v_compiler : string;
  v_marker : int;
  v_low : C.Level.t;
  v_high : C.Level.t;
}

type report = {
  r_campaign : string;
  r_seed : int;
  r_count : int;
  r_compilers : string list;
  r_misses : miss list;
  r_sizes : size_row list;
  r_inversions : inv_row list;
  r_rejected : int list;
  r_quarantined : int list;
}

let level_rank l = C.Level.rank l

let sort_report r =
  {
    r with
    r_misses =
      List.sort
        (fun a b ->
          compare
            (a.m_case, a.m_compiler, level_rank a.m_level, a.m_marker)
            (b.m_case, b.m_compiler, level_rank b.m_level, b.m_marker))
        r.r_misses;
    r_sizes =
      List.sort
        (fun a b ->
          compare
            (a.z_case, a.z_compiler, level_rank a.z_level)
            (b.z_case, b.z_compiler, level_rank b.z_level))
        r.r_sizes;
    r_inversions =
      List.sort
        (fun a b ->
          compare (a.v_case, a.v_compiler, a.v_marker) (b.v_case, b.v_compiler, b.v_marker))
        r.r_inversions;
    r_rejected = List.sort_uniq compare r.r_rejected;
    r_quarantined = List.sort_uniq compare r.r_quarantined;
  }

(* The union of a compiler's missed sets stands in for the dead set: a dead
   marker missed at no level has no keeping level, so it is no inversion
   either way. *)
let case_rows case missed =
  let misses =
    List.concat_map
      (fun (compiler, level, set) ->
        List.map
          (fun m -> { m_case = case; m_compiler = compiler; m_level = level; m_marker = m })
          (Iset.elements set))
      missed
  in
  let inversions (compiler, configs) =
    let per_level = List.map (fun (_, l, s) -> (l, s)) configs in
    let dead = List.fold_left (fun acc (_, s) -> Iset.union acc s) Iset.empty per_level in
    List.map
      (fun (iv : Dce_core.Differential.inversion) ->
        {
          v_case = case;
          v_compiler = compiler;
          v_marker = iv.iv_marker;
          v_low = iv.iv_low;
          v_high = iv.iv_high;
        })
      (Dce_core.Differential.inversions ~dead per_level)
  in
  (misses, List.concat_map inversions (Dce_support.Listx.group_by (fun (c, _, _) -> c) missed))

let seeded_report ~campaign ~seed ~rejected ~sizes ~inversions (t : _ Engine.seeded) =
  sort_report
    {
      r_campaign = campaign;
      r_seed = seed;
      r_count = Array.length t.result.outcomes;
      r_compilers =
        List.map (fun (c : Dce_compiler.Compiler.t) -> c.name) Dce_core.Analysis.default_compilers;
      r_misses = [];
      r_sizes = sizes;
      r_inversions = inversions;
      r_rejected =
        List.concat
          (List.mapi
             (fun i -> function Engine.Done x when rejected x -> [ i ] | _ -> [])
             (Array.to_list t.result.outcomes));
      r_quarantined = List.map (fun (q : Engine.quarantined) -> q.q_case) t.result.quarantine;
    }

(* ---------------- JSON codec ---------------- *)

let report_to_json r =
  let miss m =
    Json.Obj
      [
        ("case", Json.Int m.m_case);
        ("compiler", Json.String m.m_compiler);
        ("level", Json.of_level m.m_level);
        ("marker", Json.Int m.m_marker);
      ]
  in
  let size z =
    Json.Obj
      [
        ("case", Json.Int z.z_case);
        ("compiler", Json.String z.z_compiler);
        ("level", Json.of_level z.z_level);
        ("size", Json.Int z.z_size);
      ]
  in
  let inv v =
    Json.Obj
      [
        ("case", Json.Int v.v_case);
        ("compiler", Json.String v.v_compiler);
        ("marker", Json.Int v.v_marker);
        ("low", Json.of_level v.v_low);
        ("high", Json.of_level v.v_high);
      ]
  in
  Json.Obj
    [
      ("campaign", Json.String r.r_campaign);
      ("seed", Json.Int r.r_seed);
      ("count", Json.Int r.r_count);
      ("compilers", Json.List (List.map (fun n -> Json.String n) r.r_compilers));
      ("misses", Json.List (List.map miss r.r_misses));
      ("sizes", Json.List (List.map size r.r_sizes));
      ("inversions", Json.List (List.map inv r.r_inversions));
      ("rejected", Json.List (List.map (fun i -> Json.Int i) r.r_rejected));
      ("quarantined", Json.List (List.map (fun i -> Json.Int i) r.r_quarantined));
    ]

let report_of_json j =
  let miss m =
    {
      m_case = Json.get_int m "case";
      m_compiler = Json.get_str m "compiler";
      m_level = Json.level_exn (Json.get m "level");
      m_marker = Json.get_int m "marker";
    }
  in
  let size z =
    {
      z_case = Json.get_int z "case";
      z_compiler = Json.get_str z "compiler";
      z_level = Json.level_exn (Json.get z "level");
      z_size = Json.get_int z "size";
    }
  in
  let inv v =
    {
      v_case = Json.get_int v "case";
      v_compiler = Json.get_str v "compiler";
      v_marker = Json.get_int v "marker";
      v_low = Json.level_exn (Json.get v "low");
      v_high = Json.level_exn (Json.get v "high");
    }
  in
  let str_exn v =
    match Json.to_str v with
    | Some s -> s
    | None -> failwith "run report: expected a string"
  in
  {
    r_campaign = Json.get_str j "campaign";
    r_seed = Json.get_int j "seed";
    r_count = Json.get_int j "count";
    r_compilers = List.map str_exn (Json.get_list j "compilers");
    r_misses = List.map miss (Json.get_list j "misses");
    r_sizes = List.map size (Json.get_list j "sizes");
    r_inversions = List.map inv (Json.get_list j "inversions");
    r_rejected = List.map Json.int_exn (Json.get_list j "rejected");
    r_quarantined = List.map Json.int_exn (Json.get_list j "quarantined");
  }

(* ------------------------------------------------------------------ *)
(* the artifact directory                                              *)
(* ------------------------------------------------------------------ *)

(* Atomic replacement (temp + fsync + rename): a crash mid-write — the
   daemon SIGKILLed between a campaign finishing and its artifacts landing —
   can never leave a torn report.json behind for campaign-diff to choke on. *)
let write_file path content = Dce_support.Fsx.write_atomic path content

let dir_of ~root ~id = Filename.concat root id

let journal_path dir = Filename.concat dir "journal.jsonl"

let write ?report_text ~root ~id ~meta ~metrics report =
  let dir = dir_of ~root ~id in
  Dce_support.Fsx.mkdir_p dir;
  let report = sort_report report in
  write_file (Filename.concat dir "meta.json") (Json.to_string meta ^ "\n");
  write_file (Filename.concat dir "report.json") (Json.to_string (report_to_json report) ^ "\n");
  write_file (Filename.concat dir "metrics.json")
    (Json.to_string (Metrics.summary_to_json metrics) ^ "\n");
  (match report_text with
   | Some text -> write_file (Filename.concat dir "report.txt") text
   | None -> ());
  dir

let persist ~report_text ~root settings ~metrics r =
  let campaign = r.r_campaign and seed = r.r_seed and count = r.r_count in
  write ~report_text ~root
    ~id:(campaign_run_id ~campaign ~seed ~count settings)
    ~meta:(meta ~campaign ~seed ~count settings) ~metrics r

let load_json path =
  match Json.of_string (String.trim (Dce_support.Fsx.read_file path)) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: unparseable: %s" path e)

let load_report dir =
  let path = Filename.concat dir "report.json" in
  if not (Sys.file_exists path) then
    failwith (Printf.sprintf "%s: no report.json — not a run directory?" dir);
  report_of_json (load_json path)

(* ------------------------------------------------------------------ *)
(* enumeration and garbage collection of the artifact root             *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_id : string;
  e_dir : string;
  e_campaign : string;
  e_seed : int;
  e_count : int;
  e_mtime : float;
  e_cases : int;
}

(* journal progress = record lines past the header; 0 when absent/empty *)
let journal_cases dir =
  let path = journal_path dir in
  match Dce_support.Fsx.read_file path with
  | exception Sys_error _ -> 0
  | s ->
    let lines = ref 0 in
    String.iter (fun c -> if c = '\n' then incr lines) s;
    max 0 (!lines - 1)

let load_entry ~root id =
  let dir = dir_of ~root ~id in
  if not (try Sys.is_directory dir with Sys_error _ -> false) then None
  else
    let mtime = try (Unix.stat dir).Unix.st_mtime with Unix.Unix_error _ -> 0. in
    let campaign, seed, count =
      match load_json (Filename.concat dir "meta.json") with
      | exception _ -> ("?", 0, 0)
      | meta ->
        ( Option.value ~default:"?" (Option.bind (Json.member "campaign" meta) Json.to_str),
          Option.value ~default:0 (Option.bind (Json.member "seed" meta) Json.to_int),
          Option.value ~default:0 (Option.bind (Json.member "count" meta) Json.to_int) )
    in
    Some
      {
        e_id = id;
        e_dir = dir;
        e_campaign = campaign;
        e_seed = seed;
        e_count = count;
        e_mtime = mtime;
        e_cases = journal_cases dir;
      }

let list_runs ~root =
  let ids =
    match Sys.readdir root with
    | exception Sys_error _ -> [||]
    | entries -> entries
  in
  Array.to_list ids
  |> List.filter (fun id -> String.length id > 4 && String.sub id 0 4 = "run-")
  |> List.filter_map (load_entry ~root)
  |> List.sort (fun a b ->
         (* newest first; id as a stable tie-break so listings don't flap
            when two runs share a second *)
         compare (b.e_mtime, a.e_id) (a.e_mtime, b.e_id))

let gc ?(dry_run = false) ?keep_last ?older_than ~root () =
  let now = Unix.time () in
  let runs = list_runs ~root in
  let protected i =
    match keep_last with
    | Some n -> i < n
    | None -> false
  in
  let too_old e =
    match older_than with
    | Some age -> now -. e.e_mtime > age
    | None -> keep_last <> None
    (* with only --keep-last, everything beyond the protected prefix goes *)
  in
  let victims =
    List.filteri (fun i e -> (not (protected i)) && too_old e) runs
  in
  if not dry_run then
    List.iter (fun e -> Dce_support.Fsx.rm_rf e.e_dir) victims;
  List.map (fun e -> e.e_id) victims

(* the per-stage wall totals of a run's metrics.json, for the diff's
   timing-delta table; [] when the file is missing or unreadable — timing
   is a measurement, never a verdict input *)
let load_stage_totals dir =
  let path = Filename.concat dir "metrics.json" in
  if not (Sys.file_exists path) then []
  else
    match load_json path with
    | exception _ -> []
    | j -> (
      match Json.member "stages" j with
      | Some (Json.List stages) ->
        List.filter_map
          (fun st ->
            match (Json.member "stage" st, Json.member "total" st) with
            | Some (Json.String name), Some (Json.Float t) -> Some (name, t)
            | Some (Json.String name), Some (Json.Int t) -> Some (name, float_of_int t)
            | _ -> None)
          stages
      | _ -> [])
