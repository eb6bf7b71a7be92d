module C = Dce_compiler
open Run_store

type size_delta = {
  sd_case : int;
  sd_compiler : string;
  sd_level : C.Level.t;
  sd_a : int;
  sd_b : int;
}

type verdict = {
  d_run_a : string;
  d_run_b : string;
  d_comparable : bool;
  d_new_misses : miss list;
  d_fixed_misses : miss list;
  d_new_inversions : inv_row list;
  d_fixed_inversions : inv_row list;
  d_size_deltas : size_delta list;
  d_new_rejected : int list;
  d_new_quarantined : int list;
}

let diff a b =
  let a = sort_report a and b = sort_report b in
  let not_in xs x = not (List.mem x xs) in
  let sizes_b =
    List.map (fun z -> ((z.z_case, z.z_compiler, z.z_level), z.z_size)) b.r_sizes
  in
  let size_deltas =
    List.filter_map
      (fun z ->
        match List.assoc_opt (z.z_case, z.z_compiler, z.z_level) sizes_b with
        | Some sb when sb <> z.z_size ->
          Some
            {
              sd_case = z.z_case;
              sd_compiler = z.z_compiler;
              sd_level = z.z_level;
              sd_a = z.z_size;
              sd_b = sb;
            }
        | _ -> None)
      a.r_sizes
  in
  {
    d_run_a = a.r_campaign;
    d_run_b = b.r_campaign;
    d_comparable = a.r_seed = b.r_seed && a.r_count = b.r_count;
    d_new_misses = List.filter (not_in a.r_misses) b.r_misses;
    d_fixed_misses = List.filter (not_in b.r_misses) a.r_misses;
    d_new_inversions = List.filter (not_in a.r_inversions) b.r_inversions;
    d_fixed_inversions = List.filter (not_in b.r_inversions) a.r_inversions;
    d_size_deltas = size_deltas;
    d_new_rejected = List.filter (not_in a.r_rejected) b.r_rejected;
    d_new_quarantined = List.filter (not_in a.r_quarantined) b.r_quarantined;
  }

(* A size increase is a regression only at -Os — size is the contract there;
   at other levels a (deliberate) threshold bump may legitimately trade size
   for elimination strength.  New misses and new inversions are regressions
   at every level, as is any newly quarantined case. *)
let size_regressions v =
  List.filter (fun d -> d.sd_level = C.Level.Os && d.sd_b > d.sd_a) v.d_size_deltas

let has_regressions v =
  (not v.d_comparable)
  || v.d_new_misses <> []
  || v.d_new_inversions <> []
  || size_regressions v <> []
  || v.d_new_quarantined <> []

let is_empty v =
  v.d_new_misses = [] && v.d_fixed_misses = []
  && v.d_new_inversions = [] && v.d_fixed_inversions = []
  && v.d_size_deltas = [] && v.d_new_rejected = [] && v.d_new_quarantined = []

(* ---------------- machine-readable verdict ---------------- *)

let miss_json m =
  Json.Obj
    [
      ("case", Json.Int m.m_case);
      ("compiler", Json.String m.m_compiler);
      ("level", Json.of_level m.m_level);
      ("marker", Json.Int m.m_marker);
    ]

let inv_json v =
  Json.Obj
    [
      ("case", Json.Int v.v_case);
      ("compiler", Json.String v.v_compiler);
      ("marker", Json.Int v.v_marker);
      ("low", Json.of_level v.v_low);
      ("high", Json.of_level v.v_high);
    ]

let size_delta_json d =
  Json.Obj
    [
      ("case", Json.Int d.sd_case);
      ("compiler", Json.String d.sd_compiler);
      ("level", Json.of_level d.sd_level);
      ("size_a", Json.Int d.sd_a);
      ("size_b", Json.Int d.sd_b);
    ]

let to_json ?(stage_deltas = []) v =
  let base =
    [
      ("run_a", Json.String v.d_run_a);
      ("run_b", Json.String v.d_run_b);
      ("comparable", Json.Bool v.d_comparable);
      ("clean", Json.Bool (not (has_regressions v)));
      ("identical", Json.Bool (is_empty v));
      ("new_misses", Json.List (List.map miss_json v.d_new_misses));
      ("fixed_misses", Json.List (List.map miss_json v.d_fixed_misses));
      ("new_inversions", Json.List (List.map inv_json v.d_new_inversions));
      ("fixed_inversions", Json.List (List.map inv_json v.d_fixed_inversions));
      ("size_deltas", Json.List (List.map size_delta_json v.d_size_deltas));
      ( "size_regressions",
        Json.List (List.map size_delta_json (size_regressions v)) );
      ("new_rejected", Json.List (List.map (fun i -> Json.Int i) v.d_new_rejected));
      ("new_quarantined", Json.List (List.map (fun i -> Json.Int i) v.d_new_quarantined));
    ]
  in
  let timings =
    match stage_deltas with
    | [] -> []
    | ds ->
      [
        ( "stage_deltas",
          Json.List
            (List.map
               (fun (stage, ta, tb) ->
                 Json.Obj
                   [
                     ("stage", Json.String stage);
                     ("total_a", Json.Float ta);
                     ("total_b", Json.Float tb);
                   ])
               ds) );
      ]
  in
  Json.Obj (base @ timings)

(* ---------------- timing deltas ---------------- *)

(* Pair two runs' per-stage totals by stage name (union of both, run-A order
   first).  Purely informational: never part of the regression verdict. *)
let stage_deltas totals_a totals_b =
  let stages =
    List.fold_left
      (fun acc (s, _) -> if List.mem s acc then acc else acc @ [ s ])
      (List.map fst totals_a) totals_b
  in
  List.map
    (fun s ->
      ( s,
        Option.value ~default:0. (List.assoc_opt s totals_a),
        Option.value ~default:0. (List.assoc_opt s totals_b) ))
    stages

(* ---------------- rendered tables ---------------- *)

let render ?(stage_deltas = []) v =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "campaign-diff: %s (A) vs %s (B)\n" v.d_run_a v.d_run_b;
  if not v.d_comparable then
    add "  WARNING: runs cover different corpora (seed/count mismatch) — not comparable\n";
  let miss_table label ms =
    if ms <> [] then begin
      add "%s (%d):\n" label (List.length ms);
      List.iter
        (fun m ->
          add "  case %-4d %-24s %-4s marker %d\n" m.m_case m.m_compiler
            (C.Level.to_string m.m_level) m.m_marker)
        ms
    end
  in
  let inv_table label vs =
    if vs <> [] then begin
      add "%s (%d):\n" label (List.length vs);
      List.iter
        (fun iv ->
          add "  case %-4d %-24s marker %-4d dead at %s, kept at %s\n" iv.v_case iv.v_compiler
            iv.v_marker (C.Level.to_string iv.v_low) (C.Level.to_string iv.v_high))
        vs
    end
  in
  miss_table "new misses (in B, not in A)" v.d_new_misses;
  miss_table "fixed misses (in A, not in B)" v.d_fixed_misses;
  inv_table "new level inversions" v.d_new_inversions;
  inv_table "fixed level inversions" v.d_fixed_inversions;
  if v.d_size_deltas <> [] then begin
    add "size deltas (%d):\n" (List.length v.d_size_deltas);
    List.iter
      (fun d ->
        add "  case %-4d %-24s %-4s %d -> %d (%+d)%s\n" d.sd_case d.sd_compiler
          (C.Level.to_string d.sd_level) d.sd_a d.sd_b (d.sd_b - d.sd_a)
          (if d.sd_level = C.Level.Os && d.sd_b > d.sd_a then "  REGRESSION" else ""))
      v.d_size_deltas
  end;
  if v.d_new_rejected <> [] then
    add "newly rejected cases: %s\n"
      (String.concat "," (List.map string_of_int v.d_new_rejected));
  if v.d_new_quarantined <> [] then
    add "newly quarantined cases: %s\n"
      (String.concat "," (List.map string_of_int v.d_new_quarantined));
  if stage_deltas <> [] then begin
    add "%-20s %10s %10s %10s\n" "stage timing" "A total" "B total" "delta";
    List.iter
      (fun (stage, ta, tb) ->
        add "%-20s %9.3fs %9.3fs %+9.3fs\n" stage ta tb (tb -. ta))
      stage_deltas
  end;
  if is_empty v then add "runs are identical: empty diff\n"
  else
    add "verdict: %s\n"
      (if has_regressions v then "REGRESSIONS (see above)" else "clean (no regressions)");
  Buffer.contents buf
