module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir

type config_totals = {
  ct_compiler : string;
  ct_level : C.Level.t;
  ct_missed : int;
  ct_primary : int;
}

type diff_pair = {
  left : string;
  right : string;
  only_left_misses : int;
  only_left_primary : int;
}

type finding = {
  f_program : int;
  f_marker : int;
  f_compiler : string;
  f_level : C.Level.t;
  f_witness : string;
  f_primary : bool;
}

type pass_totals = {
  pt_compiler : string;
  pt_level : C.Level.t;
  pt_stage : string;
  pt_markers : int;
}

type t = {
  programs : int;
  rejected : int;
  total_markers : int;
  alive_markers : int;
  dead_markers : int;
  per_config : config_totals list;
  per_pass : pass_totals list;
  cross_compiler : diff_pair list;
  level_regressions : diff_pair list;
  findings : finding list;
  regression_findings : finding list;
}

let config_name c l = Printf.sprintf "%s %s" c (C.Level.to_string l)

(* collect's deterministic output orderings *)
let sort_per_config l =
  List.sort
    (fun a b ->
      compare
        (a.ct_compiler, C.Level.compare_strength a.ct_level b.ct_level)
        (b.ct_compiler, 0))
    l

let sort_per_pass l =
  List.sort
    (fun a b ->
      compare
        (a.pt_compiler, C.Level.to_string a.pt_level, -a.pt_markers, a.pt_stage)
        (b.pt_compiler, C.Level.to_string b.pt_level, -b.pt_markers, b.pt_stage))
    l

let collect_indexed outcomes =
  let programs = List.length outcomes in
  let rejected = ref 0 in
  let total_markers = ref 0 in
  let alive_markers = ref 0 in
  let dead_markers = ref 0 in
  let per_config : (string * C.Level.t, int * int) Hashtbl.t = Hashtbl.create 16 in
  let per_pass : (string * C.Level.t * string, int) Hashtbl.t = Hashtbl.create 64 in
  let cross : (string * string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let level_reg : (string * string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let findings = ref [] in
  let regression_findings = ref [] in
  let add tbl key (m, p) =
    let m0, p0 = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (m0 + m, p0 + p)
  in
  List.iter
    (fun (idx, (outcome, _raw)) ->
      match outcome with
      | Core.Analysis.Rejected _ -> incr rejected
      | Core.Analysis.Analyzed a ->
        let truth = a.Core.Analysis.truth in
        total_markers := !total_markers + Ir.Iset.cardinal truth.Core.Ground_truth.all;
        alive_markers := !alive_markers + Ir.Iset.cardinal truth.Core.Ground_truth.alive;
        dead_markers := !dead_markers + Ir.Iset.cardinal truth.Core.Ground_truth.dead;
        List.iter
          (fun pc ->
            add per_config
              (pc.Core.Analysis.cfg_compiler, pc.Core.Analysis.cfg_level)
              ( Ir.Iset.cardinal pc.Core.Analysis.missed,
                Ir.Iset.cardinal pc.Core.Analysis.primary_missed );
            (* which pass eliminated how many markers, from the stage trace *)
            List.iter
              (fun (stage, markers) ->
                let key =
                  (pc.Core.Analysis.cfg_compiler, pc.Core.Analysis.cfg_level, stage)
                in
                let n = Option.value ~default:0 (Hashtbl.find_opt per_pass key) in
                Hashtbl.replace per_pass key (n + List.length markers))
              (C.Passmgr.attribution pc.Core.Analysis.cfg_trace))
          a.Core.Analysis.configs;
        (* cross-compiler differential at -O3 *)
        let find name level = Core.Analysis.find_config a name level in
        (match (find "gcc-sim" C.Level.O3, find "llvm-sim" C.Level.O3) with
         | Some gcc, Some llvm ->
           let record (loser : Core.Analysis.per_config) (winner : Core.Analysis.per_config) =
             let only =
               Ir.Iset.diff loser.Core.Analysis.missed winner.Core.Analysis.missed
             in
             let only_primary = Ir.Iset.inter only loser.Core.Analysis.primary_missed in
             add cross
               ( config_name loser.Core.Analysis.cfg_compiler loser.Core.Analysis.cfg_level,
                 config_name winner.Core.Analysis.cfg_compiler winner.Core.Analysis.cfg_level )
               (Ir.Iset.cardinal only, Ir.Iset.cardinal only_primary);
             Ir.Iset.iter
               (fun m ->
                 findings :=
                   {
                     f_program = idx;
                     f_marker = m;
                     f_compiler = loser.Core.Analysis.cfg_compiler;
                     f_level = loser.Core.Analysis.cfg_level;
                     f_witness =
                       config_name winner.Core.Analysis.cfg_compiler
                         winner.Core.Analysis.cfg_level;
                     f_primary = Ir.Iset.mem m loser.Core.Analysis.primary_missed;
                   }
                   :: !findings)
               only
           in
           record gcc llvm;
           record llvm gcc
         | _ -> ());
        (* level regressions: missed at -O3, eliminated at -O1 or -O2 *)
        List.iter
          (fun comp ->
            match (find comp C.Level.O3, find comp C.Level.O1, find comp C.Level.O2) with
            | Some o3, Some o1, Some o2 ->
              let caught_lower =
                Ir.Iset.union
                  (Ir.Iset.diff o3.Core.Analysis.missed o1.Core.Analysis.missed)
                  (Ir.Iset.diff o3.Core.Analysis.missed o2.Core.Analysis.missed)
              in
              let prim = Ir.Iset.inter caught_lower o3.Core.Analysis.primary_missed in
              add level_reg
                (config_name comp C.Level.O3, comp ^ " -O1/-O2")
                (Ir.Iset.cardinal caught_lower, Ir.Iset.cardinal prim);
              Ir.Iset.iter
                (fun m ->
                  regression_findings :=
                    {
                      f_program = idx;
                      f_marker = m;
                      f_compiler = comp;
                      f_level = C.Level.O3;
                      f_witness = comp ^ " -O1/-O2";
                      f_primary = Ir.Iset.mem m prim;
                    }
                    :: !regression_findings)
                caught_lower
            | _ -> ())
          [ "gcc-sim"; "llvm-sim" ])
    outcomes;
  let per_config =
    Hashtbl.fold
      (fun (c, l) (m, p) acc ->
        { ct_compiler = c; ct_level = l; ct_missed = m; ct_primary = p } :: acc)
      per_config []
    |> sort_per_config
  in
  let per_pass =
    Hashtbl.fold
      (fun (c, l, s) n acc ->
        { pt_compiler = c; pt_level = l; pt_stage = s; pt_markers = n } :: acc)
      per_pass []
    |> sort_per_pass
  in
  let pairs tbl =
    Hashtbl.fold
      (fun (l, r) (m, p) acc ->
        { left = l; right = r; only_left_misses = m; only_left_primary = p } :: acc)
      tbl []
    |> List.sort compare
  in
  {
    programs;
    rejected = !rejected;
    total_markers = !total_markers;
    alive_markers = !alive_markers;
    dead_markers = !dead_markers;
    per_config;
    per_pass;
    cross_compiler = pairs cross;
    level_regressions = pairs level_reg;
    findings = List.rev !findings;
    regression_findings = List.rev !regression_findings;
  }

let collect outcomes = collect_indexed (List.mapi (fun i o -> (i, o)) outcomes)

let totals_for t comp level =
  List.find_opt (fun ct -> ct.ct_compiler = comp && ct.ct_level = level) t.per_config

let level_table t ~value =
  let rows =
    List.map
      (fun level ->
        let cell comp =
          match totals_for t comp level with
          | Some ct -> Tables.pct (value ct) t.dead_markers
          | None -> "-"
        in
        [ C.Level.to_string level; cell "gcc-sim"; cell "llvm-sim" ])
      C.Level.all
  in
  Tables.render ~header:[ "Level"; "gcc-sim"; "llvm-sim" ] rows

let table1 t = level_table t ~value:(fun ct -> ct.ct_missed)
let table2 t = level_table t ~value:(fun ct -> ct.ct_primary)

let prevalence t =
  Printf.sprintf
    "%d programs analyzed (%d rejected). %d instrumented markers: %s dead, %s alive."
    t.programs t.rejected t.total_markers
    (Tables.pct t.dead_markers t.total_markers)
    (Tables.pct t.alive_markers t.total_markers)

let attribution_table ?(level = C.Level.O3) t =
  let stages =
    List.sort_uniq compare
      (List.filter_map
         (fun pt -> if pt.pt_level = level then Some pt.pt_stage else None)
         t.per_pass)
  in
  let count comp stage =
    match
      List.find_opt
        (fun pt -> pt.pt_compiler = comp && pt.pt_level = level && pt.pt_stage = stage)
        t.per_pass
    with
    | Some pt -> string_of_int pt.pt_markers
    | None -> "0"
  in
  let total = function
    | [ _; g; l ] -> int_of_string g + int_of_string l
    | _ -> 0
  in
  let rows =
    (* most productive stage first, by the combined count *)
    List.map (fun s -> [ s; count "gcc-sim" s; count "llvm-sim" s ]) stages
    |> List.sort (fun a b -> compare (total b, a) (total a, b))
  in
  Tables.render
    ~header:[ Printf.sprintf "Stage (%s)" (C.Level.to_string level); "gcc-sim"; "llvm-sim" ]
    rows

let differential_summary t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Cross-compiler differential at -O3 (markers only one side eliminates):\n";
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %s misses %d markers that %s eliminates (%d primary)\n" d.left
           d.only_left_misses d.right d.only_left_primary))
    t.cross_compiler;
  Buffer.add_string buf "Level differential (missed at -O3, eliminated at -O1/-O2):\n";
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %s misses %d markers caught at lower levels (%d primary)\n" d.left
           d.only_left_misses d.only_left_primary))
    t.level_regressions;
  Buffer.contents buf
