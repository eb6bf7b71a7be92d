module C = Dce_compiler
module Core = Dce_core

type status = Confirmed | Fixed | Duplicate | Reported_only

type report = {
  r_compiler : string;
  r_level : C.Level.t;
  r_signature : string;
  r_component : string option;
  r_guilty_stage : string option;
  r_status : status;
  r_occurrences : int;
  r_example_program : int;
  r_example_marker : int;
}

(* bugs already known to the trackers: the uniform-constant-array fold was
   GCC #80603, previously reported by GCC's own developers (paper Listing 9f) *)
let known_bugs = [ ("gcc-sim", "uniform-arrays") ]

let status_name = function
  | Confirmed -> "confirmed"
  | Fixed -> "fixed"
  | Duplicate -> "duplicate"
  | Reported_only -> "reported"

let triage ~programs findings =
  (* cluster findings by (compiler, diagnosis signature); diagnose once per
     finding but reuse per-cluster results where possible *)
  let clusters : (string * string, Stats.finding list ref) Hashtbl.t = Hashtbl.create 32 in
  let diag_cache : (string * int * int, string * string option) Hashtbl.t =
    Hashtbl.create 64
  in
  let diagnose (f : Stats.finding) =
    let key = (f.Stats.f_compiler, f.Stats.f_program, f.Stats.f_marker) in
    match Hashtbl.find_opt diag_cache key with
    | Some r -> r
    | None ->
      let prog = programs.(f.Stats.f_program) in
      let d =
        Core.Diagnose.run
          (Core.Analysis.compiler_of_name f.Stats.f_compiler)
          f.Stats.f_level prog ~marker:f.Stats.f_marker
      in
      let r = (Core.Diagnose.signature d, d.Core.Diagnose.guilty_stage) in
      Hashtbl.replace diag_cache key r;
      r
  in
  List.iter
    (fun (f : Stats.finding) ->
      if f.Stats.f_primary then begin
        let signature, _guilty = diagnose f in
        let ckey = (f.Stats.f_compiler, signature) in
        match Hashtbl.find_opt clusters ckey with
        | Some r -> r := f :: !r
        | None -> Hashtbl.add clusters ckey (ref [ f ])
      end)
    findings;
  let component_of_signature signature =
    List.find_opt
      (fun (r : Core.Diagnose.repair) -> r.Core.Diagnose.repair_name = signature)
      Core.Diagnose.catalogue
    |> Option.map (fun (r : Core.Diagnose.repair) -> r.Core.Diagnose.repair_component)
  in
  Hashtbl.fold
    (fun (comp, signature) fs acc ->
      let fs = List.rev !fs in
      let example = List.hd fs in
      let _, guilty = diagnose example in
      let compiler = Core.Analysis.compiler_of_name comp in
      let full_version = List.length compiler.C.Compiler.history in
      let prog = programs.(example.Stats.f_program) in
      let fixed =
        not
          (List.mem example.Stats.f_marker
             (C.Compiler.observe (C.Compiler.session prog) compiler ~version:full_version
                example.Stats.f_level)
               .C.Compiler.obs_markers)
      in
      let status =
        if List.mem (comp, signature) known_bugs then Duplicate
        else if fixed then Fixed
        else if signature <> "unknown" then Confirmed
        else Reported_only
      in
      {
        r_compiler = comp;
        r_level = example.Stats.f_level;
        r_signature = signature;
        r_component = component_of_signature signature;
        r_guilty_stage = guilty;
        r_status = status;
        r_occurrences = List.length fs;
        r_example_program = example.Stats.f_program;
        r_example_marker = example.Stats.f_marker;
      }
      :: acc)
    clusters []
  |> List.sort compare

let table5 reports =
  let count comp pred = List.length (List.filter (fun r -> r.r_compiler = comp && pred r) reports) in
  let rows =
    [
      [
        "Reported";
        string_of_int (count "gcc-sim" (fun _ -> true));
        string_of_int (count "llvm-sim" (fun _ -> true));
      ];
      [
        "Confirmed";
        string_of_int (count "gcc-sim" (fun r -> r.r_status = Confirmed));
        string_of_int (count "llvm-sim" (fun r -> r.r_status = Confirmed));
      ];
      [
        "Marked Duplicate";
        string_of_int (count "gcc-sim" (fun r -> r.r_status = Duplicate));
        string_of_int (count "llvm-sim" (fun r -> r.r_status = Duplicate));
      ];
      [
        "Fixed";
        string_of_int (count "gcc-sim" (fun r -> r.r_status = Fixed));
        string_of_int (count "llvm-sim" (fun r -> r.r_status = Fixed));
      ];
    ]
  in
  Tables.render ~header:[ ""; "gcc-sim"; "llvm-sim" ] rows
