module Ir = Dce_ir.Ir
module C = Dce_compiler

type per_config = {
  cfg_compiler : string;
  cfg_level : C.Level.t;
  surviving : Ir.Iset.t;
  missed : Ir.Iset.t;
  primary_missed : Ir.Iset.t;
  cfg_trace : C.Passmgr.trace;
}

type t = {
  instrumented : Dce_minic.Ast.program;
  truth : Ground_truth.t;
  graph : Primary.t;
  configs : per_config list;
}

type outcome = Analyzed of t | Rejected of string

type phase_hook = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let default_hook = { wrap = (fun _name f -> f ()) }
let default_compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let compiler_of_name name =
  match List.find_opt (fun (c : C.Compiler.t) -> c.C.Compiler.name = name) default_compilers with
  | Some c -> c
  | None -> failwith (Printf.sprintf "unknown compiler %S" name)

let run ?(checked = false) ?(hook = default_hook) prog =
  let instrumented = hook.wrap "instrument" (fun () -> Instrument.program prog) in
  match
    hook.wrap "ground-truth" (fun () -> Ground_truth.compute instrumented)
  with
  | Ground_truth.Rejected reason -> Rejected reason
  | Ground_truth.Valid truth ->
    (* one session: its lowering feeds the primary graph and every config,
       and the configs share its stage memo, so a stage runs in the first
       config's "differential" phase that needs it (a fault there keeps its
       historical stage) and later configs replay it *)
    let session = C.Compiler.session ~validate:checked instrumented in
    let graph =
      hook.wrap "primary-graph" (fun () ->
          Primary.build ~live_blocks:truth.Ground_truth.live_blocks (C.Compiler.lowered session))
    in
    (* a config whose optimized program is physically one an earlier
       config produced (the stage memo replayed the same stages) has that
       config's surviving markers: no codegen, no assembly scan *)
    let scanned = ref [] in
    let markers_in ir =
      match List.assq_opt ir !scanned with
      | Some surviving -> surviving
      | None ->
        let surviving = Differential.markers_in ir in
        scanned := (ir, surviving) :: !scanned;
        surviving
    in
    let configs =
      List.concat_map
        (fun compiler ->
          List.map
            (fun level ->
              let surviving, cfg_trace =
                hook.wrap "differential" (fun () ->
                    let ir, trace = C.Compiler.run session compiler level in
                    (markers_in ir, trace))
              in
              let missed = Differential.missed ~surviving ~dead:truth.Ground_truth.dead in
              let primary_missed =
                Primary.primary_missed graph ~alive:truth.Ground_truth.alive ~missed
              in
              {
                cfg_compiler = compiler.C.Compiler.name;
                cfg_level = level;
                surviving;
                missed;
                primary_missed;
                cfg_trace;
              })
            C.Level.all)
        default_compilers
    in
    Analyzed { instrumented; truth; graph; configs }

let find_config t name level =
  List.find_opt (fun c -> c.cfg_compiler = name && c.cfg_level = level) t.configs

let soundness_violations t =
  List.concat_map
    (fun c ->
      let eliminated = Ir.Iset.diff t.truth.Ground_truth.all c.surviving in
      let bad = Ir.Iset.inter eliminated t.truth.Ground_truth.alive in
      List.map (fun m -> (c.cfg_compiler, c.cfg_level, m)) (Ir.Iset.elements bad))
    t.configs
