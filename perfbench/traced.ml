(* The traced runs: the same public calls the campaign makes, each wrapped in
   a span from the benchmark's side.  Nothing here changes what is computed —
   every traced outcome is compared with the untraced run's. *)

module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Smith = Dce_smith.Smith
module Campaign = Dce_campaign
module Json = Campaign.Json

(* The Passmgr stage labels the default pipelines can execute. *)
let pass_labels =
  [
    "simplify-cfg"; "ssa"; "function-dce-early"; "ipa-cp"; "inline"; "inline-cleanup"; "sccp";
    "memcp"; "gvn"; "vrp"; "peephole"; "jump-thread"; "dce"; "loop-promote"; "vectorize";
    "unroll"; "unswitch"; "dse"; "function-dce";
  ]

(* Layers whose spans tile a traced hunt case; everything else the traced
   wall holds is the unaccounted rest. *)
let hunt_layers =
  [
    "smith.generate"; "instrument"; "ground_truth"; "lower"; "primary.build"; "pipeline";
    "codegen"; "asm.scan"; "primary.missed"; "report";
  ]

let resume_layers =
  [ "journal.load"; "smith.generate"; "instrument"; "lower"; "primary.build"; "primary.missed"; "report" ]

let triage_layers = [ "bisect"; "reduce" ]

let iset_of_list l = List.fold_left (fun s n -> Ir.Iset.add n s) Ir.Iset.empty l

let record_trace acc (trace : C.Passmgr.trace) =
  List.iter
    (fun (sr : C.Passmgr.stage_record) ->
      let k = "pass." ^ sr.C.Passmgr.sr_label in
      Span.add_time acc k sr.C.Passmgr.sr_time;
      Span.add_count acc (k ^ ".runs") 1;
      if sr.C.Passmgr.sr_changed then Span.add_count acc (k ^ ".changed") 1)
    trace

let generate acc seed =
  Span.span acc "smith.generate" (fun () -> fst (Smith.generate (Smith.default_config seed)))

let lower acc prog =
  Span.add_count acc "lower.calls" 1;
  Span.span acc "lower" (fun () -> Dce_ir.Lower.program prog)

(* The ground-truth executor split into bytecode compile and VM run.  It
   re-executes what Ground_truth.compute just did, so its wall time is
   booked under "side" and kept out of the traced wall. *)
let exec_split acc instrumented (truth : Core.Ground_truth.t) =
  let t0 = Span.now () in
  let ir = Dce_ir.Lower.program instrumented in
  let cprog = Span.span acc "exec.compile" (fun () -> Dce_exec.Bc_compile.program ir) in
  let res = Span.span acc "exec.run" (fun () -> Dce_exec.Bc_vm.run cprog) in
  Span.add_count acc "exec.steps" res.Dce_interp.Interp.steps;
  if res.Dce_interp.Interp.steps <> truth.Core.Ground_truth.steps then
    Span.add_count acc "mismatch" 1;
  Span.add_time acc "side" (Span.since t0)

(* Analysis.run's steps, in its order: instrument, ground truth, the primary
   graph, then per configuration features -> lower -> pipeline -> codegen ->
   assembly scan -> primary filter. *)
let analyze ~split acc raw =
  let instrumented = Span.span acc "instrument" (fun () -> Core.Instrument.program raw) in
  Span.add_count acc "instrument.markers" (Core.Instrument.marker_count instrumented);
  match Span.span acc "ground_truth" (fun () -> Core.Ground_truth.compute instrumented) with
  | Core.Ground_truth.Rejected reason -> Core.Analysis.Rejected reason
  | Core.Ground_truth.Valid truth ->
    if split then exec_split acc instrumented truth;
    let ir = lower acc instrumented in
    let graph =
      Span.span acc "primary.build" (fun () ->
          Core.Primary.build ~live_blocks:truth.Core.Ground_truth.live_blocks ir)
    in
    let config compiler level =
      let feats = Span.span acc "pipeline" (fun () -> C.Compiler.features compiler level) in
      let ir = lower acc instrumented in
      let opt, trace = Span.span acc "pipeline" (fun () -> C.Pipeline.run_traced feats ir) in
      record_trace acc trace;
      let asm = Span.span acc "codegen" (fun () -> Dce_backend.Codegen.program opt) in
      let surviving =
        Span.span acc "asm.scan" (fun () -> iset_of_list (Dce_backend.Asm.surviving_markers asm))
      in
      let missed = Core.Differential.missed ~surviving ~dead:truth.Core.Ground_truth.dead in
      let primary_missed =
        Span.span acc "primary.missed" (fun () ->
            Core.Primary.primary_missed graph ~alive:truth.Core.Ground_truth.alive ~missed)
      in
      {
        Core.Analysis.cfg_compiler = compiler.C.Compiler.name;
        cfg_level = level;
        surviving;
        missed;
        primary_missed;
        cfg_trace = trace;
      }
    in
    let configs =
      List.concat_map
        (fun compiler -> List.map (config compiler) C.Level.all)
        [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]
    in
    Core.Analysis.Analyzed { Core.Analysis.instrumented; truth; graph; configs }

let same_outcome (a : Core.Analysis.outcome) (b : Core.Analysis.outcome) =
  match (a, b) with
  | Core.Analysis.Rejected x, Core.Analysis.Rejected y -> x = y
  | Core.Analysis.Analyzed x, Core.Analysis.Analyzed y ->
    let same (p : Core.Analysis.per_config) (q : Core.Analysis.per_config) =
      p.Core.Analysis.cfg_compiler = q.Core.Analysis.cfg_compiler
      && p.Core.Analysis.cfg_level = q.Core.Analysis.cfg_level
      && Ir.Iset.equal p.Core.Analysis.surviving q.Core.Analysis.surviving
      && Ir.Iset.equal p.Core.Analysis.missed q.Core.Analysis.missed
      && Ir.Iset.equal p.Core.Analysis.primary_missed q.Core.Analysis.primary_missed
    in
    List.length x.Core.Analysis.configs = List.length y.Core.Analysis.configs
    && List.for_all2 same x.Core.Analysis.configs y.Core.Analysis.configs
  | _ -> false

(* A corpus value built from traced outcomes, so the report goes through the
   same Corpus.report / report_text calls as an untraced run. *)
let corpus ~seed ~jobs seeds cases : Campaign.Corpus.t =
  let count = Array.length seeds in
  {
    Campaign.Corpus.c_seed = seed;
    c_count = count;
    c_jobs = jobs;
    c_seeds = seeds;
    c_cases = Array.map (fun (o, raw) -> Campaign.Corpus.Case (o, raw)) cases;
    c_quarantine = [];
    c_metrics =
      Campaign.Metrics.summarize ~cases:count ~wall:0. ~cache:(C.Passmgr.counters ())
        (Campaign.Metrics.create ());
    c_resumed = 0;
  }

let report acc (c : Campaign.Corpus.t) =
  Span.span acc "report" (fun () ->
      let r = Campaign.Corpus.report ~campaign:"hunt" ~seed:c.c_seed ~count:c.c_count c in
      ignore (Campaign.Corpus.report_text c);
      r)

(* Traced hunt on [jobs] domains through Engine.run: each case's time is
   added to its worker's busy slot.  Returns the per-case outcomes, the
   merged accumulator, and the report. *)
let hunt ~split ~jobs ~seed seeds =
  let accs = Array.init jobs (fun _ -> Span.create ()) in
  let runner ctx i =
    let acc = accs.(Campaign.Engine.worker ctx) in
    Span.span acc "busy" (fun () ->
        let raw = generate acc seeds.(i) in
        (analyze ~split acc raw, raw))
  in
  let result = Campaign.Engine.run ~jobs ~count:(Array.length seeds) runner in
  let acc = Span.create () in
  Array.iteri
    (fun w a ->
      Span.add_time acc (Printf.sprintf "busy.%d" w) (Span.time a "busy" -. Span.time a "side");
      Span.merge_into acc a)
    accs;
  let cases =
    Array.map
      (function
        | Campaign.Engine.Done v -> v
        | Campaign.Engine.Crashed q -> failwith ("traced case crashed: " ^ q.Campaign.Engine.q_error))
      result.Campaign.Engine.outcomes
  in
  let r = report acc (corpus ~seed ~jobs seeds cases) in
  (Array.map fst cases, acc, r)

(* ---------------------------------------------------------------- *)
(* traced resume: load the journal, then re-derive every case the way *)
(* the corpus codec does                                              *)
(* ---------------------------------------------------------------- *)

let iset_of_json j = iset_of_list (List.map Json.int_exn (Option.get (Json.to_list j)))

let decode_case acc j =
  let d = Json.get j "data" in
  let raw = generate acc (Json.get_int d "seed") in
  match Json.get_str d "kind" with
  | "rejected" -> (Core.Analysis.Rejected (Json.get_str d "reason"), raw)
  | _ ->
    let alive = iset_of_json (Json.get d "alive") and dead = iset_of_json (Json.get d "dead") in
    let live_blocks =
      List.fold_left
        (fun s e ->
          match Json.to_list e with
          | Some [ fn; l ] -> Ir.Bset.add (Option.get (Json.to_str fn), Json.int_exn l) s
          | _ -> failwith "journal record: bad live_blocks entry")
        Ir.Bset.empty (Json.get_list d "live_blocks")
    in
    let truth =
      {
        Core.Ground_truth.alive;
        dead;
        all = Ir.Iset.union alive dead;
        live_blocks;
        steps = Json.get_int d "steps";
      }
    in
    let instrumented = Span.span acc "instrument" (fun () -> Core.Instrument.program raw) in
    let ir = lower acc instrumented in
    let graph = Span.span acc "primary.build" (fun () -> Core.Primary.build ~live_blocks ir) in
    let config cj =
      let surviving = iset_of_json (Json.get cj "surviving") in
      let attrib =
        List.map
          (fun e ->
            match Json.to_list e with
            | Some [ stage; ms ] ->
              ( Option.get (Json.to_str stage),
                List.map Json.int_exn (Option.get (Json.to_list ms)) )
            | _ -> failwith "journal record: bad attrib entry")
          (Json.get_list cj "attrib")
      in
      let missed = Core.Differential.missed ~surviving ~dead in
      {
        Core.Analysis.cfg_compiler = Json.get_str cj "compiler";
        cfg_level = Option.get (C.Level.of_string (Json.get_str cj "level"));
        surviving;
        missed;
        primary_missed =
          Span.span acc "primary.missed" (fun () -> Core.Primary.primary_missed graph ~alive ~missed);
        cfg_trace =
          List.map
            (fun (label, markers) ->
              {
                C.Passmgr.sr_label = label;
                sr_round = 0;
                sr_time = 0.;
                sr_changed = true;
                sr_blocks_before = 0;
                sr_blocks_after = 0;
                sr_instrs_before = 0;
                sr_instrs_after = 0;
                sr_markers_eliminated = markers;
              })
            attrib;
      }
    in
    let configs = List.map config (Json.get_list d "configs") in
    (Core.Analysis.Analyzed { Core.Analysis.instrumented; truth; graph; configs }, raw)

let resume ~seed ~journal seeds =
  let acc = Span.create () in
  let records =
    match Span.span acc "journal.load" (fun () -> Campaign.Journal.load ~path:journal) with
    | Some (_, records, 0) -> records
    | Some _ | None -> failwith ("unreadable journal " ^ journal)
  in
  Span.add_count acc "journal.records" (List.length records);
  Span.add_count acc "journal.bytes" (Unix.stat journal).Unix.st_size;
  let cases = Array.make (Array.length seeds) None in
  List.iter
    (fun j ->
      if Json.get_str j "status" <> "done" then failwith "journal holds a quarantined case";
      cases.(Json.get_int j "case") <- Some (decode_case acc j))
    records;
  let cases = Array.map Option.get cases in
  let r = report acc (corpus ~seed ~jobs:1 seeds cases) in
  (Array.map fst cases, acc, r)
