module Core = Dce_core
module Smith = Dce_smith.Smith

let program seed = fst (Smith.generate (Smith.default_config seed))

let run ?journal ?(settings = Settings.default) ~codec ~campaign ~jobs ~seed ~count body =
  Settings.check_cases ~count settings;
  let seeds = Array.of_list (Smith.corpus_seeds ~seed ~count) in
  let runner ctx i =
    let raw = Engine.stage ctx "generate" (fun () -> program seeds.(i)) in
    body ctx seeds.(i) raw
  in
  { Engine.seeds; result = Engine.run ?journal ~codec ~campaign ~seed ~settings ~jobs ~count runner }

let valid ctx raw =
  let instrumented = Engine.stage ctx "instrument" (fun () -> Core.Instrument.program raw) in
  match Engine.stage ctx "ground-truth" (fun () -> Core.Ground_truth.compute instrumented) with
  | Core.Ground_truth.Rejected reason -> Error reason
  | Core.Ground_truth.Valid truth -> Ok (instrumented, truth)
