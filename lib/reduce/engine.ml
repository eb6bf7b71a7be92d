open Dce_minic
module Campaign = Dce_campaign
module Compiler = Dce_compiler.Compiler
module Compile_cache = Dce_compiler.Compile_cache
module Passmgr = Dce_compiler.Passmgr
module Json = Dce_campaign.Json

type crash = { cr_round : int; cr_stage : string; cr_error : string }

type stats = {
  s_charged : int;
  s_predicate_runs : int;
  s_speculative : int;
  s_resumed : int;
  s_cache : Compile_cache.counters;
  s_stages : Predicate.stage_count list;
  s_pipelines_naive : int;
  s_pipelines_staged : int;
  s_pipelines_run : int;
  s_compile : Compiler.cache_stats;
  s_crashes : crash list;
  s_metrics : Campaign.Metrics.summary;
}

type result = {
  program : Ast.program;
  tests_run : int;
  rounds : int;
  initial_size : int;
  final_size : int;
  stats : stats;
}

let empty_counters =
  { Compile_cache.hits = 0; misses = 0; collisions = 0; entries = 0 }

let counters_delta (a : Compile_cache.counters) (b : Compile_cache.counters) =
  {
    Compile_cache.hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    collisions = b.collisions - a.collisions;
    entries = b.entries - a.entries;
  }

(* ------------------------------------------------------------------ *)
(* journal records: one verdict per line, warm-starting the cache      *)
(* ------------------------------------------------------------------ *)

let encode_record predicate p v =
  let outcome =
    match v with
    | Predicate.Pass -> [ ("outcome", Json.String "pass") ]
    | Predicate.Rejected i ->
      [
        ("outcome", Json.String "rejected");
        ("stage", Json.Int i);
        ("stage_name", Json.String (List.nth (Predicate.stage_names predicate) i));
      ]
    | Predicate.Crashed { at; error } ->
      [ ("outcome", Json.String "crashed"); ("at", Json.String at); ("error", Json.String error) ]
  in
  Json.Obj (("src", Json.String (Pretty.program_to_string p)) :: outcome)

let decode_outcome nstages j =
  match Json.get_str j "outcome" with
  | "pass" -> Some Predicate.Pass
  | "rejected" ->
    let i = Json.get_int j "stage" in
    if i >= 0 && i < nstages then Some (Predicate.Rejected i) else None
  | "crashed" -> Some (Predicate.Crashed { at = Json.get_str j "at"; error = Json.get_str j "error" })
  | _ -> None
  | exception Failure _ -> None

(* Preload journaled verdicts into the cache.  A record that fails to parse
   or decode (truncated line, predicate shape change) is skipped — resume is
   best-effort, never load-bearing for correctness. *)
let preload vc nstages path =
  match Campaign.Journal.load ~path with
  | None -> 0
  | Some (_, records, _) ->
    List.fold_left
      (fun acc j ->
        match
          let src = Json.get_str j "src" in
          let p = Parser.parse_program src in
          Option.map (fun v -> (p, v)) (decode_outcome nstages j)
        with
        | Some (p, v) ->
          Compile_cache.add vc p v;
          acc + 1
        | None -> acc
        | exception _ -> acc)
      0 records

(* ------------------------------------------------------------------ *)
(* the engine                                                          *)
(* ------------------------------------------------------------------ *)

let reduce ?(max_tests = 4000) ?(jobs = 1) ?(cache = true) ?journal ~predicate prog =
  if jobs < 1 then invalid_arg "Engine.reduce: jobs must be >= 1";
  let wall0 = Dce_support.Clock.now () in
  let stages0 = Predicate.counts predicate in
  let nstages = List.length stages0 in
  let compile0 = Compiler.cache_stats () in
  let pass0 = Passmgr.counters () in
  let vc = if cache then Some (Compile_cache.create ~hash:Ast.hash_program ~equal:( = ) ()) else None in
  let resumed =
    match (vc, journal) with Some c, Some path -> preload c nstages path | _ -> 0
  in
  let jnl =
    Option.map
      (fun path ->
        Campaign.Journal.open_append ~path
          {
            Campaign.Journal.h_campaign = "reduce";
            h_seed = Ast.hash_program prog;
            h_count = max_tests;
          })
      journal
  in
  let metrics = Campaign.Metrics.create () in
  let charged = ref 0 and predicate_runs = ref 0 and speculative = ref 0 in
  let pipelines_naive = ref 0 and pipelines_staged = ref 0 in
  let crashes = ref [] in
  let round = ref 0 in
  let note_computed p ((v, samples) : Predicate.outcome * (string * float) list) =
    incr predicate_runs;
    List.iter (fun (name, dt) -> Campaign.Metrics.record metrics name dt) samples;
    (match v with
    | Predicate.Crashed { at; error } ->
      crashes := { cr_round = !round; cr_stage = at; cr_error = error } :: !crashes
    | _ -> ());
    Option.iter (fun c -> Compile_cache.add c p v) vc;
    Option.iter (fun j -> Campaign.Journal.append j (encode_record predicate p v)) jnl;
    v
  in
  (* Resolve a batch of candidates to verdicts: consult the cache, evaluate
     the misses — on the campaign Domain pool when there are several and
     jobs > 1, inline otherwise.  All bookkeeping (cache insert, journal
     append, metrics, crash records) happens on the coordinator after the
     join; workers only run the predicate, whose counters are atomic and
     whose compile caches are mutex-guarded. *)
  let resolve_batch (batch : Ast.program array) =
    let n = Array.length batch in
    let slots = Array.make n None in
    let executed = Array.make n false in
    (match vc with
    | Some c -> Array.iteri (fun i p -> slots.(i) <- Compile_cache.find c p) batch
    | None -> ());
    let miss = Array.of_list (List.filter (fun i -> slots.(i) = None) (List.init n Fun.id)) in
    let m = Array.length miss in
    if m > 0 then begin
      let computed =
        if jobs = 1 || m = 1 then
          Array.map (fun i -> Predicate.run predicate batch.(i)) miss
        else begin
          let r =
            Campaign.Engine.run ~jobs:(min jobs m) ~count:m (fun ctx k ->
                Campaign.Engine.stage ctx "candidate" (fun () ->
                    Predicate.run predicate batch.(miss.(k))))
          in
          Array.map
            (function
              | Campaign.Engine.Done v -> v
              | Campaign.Engine.Crashed q ->
                (* backstop only: Predicate.run already catches stage
                   exceptions, so this covers harness-level failures *)
                ( Predicate.Crashed
                    { at = q.Campaign.Engine.q_stage; error = q.Campaign.Engine.q_error },
                  [] ))
            r.Campaign.Engine.outcomes
        end
      in
      Array.iteri
        (fun k res ->
          let i = miss.(k) in
          executed.(i) <- true;
          slots.(i) <- Some (note_computed batch.(i) res))
        computed
    end;
    (Array.map Option.get slots, executed)
  in
  let initial_size = Edits.count_stmts prog in
  let v0, _ = resolve_batch [| prog |] in
  (match v0.(0) with
  | Predicate.Pass ->
    (* the initial evaluation costs the same under every scheme *)
    pipelines_naive := Predicate.pipeline_stages predicate;
    pipelines_staged := Predicate.pipelines_for predicate Predicate.Pass
  | _ ->
    Option.iter Campaign.Journal.close jnl;
    invalid_arg "Reduce.reduce: initial program does not satisfy the predicate");
  (* Fixpoint rounds.  Charging is sequential-equivalent: walking the batch
     in candidate order, every candidate up to and including the accepted
     one costs one test, exactly as the sequential reducer would have spent
     — so tests_run, the accept sequence, and therefore the final program
     are identical for every [jobs] value and cache setting.  Work the
     parallel engine did past the accept point is counted separately as
     [speculative]. *)
  let rec rounds_loop prog nrounds =
    round := nrounds + 1;
    if !charged >= max_tests then (prog, nrounds)
    else begin
      (* parent size is loop-invariant: compute once per round, not per
         candidate *)
      let parent_size = Edits.count_stmts prog in
      let rec take want acc got stream =
        if got >= want then (List.rev acc, stream)
        else
          match stream with
          | [] -> (List.rev acc, [])
          | c :: rest ->
            let candidate = Lazy.force c in
            if Edits.count_stmts candidate < parent_size then
              take want (candidate :: acc) (got + 1) rest
            else take want acc got rest
      in
      let accepted = ref None in
      let stream = ref (Edits.candidates prog) in
      let continue_ = ref true in
      while !accepted = None && !continue_ do
        let budget = max_tests - !charged in
        if budget <= 0 then continue_ := false
        else begin
          let batch_list, rest = take (min jobs budget) [] 0 !stream in
          stream := rest;
          match batch_list with
          | [] -> continue_ := false
          | _ ->
            let batch = Array.of_list batch_list in
            let verdicts, executed = resolve_batch batch in
            let n = Array.length batch in
            let rec scan i =
              if i < n then begin
                incr charged;
                pipelines_naive := !pipelines_naive + Predicate.pipeline_stages predicate;
                pipelines_staged :=
                  !pipelines_staged + Predicate.pipelines_for predicate verdicts.(i);
                match verdicts.(i) with
                | Predicate.Pass ->
                  accepted := Some batch.(i);
                  for j = i + 1 to n - 1 do
                    if executed.(j) then incr speculative
                  done
                | _ -> scan (i + 1)
              end
            in
            scan 0
        end
      done;
      match !accepted with
      | Some next -> rounds_loop next (nrounds + 1)
      | None -> (prog, nrounds)
    end
  in
  let final, rounds = rounds_loop prog 0 in
  Option.iter Campaign.Journal.close jnl;
  let wall = Dce_support.Clock.now () -. wall0 in
  let s_stages =
    List.map2
      (fun (a : Predicate.stage_count) (b : Predicate.stage_count) ->
        {
          Predicate.sc_name = b.sc_name;
          sc_cost = b.sc_cost;
          sc_entered = b.sc_entered - a.sc_entered;
          sc_rejected = b.sc_rejected - a.sc_rejected;
        })
      stages0 (Predicate.counts predicate)
  in
  let compile1 = Compiler.cache_stats () in
  let s_compile =
    {
      Compiler.cs_surviving = counters_delta compile0.Compiler.cs_surviving compile1.Compiler.cs_surviving;
      cs_lower_fn = counters_delta compile0.Compiler.cs_lower_fn compile1.Compiler.cs_lower_fn;
    }
  in
  let s_pipelines_run =
    if Predicate.uses_compile_cache predicate then
      s_compile.Compiler.cs_surviving.Compile_cache.misses
    else
      List.fold_left
        (fun acc (sc : Predicate.stage_count) ->
          if sc.sc_cost = Predicate.Pipeline then acc + sc.sc_entered else acc)
        0 s_stages
  in
  let stats =
    {
      s_charged = !charged;
      s_predicate_runs = !predicate_runs;
      s_speculative = !speculative;
      s_resumed = resumed;
      s_cache = (match vc with Some c -> Compile_cache.counters c | None -> empty_counters);
      s_stages;
      s_pipelines_naive = !pipelines_naive;
      s_pipelines_staged = !pipelines_staged;
      s_pipelines_run;
      s_compile;
      s_crashes = List.rev !crashes;
      s_metrics =
        Campaign.Metrics.summarize ~cases:!charged ~wall
          ~cache:(Campaign.Engine.counters_delta pass0 (Passmgr.counters ()))
          metrics;
    }
  in
  {
    program = final;
    tests_run = !charged;
    rounds;
    initial_size;
    final_size = Edits.count_stmts final;
    stats;
  }

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let cost_name = function
  | Predicate.Free -> "free"
  | Predicate.Execution -> "execution"
  | Predicate.Pipeline -> "pipeline"

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let stats_to_string s =
  let b = Buffer.create 512 in
  Printf.bprintf b "charged tests        %d\n" s.s_charged;
  Printf.bprintf b "predicate runs       %d (%d cache hits, %d speculative, %d resumed)\n"
    s.s_predicate_runs s.s_cache.Compile_cache.hits s.s_speculative s.s_resumed;
  if s.s_cache.Compile_cache.collisions > 0 then
    Printf.bprintf b "verdict-cache collisions %d (checked, no aliasing)\n"
      s.s_cache.Compile_cache.collisions;
  Buffer.add_string b "stages (entered/rejected):\n";
  List.iter
    (fun (sc : Predicate.stage_count) ->
      Printf.bprintf b "  %-18s %6d / %-6d (%s)\n" sc.sc_name sc.sc_entered sc.sc_rejected
        (cost_name sc.sc_cost))
    s.s_stages;
  Printf.bprintf b "pipelines            %d run; naive predicate would run %d (%.1fx), staged-uncached %d (%.1fx)\n"
    s.s_pipelines_run s.s_pipelines_naive
    (ratio s.s_pipelines_naive (max 1 s.s_pipelines_run))
    s.s_pipelines_staged
    (ratio s.s_pipelines_staged (max 1 s.s_pipelines_run));
  let c = s.s_compile.Compiler.cs_surviving and l = s.s_compile.Compiler.cs_lower_fn in
  Printf.bprintf b "compile cache        surviving %d hits / %d misses; lower-fn %d hits / %d misses\n"
    c.Compile_cache.hits c.Compile_cache.misses l.Compile_cache.hits l.Compile_cache.misses;
  if s.s_crashes <> [] then
    Printf.bprintf b "quarantined          %d candidate crash(es), first at round %d in %s\n"
      (List.length s.s_crashes)
      (List.hd s.s_crashes).cr_round
      (List.hd s.s_crashes).cr_stage;
  Buffer.contents b

let counters_json (c : Compile_cache.counters) =
  Json.Obj
    [
      ("hits", Json.Int c.hits);
      ("misses", Json.Int c.misses);
      ("collisions", Json.Int c.collisions);
      ("entries", Json.Int c.entries);
    ]

let stats_json s =
  Json.Obj
    [
      ("charged_tests", Json.Int s.s_charged);
      ("predicate_runs", Json.Int s.s_predicate_runs);
      ("speculative_runs", Json.Int s.s_speculative);
      ("resumed", Json.Int s.s_resumed);
      ("verdict_cache", counters_json s.s_cache);
      ( "stages",
        Json.List
          (List.map
             (fun (sc : Predicate.stage_count) ->
               Json.Obj
                 [
                   ("name", Json.String sc.sc_name);
                   ("cost", Json.String (cost_name sc.sc_cost));
                   ("entered", Json.Int sc.sc_entered);
                   ("rejected", Json.Int sc.sc_rejected);
                 ])
             s.s_stages) );
      ( "pipelines",
        Json.Obj
          [
            ("naive", Json.Int s.s_pipelines_naive);
            ("staged_uncached", Json.Int s.s_pipelines_staged);
            ("run", Json.Int s.s_pipelines_run);
          ] );
      ( "compile_cache",
        Json.Obj
          [
            ("surviving", counters_json s.s_compile.Compiler.cs_surviving);
            ("lower_fn", counters_json s.s_compile.Compiler.cs_lower_fn);
          ] );
      ("crashes", Json.Int (List.length s.s_crashes));
    ]
