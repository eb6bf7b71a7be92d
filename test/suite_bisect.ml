(* Tests for the bisection layer and the bisection campaign:

   - search strategies agree (exponential = linear outcome)
   - probe complexity: exponential bisection is O(log head), not O(head)
   - Not_missed / Always_missed edges, probe accounting included
   - last_good/offending_index invariants checked against the compiler
   - component-table dedup (hash-set path) and ordering
   - probe cache transparency: cached and uncached bisections are identical
   - shared sessions: same outcomes, probes and pipeline executions as
     session-less probes; a corrupt-IR plan is blamed on its pass
   - campaign determinism: jobs N = jobs 1 = sequential find_regression
   - campaign checkpoint/resume from a torn journal
   - witnesses for settings the corpus never moves (the -O3 VRP caps, the
     jump threader), and every Features field moves some witness *)

open Helpers
module Campaign = Dce_campaign
module Engine = Campaign.Engine
module Bisect = Dce_bisect.Bisect
module Bc = Campaign.Bisect_campaign

let compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

(* [Version.commit] carries an [apply] closure, and OCaml's polymorphic [=]
   raises on functional values — so outcomes are compared through
   closure-free keys, and whole campaigns through their journal JSON. *)
let outcome_key = function
  | Bisect.Not_missed -> ("not-missed", "", 0, 0)
  | Bisect.Always_missed -> ("always-missed", "", 0, 0)
  | Bisect.Regression r ->
    ("regression", r.Bisect.offending.C.Version.id, r.Bisect.offending_index, r.Bisect.last_good)

let cases_json (b : Bc.t) =
  Array.to_list b.Bc.b_cases
  |> List.map (function
       | Engine.Done r -> Campaign.Json.to_string (Bc.codec.Engine.encode r)
       | Engine.Crashed q -> Printf.sprintf "crashed:%d:%s" q.Engine.q_case q.Engine.q_stage)

(* (compiler, instrumented program, marker, regression) triples found by
   scanning generated programs: markers that survive at HEAD -O3 and bisect
   to an offending commit.  Shared by several tests. *)
let regression_triples = lazy begin
  let found = ref [] in
  let seed = ref 1 in
  while List.length !found < 3 && !seed <= 40 do
    let prog = Core.Instrument.program (smith_program !seed) in
    List.iter
      (fun compiler ->
        List.iter
          (fun marker ->
            if List.length !found < 3 then
              match Bisect.find_regression compiler C.Level.O3 prog ~marker with
              | Bisect.Regression r -> found := (compiler, prog, marker, r) :: !found
              | Bisect.Always_missed | Bisect.Not_missed -> ())
          (markers_of compiler C.Level.O3 prog))
      compilers;
    incr seed
  done;
  match !found with
  | [] -> Alcotest.fail "no bisectable regression in 40 generated programs"
  | l -> List.rev l
end

(* ------------------------------------------------------------------ *)
(* search strategies and probe complexity                              *)
(* ------------------------------------------------------------------ *)

let test_exp_linear_agree () =
  List.iter
    (fun (compiler, prog, marker, _) ->
      let exp = Bisect.find_regression ~search:`Exponential compiler C.Level.O3 prog ~marker in
      let lin = Bisect.find_regression ~search:`Linear compiler C.Level.O3 prog ~marker in
      Alcotest.(check bool) "exponential = linear" true (outcome_key exp = outcome_key lin))
    (Lazy.force regression_triples)

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let test_probe_bound () =
  List.iter
    (fun (compiler, prog, marker, _) ->
      let head = C.Compiler.head compiler in
      let _, probes =
        Bisect.find_regression_counted ~search:`Exponential compiler C.Level.O3 prog ~marker
      in
      (* 1 HEAD probe + <= log2(head)+2 backoff probes + <= log2(head)+1
         binary-search probes: comfortably under 2*log2(head) + 4 *)
      let bound = (2 * ilog2 head) + 4 in
      if probes > bound then
        Alcotest.failf "bisection used %d probes, O(log) bound is %d (head %d)" probes bound head)
    (Lazy.force regression_triples)

(* ------------------------------------------------------------------ *)
(* outcome edges                                                       *)
(* ------------------------------------------------------------------ *)

let test_not_missed () =
  (* a trivially dead marker every compiler eliminates at HEAD -O3 *)
  let prog = Core.Instrument.program (parse "int main(void) { if (0) { use(1); } return 0; }") in
  List.iter
    (fun compiler ->
      match Bisect.find_regression_counted compiler C.Level.O3 prog ~marker:0 with
      | Bisect.Not_missed, probes ->
        Alcotest.(check int) "HEAD probe only" 1 probes
      | (Bisect.Always_missed | Bisect.Regression _), _ ->
        Alcotest.fail "expected Not_missed for an eliminated marker")
    compilers

let test_always_missed () =
  (* a marker behind an unanalyzable branch survives every version: the
     compiler can never prove it dead, so it is not a regression *)
  let prog =
    Core.Instrument.program
      (parse "int main(void) { if (ext(1)) { use(1); } return 0; }")
  in
  let markers = Dce_minic.Ast.markers_of_program prog in
  Alcotest.(check bool) "program instrumented" true (markers <> []);
  List.iter
    (fun compiler ->
      let marker = List.hd markers in
      match Bisect.find_regression_counted compiler C.Level.O3 prog ~marker with
      | Bisect.Always_missed, probes ->
        let head = C.Compiler.head compiler in
        (* HEAD, the exponential walk down, and the final probe at 0 *)
        Alcotest.(check bool) "O(log) probes to give up" true (probes <= ilog2 head + 4)
      | (Bisect.Not_missed | Bisect.Regression _), _ ->
        Alcotest.fail "expected Always_missed for a live marker")
    compilers

let test_regression_invariants () =
  List.iter
    (fun (compiler, prog, marker, r) ->
      Alcotest.(check int) "offending = last_good + 1" (r.Bisect.last_good + 1)
        r.Bisect.offending_index;
      Alcotest.(check bool) "positive probe count" true (r.Bisect.compilations > 0);
      let missed_at v =
        List.mem marker (markers_of compiler ~version:v C.Level.O3 prog)
      in
      Alcotest.(check bool) "eliminated at last_good" false (missed_at r.Bisect.last_good);
      Alcotest.(check bool) "missed at offending version" true (missed_at r.Bisect.offending_index);
      Alcotest.(check bool) "offending commit is history[index-1]" true
        (List.nth compiler.C.Compiler.history (r.Bisect.offending_index - 1)
        == r.Bisect.offending))
    (Lazy.force regression_triples)

let test_cache_transparency () =
  List.iter
    (fun (compiler, prog, marker, _) ->
      C.Compiler.clear_caches ();
      let bisect ?session () =
        let o, probes = Bisect.find_regression_counted ?session compiler C.Level.O3 prog ~marker in
        (outcome_key o, probes)
      in
      let session = C.Compiler.session ~cache:true prog in
      let cached = bisect ~session () in
      (* again on the same session: warm memos must not change anything *)
      let warm = bisect ~session () in
      let uncached = bisect () in
      Alcotest.(check bool) "cached = uncached (outcome and probes)" true (cached = uncached);
      Alcotest.(check bool) "warm cache identical" true (warm = cached))
    (Lazy.force regression_triples)

(* ------------------------------------------------------------------ *)
(* component table                                                     *)
(* ------------------------------------------------------------------ *)

let test_component_table_dedup () =
  let mk summary component files =
    C.Version.make_commit ~summary ~component ~files (fun _ f -> f)
  in
  let a = mk "commit a" "Alias Analysis" [ "tree-ssa-alias.c"; "tree-ssa.c" ] in
  let b = mk "commit b" "Alias Analysis" [ "tree-ssa-alias.c" ] in
  let c = mk "commit c" "Vectorizer" [ "tree-vect-loop.c" ] in
  (* duplicates by id (same summary -> same derived id) must collapse *)
  let rows = Bisect.component_table [ a; b; a; c; b; a ] in
  Alcotest.(check int) "two components" 2 (List.length rows);
  (match rows with
   | [ alias; vect ] ->
     Alcotest.(check string) "sorted by component" "Alias Analysis" alias.Bisect.component;
     Alcotest.(check int) "alias commits deduplicated" 2 alias.Bisect.commits;
     Alcotest.(check int) "alias files distinct" 2 alias.Bisect.files;
     Alcotest.(check string) "second row" "Vectorizer" vect.Bisect.component;
     Alcotest.(check int) "vect commits" 1 vect.Bisect.commits;
     Alcotest.(check int) "vect files" 1 vect.Bisect.files
   | _ -> Alcotest.fail "unexpected row shape");
  Alcotest.(check (list (pair string int)))
    "empty input" []
    (List.map (fun r -> (r.Bisect.component, r.Bisect.commits)) (Bisect.component_table []))

(* ------------------------------------------------------------------ *)
(* the bisection campaign                                              *)
(* ------------------------------------------------------------------ *)

let campaign_seed = 4242
let campaign_count = 6

let corpus = lazy (Campaign.Corpus.run ~jobs:2 ~seed:campaign_seed ~count:campaign_count ())

let test_campaign_jobs_determinism () =
  let c = Lazy.force corpus in
  let a = Bc.run ~jobs:1 c in
  let b = Bc.run ~jobs:3 c in
  Alcotest.(check (list string)) "case reports identical" (cases_json a) (cases_json b);
  Alcotest.(check int) "pair counts equal" a.Bc.b_pairs b.Bc.b_pairs;
  Alcotest.(check int) "probe totals equal" a.Bc.b_probes b.Bc.b_probes;
  Alcotest.(check string) "summary identical" (Bc.summary a) (Bc.summary b);
  Alcotest.(check string) "component tables identical" (Bc.component_tables a)
    (Bc.component_tables b)

let test_campaign_equals_sequential () =
  let c = Lazy.force corpus in
  let b = Bc.run ~jobs:4 c in
  Alcotest.(check bool) "some pairs to bisect" true (b.Bc.b_pairs > 0);
  let programs = Campaign.Corpus.instrumented_programs c in
  Array.iter
    (function
      | Engine.Done r ->
        List.iter
          (fun (bs : Bc.bisection) ->
            (* no session: every probe compiles from scratch, so the
               campaign's probe caches must be transparent in outcome and
               probe count alike *)
            let expected, probes =
              Bisect.find_regression_counted
                (compiler_named
                   (if bs.Bc.bs_compiler = "gcc-sim" then "gcc" else "llvm"))
                C.Level.O3
                programs.(r.Bc.br_case)
                ~marker:bs.Bc.bs_marker
            in
            Alcotest.(check bool) "campaign = sequential find_regression" true
              (outcome_key bs.Bc.bs_outcome = outcome_key expected);
            Alcotest.(check int) "same probe count" probes bs.Bc.bs_probes)
          r.Bc.br_bisections
      | Engine.Crashed _ -> Alcotest.fail "unexpected quarantine")
    b.Bc.b_cases;
  (* every (config, missed-marker) pair at O3 is covered, in order *)
  Array.iteri
    (fun i case ->
      match case with
      | Campaign.Corpus.Case (Core.Analysis.Analyzed a, _) ->
        let expected_pairs =
          List.concat_map
            (fun (pc : Core.Analysis.per_config) ->
              if pc.Core.Analysis.cfg_level = C.Level.O3 then
                List.map
                  (fun m -> (pc.Core.Analysis.cfg_compiler, m))
                  (Ir.Iset.elements pc.Core.Analysis.missed)
              else [])
            a.Core.Analysis.configs
        in
        if expected_pairs <> [] then begin
          let slot =
            match
              Array.to_list
                (Array.map
                   (function Engine.Done r -> Some r | Engine.Crashed _ -> None)
                   b.Bc.b_cases)
              |> List.find_opt (function Some r -> r.Bc.br_case = i | None -> false)
            with
            | Some (Some r) -> r
            | _ -> Alcotest.failf "corpus case %d missing from campaign" i
          in
          Alcotest.(check bool) "pair set and order match the analysis" true
            (List.map (fun (b : Bc.bisection) -> (b.Bc.bs_compiler, b.Bc.bs_marker))
               slot.Bc.br_bisections
            = expected_pairs)
        end
      | Campaign.Corpus.Case (Core.Analysis.Rejected _, _) | Campaign.Corpus.Quarantined _ -> ())
    c.Campaign.Corpus.c_cases

let sim_named name = List.find (fun c -> c.C.Compiler.name = name) compilers

(* the campaign's (program, compiler, marker) targets, case by case *)
let campaign_targets () =
  let c = Lazy.force corpus in
  let programs = Campaign.Corpus.instrumented_programs c in
  Array.to_list c.Campaign.Corpus.c_cases
  |> List.mapi (fun i case ->
         match case with
         | Campaign.Corpus.Case (Core.Analysis.Analyzed a, _) ->
           let pairs =
             List.concat_map
               (fun (pc : Core.Analysis.per_config) ->
                 if pc.Core.Analysis.cfg_level = C.Level.O3 then
                   List.map
                     (fun m -> (sim_named pc.Core.Analysis.cfg_compiler, m))
                     (Ir.Iset.elements pc.Core.Analysis.missed)
                 else [])
               a.Core.Analysis.configs
           in
           if pairs = [] then None else Some (programs.(i), pairs)
         | _ -> None)
  |> List.filter_map Fun.id

(* Every missed marker of every case, bisected on the case's one shared
   session, gives the outcome and probe count of session-less probes. *)
let test_shared_session_transparent () =
  C.Compiler.clear_caches ();
  let targets = campaign_targets () in
  Alcotest.(check bool) "some targets" true (targets <> []);
  List.iter
    (fun (prog, pairs) ->
      let session = C.Compiler.session ~cache:true prog in
      List.iter
        (fun (compiler, marker) ->
          let key (o, probes) = (outcome_key o, probes) in
          Alcotest.(check bool) "shared session = no session (outcome and probes)" true
            (key (Bisect.find_regression_counted ~session compiler C.Level.O3 prog ~marker)
            = key (Bisect.find_regression_counted compiler C.Level.O3 prog ~marker)))
        pairs)
    targets

(* Sharing a session changes which stages execute, never which pipelines
   run: the campaign, one session per case, misses the whole-compile memo
   exactly as often as the same bisections on a session per marker — while
   executing fewer stages. *)
let test_sessions_keep_pipeline_count () =
  let c = Lazy.force corpus in
  let pipelines_and_stages f =
    C.Compiler.clear_caches ();
    C.Passmgr.reset_counters ();
    f ();
    ( (C.Compiler.cache_stats ()).C.Compiler.cs_surviving.C.Compile_cache.misses,
      (C.Passmgr.counters ()).C.Passmgr.memo_misses )
  in
  let shared_pipelines, shared_stages =
    pipelines_and_stages (fun () -> ignore (Bc.run ~jobs:1 c))
  in
  let alone_pipelines, alone_stages =
    pipelines_and_stages (fun () ->
        List.iter
          (fun (prog, pairs) ->
            List.iter
              (fun (compiler, marker) ->
                ignore
                  (Bisect.find_regression_counted
                     ~session:(C.Compiler.session ~cache:true prog)
                     compiler C.Level.O3 prog ~marker))
              pairs)
          (campaign_targets ()))
  in
  Alcotest.(check bool) "pipelines ran" true (shared_pipelines > 0);
  Alcotest.(check int) "same pipeline executions" alone_pipelines shared_pipelines;
  Alcotest.(check bool) "fewer stages executed" true (shared_stages < alone_stages)

(* A corrupt-IR plan makes every probe validate, replayed stages
   included: the planted case is quarantined as ir-invalid blaming the
   corrupted pass, and every other case reports exactly what a clean run
   does. *)
let test_campaign_corruption_blamed () =
  let c = Lazy.force corpus in
  let clean = Bc.run ~jobs:1 c in
  let settings = Campaign.Settings.v ~chaos:"corrupt@0:gvn" () in
  let t = Bc.run ~settings ~jobs:1 c in
  (match t.Bc.b_quarantine with
   | [ q ] ->
     Alcotest.(check int) "planted case" 0 q.Engine.q_case;
     Alcotest.(check string) "stage" "bisect" q.Engine.q_stage;
     Alcotest.(check bool) "ir-invalid" true (q.Engine.q_kind = Engine.Ir_invalid);
     Alcotest.(check bool) "blames gvn" true
       (contains q.Engine.q_error "pass gvn produced invalid IR")
   | qs -> Alcotest.failf "expected 1 quarantined case, got %d" (List.length qs));
  Alcotest.(check (list string)) "other cases unchanged"
    (List.tl (cases_json clean)) (List.tl (cases_json t))

(* Engine case i is corpus case i: a crash planted at the bisect stage of
   corpus case N quarantines case N, under that number, and every other
   case reports exactly what a clean run does.  In this corpus one case
   has nothing to bisect, and N is the last case that has something, past
   which a numbering by bisected case alone would run out of cases. *)
let test_campaign_chaos_names_corpus_case () =
  let count = 8 in
  let c = Campaign.Corpus.run ~jobs:2 ~seed:42 ~count () in
  let clean = Bc.run ~jobs:1 c in
  let n =
    let last = ref (-1) in
    Array.iteri
      (fun i -> function
        | Engine.Done (r : Bc.case_report) when r.Bc.br_bisections <> [] -> last := i
        | _ -> ())
      clean.Bc.b_cases;
    !last
  in
  Alcotest.(check bool) "some case has pairs past the first" true (n > 0);
  Alcotest.(check int) "one slot per corpus case" count (Array.length clean.Bc.b_cases);
  Alcotest.(check bool) "some case has nothing to bisect" true
    (Array.exists
       (function Engine.Done (r : Bc.case_report) -> r.Bc.br_bisections = [] | _ -> false)
       clean.Bc.b_cases);
  let settings = Campaign.Settings.v ~chaos:(Printf.sprintf "crash@%d:bisect" n) () in
  let t = Bc.run ~settings ~jobs:2 c in
  (match t.Bc.b_quarantine with
   | [ q ] ->
     Alcotest.(check int) "the planted corpus case" n q.Engine.q_case;
     Alcotest.(check string) "stage" "bisect" q.Engine.q_stage;
     Alcotest.(check bool) "names the planted case" true
       (contains q.Engine.q_error (Printf.sprintf "injected crash (case %d)" n))
   | qs -> Alcotest.failf "expected 1 quarantined case, got %d" (List.length qs));
  List.iteri
    (fun i (a, b) -> if i <> n then Alcotest.(check string) (Printf.sprintf "case %d" i) a b)
    (List.combine (cases_json clean) (cases_json t))

(* A session answers only for the program it was made for. *)
let test_session_of_another_program () =
  let prog = Core.Instrument.program (parse "int main(void) { return 0; }") in
  let other = Core.Instrument.program (parse "int main(void) { return 1; }") in
  Alcotest.check_raises "another program's session"
    (Invalid_argument "Bisect.find_regression: the session compiles another program")
    (fun () ->
      ignore
        (Bisect.find_regression ~session:(C.Compiler.session other) C.Gcc_sim.compiler
           C.Level.O3 prog ~marker:0))

let temp_journal () = Filename.temp_file "dce_bisect_test" ".jsonl"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncate_journal path ~cases =
  let lines = String.split_on_char '\n' (read_file path) in
  let kept = List.filteri (fun i _ -> i <= cases) lines in
  write_file path (String.concat "\n" kept ^ "\n{\"case\":99,\"stat")

let test_campaign_resume () =
  let c = Lazy.force corpus in
  let path = temp_journal () in
  let full = Bc.run ~journal:path ~jobs:1 c in
  truncate_journal path ~cases:2;
  let resumed = Bc.run ~journal:path ~jobs:2 c in
  Alcotest.(check int) "two cases restored" 2 resumed.Bc.b_resumed;
  Alcotest.(check (list string)) "case reports equal after resume" (cases_json full)
    (cases_json resumed);
  Alcotest.(check string) "tables equal after resume" (Bc.component_tables full)
    (Bc.component_tables resumed);
  (* the rewritten journal is complete: a third run re-executes nothing *)
  let third = Bc.run ~journal:path ~jobs:4 c in
  Alcotest.(check int) "all restored" (Array.length full.Bc.b_cases) third.Bc.b_resumed;
  Alcotest.(check (list string)) "third run equal" (cases_json full) (cases_json third);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* witnesses: hand-written programs that reach settings the corpus     *)
(* never moves                                                          *)
(* ------------------------------------------------------------------ *)

(* A marker behind a contradictory range test on [x], placed after 140
   opaque branches: the function reaches VRP with more blocks than either
   -O3 block budget (gcc 120, llvm 240) allows, so only -O2 folds it. *)
let vrp_cap_witness =
  let branches =
    List.init 140 (fun i -> Printf.sprintf "  if (h == %d) { k = k + %d; }" i i)
  in
  String.concat "\n"
    ([ "int g, h;"; "int main(void) {"; "  int x = g;"; "  int k = 0;" ]
    @ branches
    @ [ "  if (x > 5) { if (x < 3) { DCEMarker0(); } }"; "  return k;"; "}" ])

(* A branch on a phi with one constant incoming value: only the jump
   threader forwards the constant edge. *)
let threader_witness =
  {|
int g, h;
int main(void) {
  int x;
  if (g) { x = 1; } else { x = h; }
  if (x) { use(1); } else { use(2); }
  return 0;
}
|}

(* every [Features] field, as a copy of its value from one record into
   another *)
let feature_fields : (string * (C.Features.t -> C.Features.t -> C.Features.t)) list =
  let open C.Features in
  [
    ("sccp", fun s d -> { d with sccp = s.sccp });
    ("addr_cmp", fun s d -> { d with addr_cmp = s.addr_cmp });
    ("gva", fun s d -> { d with gva = s.gva });
    ("memcp", fun s d -> { d with memcp = s.memcp });
    ("memcp_edge_aware", fun s d -> { d with memcp_edge_aware = s.memcp_edge_aware });
    ("uniform_arrays", fun s d -> { d with uniform_arrays = s.uniform_arrays });
    ("call_summaries", fun s d -> { d with call_summaries = s.call_summaries });
    ("gvn_cse", fun s d -> { d with gvn_cse = s.gvn_cse });
    ("gvn_forward", fun s d -> { d with gvn_forward = s.gvn_forward });
    ("alias", fun s d -> { d with alias = s.alias });
    ("dse_strength", fun s d -> { d with dse_strength = s.dse_strength });
    ("ipa_cp", fun s d -> { d with ipa_cp = s.ipa_cp });
    ("inline_threshold", fun s d -> { d with inline_threshold = s.inline_threshold });
    ("function_dce", fun s d -> { d with function_dce = s.function_dce });
    ("function_dce_early", fun s d -> { d with function_dce_early = s.function_dce_early });
    ("unroll_trip", fun s d -> { d with unroll_trip = s.unroll_trip });
    ("unswitch", fun s d -> { d with unswitch = s.unswitch });
    ("vectorize", fun s d -> { d with vectorize = s.vectorize });
    ("peephole_level", fun s d -> { d with peephole_level = s.peephole_level });
    ("vrp", fun s d -> { d with vrp = s.vrp });
    ("vrp_shift_rule", fun s d -> { d with vrp_shift_rule = s.vrp_shift_rule });
    ("vrp_mod_singleton", fun s d -> { d with vrp_mod_singleton = s.vrp_mod_singleton });
    ("vrp_block_limit", fun s d -> { d with vrp_block_limit = s.vrp_block_limit });
    ("jump_thread", fun s d -> { d with jump_thread = s.jump_thread });
    ("opt_rounds", fun s d -> { d with opt_rounds = s.opt_rounds });
  ]

(* the distinct records both histories give at [versions compiler], at
   every level *)
let features_at versions =
  List.sort_uniq compare
    (List.concat_map
       (fun compiler ->
         List.concat_map
           (fun v -> List.map (C.Compiler.features compiler ~version:v) C.Level.all)
           (versions compiler))
       compilers)

let test_vrp_cap_witness () =
  let prog = parse vrp_cap_witness in
  List.iter
    (fun (compiler, id) ->
      let name = compiler.C.Compiler.name in
      Alcotest.(check (list int)) (name ^ " -O2 eliminates") []
        (markers_of compiler C.Level.O2 prog);
      Alcotest.(check (list int)) (name ^ " -O3 keeps") [ 0 ] (markers_of compiler C.Level.O3 prog);
      match Bisect.find_regression compiler C.Level.O3 prog ~marker:0 with
      | Bisect.Regression r ->
        Alcotest.(check string) (name ^ " blames its -O3 VRP cap") id r.Bisect.offending.C.Version.id
      | Bisect.Always_missed | Bisect.Not_missed -> Alcotest.failf "%s: no regression" name)
    [ (C.Gcc_sim.compiler, "bfc196d9e15"); (C.Llvm_sim.compiler, "2e6bf085ffd") ]

let test_threader_witness () =
  let prog = parse threader_witness in
  let lowered = Dce_ir.Lower.program prog in
  let size feats = Dce_backend.Asm.size (Dce_backend.Codegen.program (C.Pipeline.run feats lowered)) in
  List.iter
    (fun compiler ->
      List.iter
        (fun level ->
          let what = compiler.C.Compiler.name ^ " " ^ C.Level.to_string level in
          let _, trace = C.Compiler.run (C.Compiler.session prog) compiler level in
          Alcotest.(check bool) (what ^ ": jump-thread changes the IR") true
            (List.exists
               (fun r -> r.C.Passmgr.sr_label = "jump-thread" && r.C.Passmgr.sr_changed)
               trace);
          let feats = C.Compiler.features compiler level in
          Alcotest.(check bool) (what ^ ": threading off changes the size") true
            (size { feats with C.Features.jump_thread = Dce_opt.Jump_thread.Off } <> size feats))
        [ C.Level.Os; C.Level.O2; C.Level.O3 ])
    compilers

(* The witness set: the paper listings, the two witnesses above, the
   ledger's corpus (8 programs at seed 20220228), and case 5 of the
   [--seed 42] corpus, whose assembly size moves with call summaries while
   no program above does. *)
let witness_set =
  lazy
    (List.map (fun l -> parse l.Core.Listings.src) Core.Listings.all
    @ [ parse vrp_cap_witness; parse threader_witness ]
    @ List.map
        (fun seed -> Core.Instrument.program (smith_program seed))
        (Dce_smith.Smith.corpus_seeds ~seed:20220228 ~count:8 @ [ 4003995281415747265 ]))

(* A setting earns its place when some value the histories give it, set on
   a HEAD or full-history config, changes a surviving marker or the
   assembly size of a witness. *)
let test_every_field_earns_its_place () =
  let history_length compiler = List.length compiler.C.Compiler.history in
  let records = features_at (fun c -> List.init (history_length c + 1) Fun.id) in
  List.iter
    (fun r ->
      if List.fold_left (fun d (_, copy) -> copy r d) C.Features.nothing feature_fields <> r then
        Alcotest.fail "feature_fields misses a field")
    records;
  let programs = List.mapi (fun i p -> (i, Dce_ir.Lower.program p)) (Lazy.force witness_set) in
  let observe feats ir =
    let asm = Dce_backend.Codegen.program (C.Pipeline.run feats ir) in
    (Dce_backend.Asm.surviving_markers asm, Dce_backend.Asm.size asm)
  in
  let base_obs = Hashtbl.create 64 in
  let observe_base base (i, ir) =
    match Hashtbl.find_opt base_obs (base, i) with
    | Some o -> o
    | None ->
      let o = observe base ir in
      Hashtbl.replace base_obs (base, i) o;
      o
  in
  let bases = features_at (fun c -> [ C.Compiler.head c; history_length c ]) in
  List.iter
    (fun (field, copy) ->
      let moves value base =
        let flipped = copy value base in
        flipped <> base
        && List.exists (fun (i, ir) -> observe flipped ir <> observe_base base (i, ir)) programs
      in
      let values = List.sort_uniq compare (List.map (fun r -> copy r C.Features.nothing) records) in
      if not (List.exists (fun v -> List.exists (moves v) bases) values) then
        Alcotest.failf "Features.%s changes no witness's markers or assembly size" field)
    feature_fields

let suite =
  [
    ("bisect: exponential = linear", `Slow, test_exp_linear_agree);
    ("bisect: O(log head) probes", `Slow, test_probe_bound);
    ("bisect: Not_missed edge", `Quick, test_not_missed);
    ("bisect: Always_missed edge", `Quick, test_always_missed);
    ("bisect: regression invariants", `Slow, test_regression_invariants);
    ("bisect: probe cache transparency", `Slow, test_cache_transparency);
    ("bisect: component table dedup", `Quick, test_component_table_dedup);
    ("campaign: jobs determinism", `Slow, test_campaign_jobs_determinism);
    ("campaign: equals sequential bisection", `Slow, test_campaign_equals_sequential);
    ("campaign: resume from torn journal", `Slow, test_campaign_resume);
    ("session: shared per case, transparent", `Slow, test_shared_session_transparent);
    ("session: pipeline executions unchanged", `Slow, test_sessions_keep_pipeline_count);
    ("session: campaign corruption blamed", `Slow, test_campaign_corruption_blamed);
    ("campaign: chaos names the corpus case", `Slow, test_campaign_chaos_names_corpus_case);
    ("session: another program's session refused", `Quick, test_session_of_another_program);
    ("witness: the -O3 VRP caps", `Quick, test_vrp_cap_witness);
    ("witness: the jump threader", `Quick, test_threader_witness);
    ("features: every field earns its place", `Slow, test_every_field_earns_its_place);
  ]
