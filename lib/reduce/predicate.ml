open Dce_minic
module Compile_cache = Dce_compiler.Compile_cache

type cost = Free | Execution | Pipeline

type stage = {
  st_name : string;
  st_cost : cost;
  st_run : Ast.program -> Ast.program option;
}

type outcome =
  | Pass
  | Rejected of int
  | Crashed of { at : string; error : string }

type stage_count = {
  sc_name : string;
  sc_cost : cost;
  sc_entered : int;
  sc_rejected : int;
}

type t = {
  stages : stage array;
  entered : int Atomic.t array;
  rejected : int Atomic.t array;
  compile_cached : bool;
}

let v ?(compile_cached = false) stages =
  if stages = [] then invalid_arg "Predicate.v: empty stage list";
  let stages = Array.of_list stages in
  let n = Array.length stages in
  {
    stages;
    entered = Array.init n (fun _ -> Atomic.make 0);
    rejected = Array.init n (fun _ -> Atomic.make 0);
    compile_cached;
  }

let stage_names t = Array.to_list (Array.map (fun s -> s.st_name) t.stages)
let uses_compile_cache t = t.compile_cached

let run t prog =
  let samples = ref [] in
  let rec go i p =
    if i >= Array.length t.stages then Pass
    else begin
      let st = t.stages.(i) in
      (* supervision poll, deliberately outside the catch below: a budget
         trip must quarantine the whole case as a timeout, not be swallowed
         as one candidate's crash *)
      Dce_support.Guard.poll ~site:("reduce:" ^ st.st_name);
      Atomic.incr t.entered.(i);
      let t0 = Dce_support.Clock.now () in
      let res = try Ok (st.st_run p) with e -> Error (Printexc.to_string e) in
      samples := (st.st_name, Dce_support.Clock.now () -. t0) :: !samples;
      match res with
      | Ok (Some p') -> go (i + 1) p'
      | Ok None ->
        Atomic.incr t.rejected.(i);
        Rejected i
      | Error error ->
        Atomic.incr t.rejected.(i);
        Crashed { at = st.st_name; error }
    end
  in
  let verdict = go 0 prog in
  (verdict, List.rev !samples)

let counts t =
  Array.to_list
    (Array.mapi
       (fun i st ->
         {
           sc_name = st.st_name;
           sc_cost = st.st_cost;
           sc_entered = Atomic.get t.entered.(i);
           sc_rejected = Atomic.get t.rejected.(i);
         })
       t.stages)

let pipeline_stages t =
  Array.fold_left (fun acc st -> if st.st_cost = Pipeline then acc + 1 else acc) 0 t.stages

(* Pipeline-cost stages an uncached staged run executes to reach [outcome]:
   all of them for a pass, only those before the rejecting stage otherwise.
   This is the "staged but unmemoized" baseline the stats compare against. *)
let pipelines_for t outcome =
  let upto n =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      if t.stages.(i).st_cost = Pipeline then incr acc
    done;
    !acc
  in
  match outcome with
  | Pass -> upto (Array.length t.stages)
  | Rejected i -> upto (i + 1) (* the rejecting stage itself ran *)
  | Crashed { at; _ } ->
    let idx = ref (Array.length t.stages) in
    Array.iteri (fun i st -> if st.st_name = at && !idx = Array.length t.stages then idx := i) t.stages;
    upto (min (!idx + 1) (Array.length t.stages))

let typecheck_stage =
  {
    st_name = "typecheck";
    st_cost = Free;
    st_run =
      (fun p -> match Typecheck.check p with Ok normalized -> Some normalized | Error _ -> None);
  }

let of_fun predicate =
  v
    [
      typecheck_stage;
      {
        st_name = "predicate";
        st_cost = Execution;
        st_run = (fun p -> if predicate p then Some p else None);
      };
    ]

(* A fresh session per compile: with [compile_cache] the whole-compile memo
   answers first, exactly as for any other cached probe. *)
let observe ~compile_cache (cfg : Dce_core.Differential.config) p =
  Dce_compiler.Compiler.observe
    (Dce_compiler.Compiler.session ~cache:compile_cache p)
    cfg.compiler ?version:cfg.version cfg.level

let survives_in ~compile_cache ~marker cfg p =
  List.mem marker (observe ~compile_cache cfg p).Dce_compiler.Compiler.obs_markers

let marker_diff ~compile_cache ~keep_missed_by ~eliminated_by ~marker () =
  let survives = survives_in ~compile_cache ~marker in
  v ~compile_cached:compile_cache
    [
      typecheck_stage;
      (* free syntactic pre-filter: a marker that is no longer in the program
         at all cannot be in the ground truth's dead set, so the expensive
         interpreter run below would reject anyway *)
      {
        st_name = "marker-present";
        st_cost = Free;
        st_run = (fun p -> if List.mem marker (Ast.markers_of_program p) then Some p else None);
      };
      {
        st_name = "ground-truth";
        st_cost = Execution;
        st_run =
          (fun p ->
            match Dce_core.Ground_truth.compute p with
            | Dce_core.Ground_truth.Valid truth
              when Dce_ir.Ir.Iset.mem marker truth.Dce_core.Ground_truth.dead ->
              Some p
            | _ -> None);
      };
      {
        st_name = "keeper-survives";
        st_cost = Pipeline;
        st_run = (fun p -> if survives keep_missed_by p then Some p else None);
      };
      {
        st_name = "eliminator-kills";
        st_cost = Pipeline;
        st_run = (fun p -> if survives eliminated_by p then None else Some p);
      };
    ]

(* The size-oracle reduction predicate: keep shrinking while [larger]'s
   output still exceeds [smaller]'s by the ratio (and by [min_gap]
   instructions — tiny programs make impressive ratios out of a two-instr
   difference, and a repro below the absolute floor stops being a repro).
   The valid-execution stage keeps the candidate a campaign-valid test case,
   exactly the rejection rule of the hunt that produced the finding. *)
let size_gap ~compile_cache ~larger ~smaller ?(min_ratio = 1.25) ?(min_gap = 1) () =
  let size cfg p = (observe ~compile_cache cfg p).Dce_compiler.Compiler.obs_size in
  v ~compile_cached:compile_cache
    [
      typecheck_stage;
      {
        st_name = "valid-execution";
        st_cost = Execution;
        st_run =
          (fun p ->
            match Dce_core.Ground_truth.compute p with
            | Dce_core.Ground_truth.Valid _ -> Some p
            | Dce_core.Ground_truth.Rejected _ -> None);
      };
      (* one stage, two pipelines: the gap needs both sizes at once, and a
         stage cannot pass a value forward — so pipelines_for undercounts
         this stage by one (with the compile cache on, real counts come off
         the cache anyway) *)
      {
        st_name = "size-gap";
        st_cost = Pipeline;
        st_run =
          (fun p ->
            let ls = size larger p and ss = size smaller p in
            if
              ls > ss
              && ls - ss >= min_gap
              && float_of_int ls >= min_ratio *. float_of_int ss
            then Some p
            else None);
      };
    ]

(* The inversion-oracle reduction predicate: within one compiler, the marker
   must stay dead by execution, eliminated at the weak level, and alive at
   the strong one — {!marker_diff} with both configs pointing at the same
   compiler. *)
let level_inversion ~compile_cache ~compiler ~low ~high ~marker () =
  let survives level p =
    survives_in ~compile_cache ~marker
      { Dce_core.Differential.compiler; level; version = None }
      p
  in
  v ~compile_cached:compile_cache
    [
      typecheck_stage;
      {
        st_name = "marker-present";
        st_cost = Free;
        st_run = (fun p -> if List.mem marker (Ast.markers_of_program p) then Some p else None);
      };
      {
        st_name = "ground-truth";
        st_cost = Execution;
        st_run =
          (fun p ->
            match Dce_core.Ground_truth.compute p with
            | Dce_core.Ground_truth.Valid truth
              when Dce_ir.Ir.Iset.mem marker truth.Dce_core.Ground_truth.dead ->
              Some p
            | _ -> None);
      };
      {
        st_name = "low-eliminates";
        st_cost = Pipeline;
        st_run = (fun p -> if survives low p then None else Some p);
      };
      {
        st_name = "high-keeps";
        st_cost = Pipeline;
        st_run = (fun p -> if survives high p then Some p else None);
      };
    ]
