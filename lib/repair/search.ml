module C = Dce_compiler
module Core = Dce_core
module Engine = Dce_campaign.Engine

type outcome = {
  so_marker : int;
  so_guilty_stage : string option;
  so_singles : int;  (** single-edit candidates evaluated *)
  so_pairs : int;    (** pair candidates evaluated *)
  so_probes : int;   (** total candidates evaluated (= compiles charged) *)
  so_passing : Core.Diagnose.repair list list;
      (** every candidate under which the marker is eliminated, in search
          order — head is the accepted minimal edit set, the tail feeds the
          verification fallback *)
}

let default_max_pairs = 64

(* One probe: does the patched compiler eliminate the marker?  Routed
   through the content-addressed compile cache — the patched compiler's
   name embeds the edit signature, so every (candidate, program) cell is
   its own cache entry, and a re-search (or the jobs-determinism test)
   hits instead of recompiling.  Each probe compiles in its own session:
   BENCH_repair's gated search_cache_speedup divides the cold search by the
   cached re-search, and a session shared across patched compilers would
   speed up the cold side alone. *)
let eliminates compiler level prog ~marker edits =
  let patched = Edit.patched compiler ~level edits in
  let session = C.Compiler.session ~cache:true prog in
  not (List.mem marker (C.Compiler.observe session patched level).C.Compiler.obs_markers)

(* Evaluate a candidate batch on the Domain pool.  Results land in a
   case-indexed array (the engine's determinism contract), so the passing
   list is independent of [jobs]. *)
let evaluate ~jobs compiler level prog ~marker candidates =
  let arr = Array.of_list candidates in
  let result =
    Engine.run ~jobs ~count:(Array.length arr) (fun ctx i ->
        Engine.stage ctx "probe" (fun () -> eliminates compiler level prog ~marker arr.(i)))
  in
  let passing = ref [] in
  Array.iteri
    (fun i o -> match o with Engine.Done true -> passing := arr.(i) :: !passing | _ -> ())
    result.Engine.outcomes;
  List.rev !passing

let search ?(jobs = 1) ?(max_pairs = default_max_pairs) compiler level prog ~marker =
  let guilty, ordered = Core.Diagnose.ordered_catalogue compiler level prog ~marker in
  (* stage 1+2: guilty-component repairs first, then the full single-flag
     sweep — one batch, since the ordering already encodes the priority *)
  let singles = List.map (fun r -> [ r ]) ordered in
  let passing_singles = evaluate ~jobs compiler level prog ~marker singles in
  if passing_singles <> [] then
    {
      so_marker = marker;
      so_guilty_stage = guilty;
      so_singles = List.length singles;
      so_pairs = 0;
      so_probes = List.length singles;
      so_passing = passing_singles;
    }
  else begin
    (* stage 3: bounded pair search.  Every single failed individually, so
       any passing pair is a minimal edit set.  Pairs follow the same
       priority order ((i, j) lexicographic over the ordered catalogue),
       truncated to the probe budget. *)
    let arr = Array.of_list ordered in
    let n = Array.length arr in
    let pairs = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        pairs := [ arr.(i); arr.(j) ] :: !pairs
      done
    done;
    let pairs = Dce_support.Listx.take max_pairs (List.rev !pairs) in
    let passing_pairs = evaluate ~jobs compiler level prog ~marker pairs in
    {
      so_marker = marker;
      so_guilty_stage = guilty;
      so_singles = List.length singles;
      so_pairs = List.length pairs;
      so_probes = List.length singles + List.length pairs;
      so_passing = passing_pairs;
    }
  end
