type t = { name : string; history : Version.commit list }

let create ~name history =
  Version.validate_history history;
  { name; history }

let head t = Version.head t.history

let features t ?version level =
  let v = Option.value ~default:(head t) version in
  Version.features_at t.history v level

module Ast = Dce_minic.Ast
module Lower = Dce_ir.Lower

(* ------------------------------------------------------------------ *)
(* the per-function lowering memo                                      *)
(* ------------------------------------------------------------------ *)

(* Lowering a function reads nothing but the function itself and the
   global name→type environment (see {!Lower.func}), so (environment
   signature, function) is a complete key; candidates of a reduction share
   almost every function with their parent, so all but the edited function
   hit.  The cached IR is shared structurally — the IR is persistent data
   (symbols' init arrays are never written after build). *)
let lower_fn_cache :
    ((string * Ast.typ) list * Ast.func, Dce_ir.Ir.func * Dce_ir.Ir.symbol list) Compile_cache.t =
  Compile_cache.create
    ~hash:(fun (env_sig, fn) -> Hashtbl.hash env_sig lxor Ast.hash_func fn)
    ~equal:( = ) ()

let lower_cached ast =
  Lower.program_with
    ~lower_func:(fun env fn ->
      Compile_cache.find_or_add lower_fn_cache
        (Lower.env_signature env, fn)
        (fun () -> Lower.func env fn))
    ast

(* ------------------------------------------------------------------ *)
(* sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  s_ast : Ast.program;
  s_validate : bool;
  s_cache : bool;
  mutable s_lowered : (Dce_ir.Ir.program * Pipeline.prepared) option;
}

let session ?(validate = false) ?(cache = false) ast =
  { s_ast = ast; s_validate = validate; s_cache = cache; s_lowered = None }

(* lowered on first demand: a session whose every compile the whole-compile
   memo answers never lowers at all *)
let prepared s =
  match s.s_lowered with
  | Some l -> l
  | None ->
    let ir = if s.s_cache then lower_cached s.s_ast else Lower.program s.s_ast in
    let l = (ir, Pipeline.prepare ~validate:s.s_validate ir) in
    s.s_lowered <- Some l;
    l

let program s = s.s_ast
let lowered s = fst (prepared s)

let run s t ?version level = Pipeline.run_prepared (features t ?version level) (snd (prepared s))

type observables = {
  obs_markers : int list;
  obs_size : int;
}

(* Whole-compile observables memo: (compiler, version, level, program) →
   surviving markers + assembly size.  The program itself is part of the key
   (compared structurally on every lookup), so a hash collision can never
   alias two different candidates.  The memo granularity is deliberately the
   whole program: per-function memoization of the *optimized* pipeline would
   be unsound under the cross-function passes (inline, ipa-cp, function-dce,
   whole-program memory analysis) — see DESIGN.md.  Storing all observables
   in one entry is what makes the size oracle free to run next to the marker
   oracle: whichever campaign compiles a (config, program) first, the sibling
   probes of the other oracle are cache hits. *)
let surviving_cache : (string * int * Level.t * Ast.program, observables) Compile_cache.t =
  Compile_cache.create
    ~hash:(fun (name, v, level, prog) ->
      Hashtbl.hash (name, v, level) lxor Ast.hash_program prog)
    ~equal:( = ) ()

let observe s t ?version level =
  let v = Option.value ~default:(head t) version in
  let compile () =
    let asm = Dce_backend.Codegen.program (fst (run s t ~version:v level)) in
    { obs_markers = Dce_backend.Asm.surviving_markers asm; obs_size = Dce_backend.Asm.size asm }
  in
  (* the memo's entries were not validated, so a validating session never
     reads them *)
  if s.s_cache && not s.s_validate then
    Compile_cache.find_or_add surviving_cache (t.name, v, level, s.s_ast) compile
  else compile ()

type cache_stats = {
  cs_surviving : Compile_cache.counters;  (** whole-compile memo; misses = pipelines run *)
  cs_lower_fn : Compile_cache.counters;   (** per-function lowering memo *)
}

let cache_stats () =
  {
    cs_surviving = Compile_cache.counters surviving_cache;
    cs_lower_fn = Compile_cache.counters lower_fn_cache;
  }

let clear_caches () =
  Compile_cache.clear surviving_cache;
  Compile_cache.clear lower_fn_cache
