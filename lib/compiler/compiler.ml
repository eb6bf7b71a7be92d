type t = { name : string; history : Version.commit list }

let create ~name history =
  Version.validate_history history;
  { name; history }

let head t = Version.head t.history

let features t ?version level =
  let v = Option.value ~default:(head t) version in
  Version.features_at t.history v level

let compile_ir_prepared t ?version level prepared =
  Pipeline.run_prepared (features t ?version level) prepared

let prepare ?validate ast = Pipeline.prepare ?validate (Dce_ir.Lower.program ast)

let compile_ir_traced t ?version ?validate level ast =
  compile_ir_prepared t ?version level (prepare ?validate ast)

let compile_ir t ?version ?validate level ast =
  fst (compile_ir_traced t ?version ?validate level ast)

let compile_traced t ?version ?(validate = false) level ast =
  let ir, trace = compile_ir_traced t ?version ~validate level ast in
  (Dce_backend.Codegen.program ir, trace)

let compile t ?version ?validate level ast =
  fst (compile_traced t ?version ?validate level ast)

let surviving_markers_prepared t ?version level prepared =
  let ir, trace = compile_ir_prepared t ?version level prepared in
  (Dce_backend.Asm.surviving_markers (Dce_backend.Codegen.program ir), trace)

let surviving_markers_traced t ?version ?validate level ast =
  surviving_markers_prepared t ?version level (prepare ?validate ast)

let surviving_markers t ?version ?validate level ast =
  fst (surviving_markers_traced t ?version ?validate level ast)

(* ------------------------------------------------------------------ *)
(* observables: everything the oracles read off one compile            *)
(* ------------------------------------------------------------------ *)

type observables = {
  obs_markers : int list;
  obs_size : int;
}

let observe asm =
  { obs_markers = Dce_backend.Asm.surviving_markers asm; obs_size = Dce_backend.Asm.size asm }

let observables t ?version ?validate level ast =
  observe (compile t ?version ?validate level ast)

(* ------------------------------------------------------------------ *)
(* content-addressed compile caches (the reduction fast path)          *)
(* ------------------------------------------------------------------ *)

module Ast = Dce_minic.Ast
module Lower = Dce_ir.Lower

(* Per-function lowering memo.  Lowering a function reads nothing but the
   function itself and the global name→type environment (see {!Lower.func}),
   so (environment signature, function) is a complete key; candidates of a
   reduction share almost every function with their parent, so all but the
   edited function hit.  The cached IR is shared structurally — the IR is
   persistent data (symbols' init arrays are never written after build). *)
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

let observables_cached t ?version level ast =
  let v = Option.value ~default:(head t) version in
  Compile_cache.find_or_add surviving_cache (t.name, v, level, ast) (fun () ->
      let feats = features t ~version:v level in
      let ir = Pipeline.run feats (lower_cached ast) in
      observe (Dce_backend.Codegen.program ir))

let surviving_markers_cached t ?version level ast =
  (observables_cached t ?version level ast).obs_markers

let asm_size_cached t ?version level ast = (observables_cached t ?version level ast).obs_size

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
