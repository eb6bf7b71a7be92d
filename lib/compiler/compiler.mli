(** A simulated compiler: a name plus a commit history.

    Compilation is [MiniC AST → Lower → Pipeline(features) → Codegen], where
    the features come from the history at the requested version (HEAD by
    default).  This is the object the core library drives for differential
    testing and that {!Dce_bisect} binary-searches over. *)

type t = {
  name : string;
  history : Version.commit list;
}

val create : name:string -> Version.commit list -> t
(** The validated constructor: {!Version.validate_history} rejects histories
    with colliding commit ids (raising [Failure]) before the compiler can be
    used.  Both built-in compilers and every synthetic patched compiler
    ({!Dce_repair}) are built through this. *)

val head : t -> int
(** HEAD version index (post-HEAD fix commits excluded). *)

val features : t -> ?version:int -> Level.t -> Features.t

val compile_ir :
  t -> ?version:int -> ?validate:bool -> Level.t -> Dce_minic.Ast.program -> Dce_ir.Ir.program
(** Lower and optimize; the result is what {!Dce_backend.Codegen} consumes.
    [version] defaults to HEAD. *)

val compile :
  t -> ?version:int -> ?validate:bool -> Level.t -> Dce_minic.Ast.program -> Dce_backend.Asm.t
(** Full compilation to pseudo-assembly. *)

val surviving_markers :
  t -> ?version:int -> ?validate:bool -> Level.t -> Dce_minic.Ast.program -> int list
(** Convenience: marker ids still present in the generated assembly.
    [validate] (default false) runs {!Dce_ir.Validate} after every pass,
    raising {!Passmgr.Ir_invalid} on the first stage that breaks the IR. *)

(** {1 Traced variants}

    Same results as the functions above, plus the {!Pipeline} stage trace
    (per-stage wall time, IR deltas, markers eliminated). *)

val compile_ir_traced :
  t ->
  ?version:int ->
  ?validate:bool ->
  Level.t ->
  Dce_minic.Ast.program ->
  Dce_ir.Ir.program * Passmgr.trace

val compile_traced :
  t ->
  ?version:int ->
  ?validate:bool ->
  Level.t ->
  Dce_minic.Ast.program ->
  Dce_backend.Asm.t * Passmgr.trace

val surviving_markers_traced :
  t ->
  ?version:int ->
  ?validate:bool ->
  Level.t ->
  Dce_minic.Ast.program ->
  int list * Passmgr.trace

(** {1 Compiling a prepared program} *)

val surviving_markers_prepared :
  t -> ?version:int -> Level.t -> Pipeline.prepared -> int list * Passmgr.trace
(** {!surviving_markers_traced} from an already lowered program: the configs
    of one program share its lowering and its pipeline stage memo
    ({!Pipeline.prepare}, which also carries the [validate] choice). *)

(** {1 Observables}

    Everything the oracles read off one compiled program.  The marker oracle
    consumes [obs_markers]; the code-size oracle consumes [obs_size]
    ({!Dce_backend.Asm.size} of the same assembly).  Bundling them means one
    compile — and one cache entry — answers both. *)

type observables = {
  obs_markers : int list;  (** surviving marker ids, deduplicated, sorted *)
  obs_size : int;  (** {!Dce_backend.Asm.size} of the generated assembly *)
}

val observables :
  t -> ?version:int -> ?validate:bool -> Level.t -> Dce_minic.Ast.program -> observables

(** {1 Content-addressed compile caching}

    The reduction engine's fast path: {!surviving_markers_cached} memoizes
    whole compiles keyed by [(compiler, version, level, program)] — the
    program compared structurally on every lookup, so hash collisions cannot
    alias two candidates — and lowers through a per-function memo keyed by
    [(global environment, function-body hash)], so candidates that touch one
    function re-lower only that function.  Results are bit-identical to
    {!surviving_markers} (memoized compilation is observably transparent,
    like the {!Passmgr} analysis cache).  Both caches are process-global,
    domain-safe, and shared across configurations and reductions. *)

val observables_cached : t -> ?version:int -> Level.t -> Dce_minic.Ast.program -> observables
(** Same result as {!observables}; a full pipeline executes only on a memo
    miss (counted in {!cache_stats}).  The memo stores the whole observable
    record, so a marker probe and a size probe of the same
    [(compiler, version, level, program)] share one compile — this is what
    lets a size campaign ride on the marker campaign's cache (and vice
    versa) for free. *)

val surviving_markers_cached :
  t -> ?version:int -> Level.t -> Dce_minic.Ast.program -> int list
(** [(observables_cached ...).obs_markers] — same result as
    {!surviving_markers}. *)

val asm_size_cached : t -> ?version:int -> Level.t -> Dce_minic.Ast.program -> int
(** [(observables_cached ...).obs_size] — {!Dce_backend.Asm.size} of the
    compiled program, through the same memo. *)

type cache_stats = {
  cs_surviving : Compile_cache.counters;
      (** whole-compile memo; [misses] counts full pipeline executions *)
  cs_lower_fn : Compile_cache.counters;  (** per-function lowering memo *)
}

val cache_stats : unit -> cache_stats
val clear_caches : unit -> unit
