(** A simulated compiler: a name plus a commit history.

    Compilation is [MiniC AST → Lower → Pipeline(features) → Codegen], where
    the features come from the history at the requested version (HEAD by
    default).  This is the object the core library drives for differential
    testing and that {!Dce_bisect} binary-searches over.

    {1 Three caching layers}

    Every compile goes through a {!session}: one program, lowered once,
    compiled by any number of (compiler, version, level) configurations.
    Three transparent memos sit under it:

    + the {b whole-compile memo}, process-global, keyed by
      [(compiler name, version, level, program)], storing the
      {!observables}, so a marker probe and a size probe share an entry.
      Only [~cache:true] sessions consult it, and
      {!cache_stats}[.cs_surviving.misses] counts the pipelines it ran;
    + the {b session stage memo} ({!Pipeline.prepared}), keyed by
      [(pass key, input IR)]: adjacent versions differ in one feature, so
      most of their stages replay;
    + the {b per-function lowering memo}, process-global, keyed by
      [(global environment, function)], which [~cache:true] sessions lower
      through.

    A session is mutable, belongs to one domain, and keeps every stage
    input alive until dropped, so callers scope it to one program of one
    case: {!Dce_core.Analysis} one per case, uncached; a bisection campaign
    one per case, shared by both compilers and every marker; a level-inversion
    bisection one per finding; a staged reduction predicate a fresh one per
    compile.  Never keep one for a whole campaign. *)

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

(** {1 Compiling} *)

type session
(** One program with its lowering and its pipeline stage memo. *)

val session : ?validate:bool -> ?cache:bool -> Dce_minic.Ast.program -> session
(** Runs nothing yet: the program is lowered on first demand.  [validate]
    (default false) runs {!Dce_ir.Validate} after every executed stage,
    raising {!Passmgr.Ir_invalid} on the first stage that breaks the IR; the
    memo then replays only validated stages.  [cache] (default false) lowers
    through the per-function lowering memo and lets {!observe} use the
    whole-compile memo — except in a validating session, whose compiles
    never read entries that were not validated. *)

val program : session -> Dce_minic.Ast.program
(** The program the session was made for. *)

val lowered : session -> Dce_ir.Ir.program
(** The lowered program every configuration of the session starts from. *)

val run : session -> t -> ?version:int -> Level.t -> Dce_ir.Ir.program * Passmgr.trace
(** Optimize the session's program for one configuration ([version]
    defaults to HEAD) on the session's stage memo; the result is what
    {!Dce_backend.Codegen} consumes.  The trace is the per-stage record
    (wall time, IR deltas, markers eliminated); a replayed stage keeps the
    record, time included, of the run that executed it. *)

(** Everything the oracles read off one compiled program.  The marker
    oracle consumes [obs_markers]; the code-size oracle consumes [obs_size]
    ({!Dce_backend.Asm.size} of the same assembly).  Bundling them means one
    compile — and one whole-compile memo entry — answers both. *)
type observables = {
  obs_markers : int list;  (** surviving marker ids in the generated assembly *)
  obs_size : int;  (** {!Dce_backend.Asm.size} of the generated assembly *)
}

val observe : session -> t -> ?version:int -> Level.t -> observables
(** {!run}, code generation, and the assembly scan.  In a [~cache:true]
    session the whole-compile memo answers first, and only a miss runs the
    pipeline (on the session's stage memo). *)

(** {1 Cache counters} *)

type cache_stats = {
  cs_surviving : Compile_cache.counters;
      (** whole-compile memo; [misses] counts full pipeline executions *)
  cs_lower_fn : Compile_cache.counters;  (** per-function lowering memo *)
}

val cache_stats : unit -> cache_stats
val clear_caches : unit -> unit
(** Empty both process-global memos and zero their counters.  Sessions keep
    their own stage memos. *)
