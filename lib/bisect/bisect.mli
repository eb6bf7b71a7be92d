(** Regression bisection over a simulated compiler's commit history
    (paper §4.2, "Missed optimization diversity" and Tables 3/4).

    A {e regression} is a marker the compiler eliminates at some past version
    but misses at HEAD.  Bisection finds the {e offending commit}: the first
    commit after which the marker is missed.  As in the paper, the procedure
    is (a) find a good (eliminating) version, (b) search the range between it
    and HEAD.  Goodness is not globally monotone (ancient versions are simply
    too weak), so step (a) walks backwards exponentially from HEAD and step
    (b) assumes monotonicity only inside the found range — the same working
    assumption the paper's shell scripts make.

    Offending commits aggregate into the component/file tables the paper
    reports (Table 3 for LLVM, Table 4 for GCC). *)

type regression = {
  offending : Dce_compiler.Version.commit;
  offending_index : int;  (** the version at which the miss first appears *)
  last_good : int;
  compilations : int;     (** compile-and-check probes spent *)
}

type outcome =
  | Regression of regression
  | Always_missed  (** no version eliminates the marker: not a regression *)
  | Not_missed     (** HEAD eliminates the marker: nothing to bisect *)

val find_regression :
  ?search:[ `Linear | `Exponential ] ->
  ?session:Dce_compiler.Compiler.session ->
  Dce_compiler.Compiler.t ->
  Dce_compiler.Level.t ->
  Dce_minic.Ast.program ->
  marker:int ->
  outcome
(** [find_regression compiler level instrumented ~marker]. [`Exponential]
    (default) probes HEAD-1, HEAD-2, HEAD-4, … then binary-searches;
    [`Linear] walks straight down (exact but more probes).

    [session], a session of [prog], answers every probe: in a
    [~cache:true] session one cached compile answers the probe for {e every}
    marker of the program, and a pipeline that does run replays the stages
    an adjacent version already ran, so bisecting sibling markers of one
    test case compiles each probed version once; a validating session
    validates every stage a probe runs.  Without a session each probe
    compiles from scratch, unvalidated.  The outcome and the probe count
    are identical either way — memoized compilation is
    observably transparent.  Raises [Invalid_argument] if [session] is not
    a session of [prog]. *)

val find_regression_counted :
  ?search:[ `Linear | `Exponential ] ->
  ?session:Dce_compiler.Compiler.session ->
  Dce_compiler.Compiler.t ->
  Dce_compiler.Level.t ->
  Dce_minic.Ast.program ->
  marker:int ->
  outcome * int
(** Like {!find_regression}, additionally returning the compile-and-check
    probes spent for {e every} outcome (the [compilations] field only exists
    inside [Regression]); the campaign engine charges probes with this. *)

type component_row = { component : string; commits : int; files : int }

val component_table : Dce_compiler.Version.commit list -> component_row list
(** Deduplicates commits by id (hash-set based, linear in the input — the
    whole-corpus aggregation path feeds thousands of commits through here),
    groups by component, counts distinct files — the shape of the paper's
    Tables 3/4. Rows sorted by component name. *)
