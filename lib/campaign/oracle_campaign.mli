(** The size and level-inversion oracle campaigns: the two non-marker
    regression classes run through the full {!Engine} machinery — Domain
    pool, case-indexed outcomes, quarantine, metrics, JSONL journal/resume.

    {b Size campaign} (["size-hunt"], record kind ["size-case"]): per valid
    program, the {!Dce_core.Differential.size_curve} of both simulated
    compilers at [-Os]/[-O2].  The journal stores the {e curve}, never the
    findings — {!Dce_core.Differential.size_findings_of} is pure, so reports
    can be re-derived (even re-thresholded via [ratio]) from a journal
    without recompiling anything.

    {b Inversion campaign} (["level-hunt"], record kind ["inversion-case"]):
    per valid program and compiler, surviving sets at [-O1]/[-Os]/[-O2]/[-O3]
    (through the shared compile cache) feed
    {!Dce_core.Differential.inversions}; each inversion is attributed to the
    pass that eliminates the marker at the low level via one traced compile
    per distinct (compiler, low level).  The journal stores the oracle's
    inputs (dead set, surviving sets) plus the guilty-pass triples
    (attribution is the one expensive, uncacheable step); inversions are
    re-derived on decode.  {!Bisect_campaign.inversions} bisects them to
    their offending commits ([level-hunt --bisect]).

    Both campaigns run on {!Case}: the ["generate"] stage and then its
    valid-case prologue (["instrument"], ["ground-truth"]), so they compile
    the same {e instrumented} program the marker hunt does.  Their compiles
    go through cached sessions, so they share whole-compile memo cells with
    each other in one process; the marker hunt ({!Dce_core.Analysis.run})
    compiles in an uncached session, so it shares none with them.  As
    everywhere: [jobs = N] output is byte-identical to [jobs = 1], and
    journal records of unknown kind are skipped-with-count, never fatal. *)

(** {1 Size campaign} *)

type size_case = {
  sc_seed : int;
  sc_rejected : string option;  (** ground-truth rejection reason *)
  sc_curve : (string * Dce_compiler.Level.t * int) list;
}

val size_codec : size_case Engine.codec
(** The ["size-case"] journal record codec (exposed for tests). *)

val run_size :
  ?journal:string ->
  ?settings:Settings.t ->
  jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  size_case Engine.seeded
(** Programs that trap or exhaust the ground-truth executor's fuel are
    rejected, exactly as in the marker campaign.  [settings] are the
    supervision and placement controls of {!Engine.run} (byte-identical
    output at any [workers], as everywhere). *)

val default_ratio : float
(** 1.25: the cross-compiler threshold [dce_hunt size-hunt] and the serve
    daemon's size jobs report with. *)

val size_findings :
  ratio:float -> size_case Engine.seeded -> (int * Dce_core.Differential.size_finding) list
(** [(corpus case, finding)] pairs, ascending case order — derived from the
    journaled curves with the cross-compiler threshold [ratio], a reporting
    parameter. *)

val size_report : ratio:float -> size_case Engine.seeded -> string
(** Summary line ("… N size findings …"), size-delta histogram, and
    per-guilty-config counts. *)

val size_run_report : ratio:float -> seed:int -> size_case Engine.seeded -> Run_store.report
(** The persisted [report.json] of a ["size-hunt"] run with master seed
    [seed]: both sizes of every finding as size rows, and the cases
    ground truth rejected. *)

(** {1 Level-inversion campaign} *)

type inv_finding = {
  if_compiler : string;
  if_inversion : Dce_core.Differential.inversion;
  if_guilty : string;
      (** label of the pass that eliminates the marker at [iv_low] — what
          the [iv_high] pipeline is failing to do *)
}

type inv_case = {
  ic_seed : int;
  ic_rejected : string option;
  ic_dead : Dce_ir.Ir.Iset.t;
  ic_surviving : (string * (Dce_compiler.Level.t * Dce_ir.Ir.Iset.t) list) list;
  ic_findings : inv_finding list;
}

val inversion_levels : Dce_compiler.Level.t list
(** [[O1; Os; O2; O3]] — [O0] never eliminates, so it is excluded. *)

val inv_codec : inv_case Engine.codec
(** The ["inversion-case"] journal record codec (exposed for tests). *)

val run_inversion :
  ?journal:string ->
  ?settings:Settings.t ->
  jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  inv_case Engine.seeded

val inversion_findings : inv_case Engine.seeded -> (int * inv_finding) list
(** [(corpus case, finding)] pairs, ascending case order, gcc-sim before
    llvm-sim within a case, ascending marker within a compiler. *)

val inversion_report : inv_case Engine.seeded -> string
(** Summary line ("… N level inversions …"), per-(compiler, low→high)
    counts, and per-guilty-pass counts. *)

val inversion_run_report : seed:int -> inv_case Engine.seeded -> Run_store.report
(** The persisted [report.json] of a ["level-hunt"] run with master seed
    [seed]: one inversion row per finding, and the cases ground truth
    rejected. *)
