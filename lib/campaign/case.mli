(** The corpus case: the one scaffold every seeded campaign mode runs on.

    The paper's method is one loop per program — generate, instrument,
    compute ground truth, compile every configuration, compare (§3).  A
    corpus campaign is that loop fanned out over the [count] corpus seeds
    {!Dce_smith.Smith} derives from a master [seed]: case [i] is generated
    from the [i]-th of them whatever the [jobs], [workers] or resume
    history, so every mode's output is a pure function of [(seed, count)].
    The marker hunt, the §4.4 value checks, the size and level-inversion
    oracles and repair's A/B sweep differ only in what they do with each
    generated program; this module is everything they share. *)

val program : int -> Dce_minic.Ast.program
(** [program seed]: the raw (uninstrumented) program a case seed
    generates — the one definition every campaign, journal decoder and
    crash bundle regenerates a case from. *)

val run :
  ?journal:string ->
  ?settings:Settings.t ->
  codec:'a Engine.codec ->
  campaign:string ->
  jobs:int ->
  seed:int ->
  count:int ->
  (Engine.ctx -> int -> Dce_minic.Ast.program -> 'a) ->
  'a Engine.seeded
(** [run ~codec ~campaign ~jobs ~seed ~count body] checks [count] against
    [settings] ({!Settings.check_cases}), derives the corpus seeds and runs
    each case through {!Engine.run}: a ["generate"] stage builds the
    case's {!program}, then [body ctx case_seed raw] computes the outcome.
    [campaign] names the journal header; [settings] (default
    {!Settings.default}) supervise and place the cases. *)

val valid :
  Engine.ctx ->
  Dce_minic.Ast.program ->
  (Dce_minic.Ast.program * Dce_core.Ground_truth.t, string) result
(** The valid-case prologue of the oracle modes: an ["instrument"] stage
    and a ["ground-truth"] stage.  [Ok (instrumented, truth)] for a program
    that runs to completion, [Error reason] for one ground truth rejects
    (a trap or fuel exhaustion). *)
