(** The supervision and placement settings every campaign runner takes:
    the per-case budgets and retry policy the {!Engine} enforces, the
    deterministic {!Chaos} plan, checked-IR mode, and the {!Engine}'s
    worker-process grid.
    The record is private, so {!v}, which validates every field, is the only
    way to build one: a runner never sees an out-of-range setting.

    Not here, on purpose: [jobs] (a labelled argument existing callers pass
    as is), the journal path (a per-call resource), and mode-specific knobs
    ([ratio], [cache], [level], [bundle_dir]). *)

type chaos = {
  spec : string;  (** the plan as written — run ids and [meta.json] use it byte for byte *)
  plan : Chaos.plan;
}

type t = private {
  deadline : float option;  (** per-case wall-clock seconds *)
  step_budget : int option;  (** per-case guard poll budget *)
  retries : int;  (** extra attempts for a transient fault *)
  chaos : chaos option;
  checked : bool;  (** as requested; {!checked} adds the chaos rule *)
  workers : int;  (** worker processes; 1 runs in-process *)
}

val default : t
(** No budgets, no retries, no chaos, unchecked, one in-process worker. *)

val v :
  ?deadline:float ->
  ?step_budget:int ->
  ?retries:int ->
  ?chaos:string ->
  ?checked:bool ->
  ?workers:int ->
  unit ->
  t
(** Validate and build.  Raises [Failure] naming the offending CLI flag
    (["--workers: must be >= 1 (got 0)"]) when [deadline <= 0],
    [step_budget < 1], [retries < 0], [workers < 1], or the chaos spec does
    not parse. *)

val max_jobs : int
(** The most domains the OCaml runtime allows at once (128 on a 64-bit
    system), the calling domain included. *)

val jobs : int -> int
(** [jobs n] is [n] when it is a valid [--jobs] value, [1 <= n <= max_jobs];
    raises like {!v}. *)

val slots : int -> int
(** The same check for [serve --slots]. *)

val checked : t -> bool
(** Whether to validate the IR after every pass: as requested, or forced
    by a corrupt-IR injection, which is invisible without it. *)

val plan : t -> Chaos.plan
(** The chaos plan; [[]] without one. *)

val check_cases : count:int -> t -> unit
(** Raises [Failure] naming [--count] when [count] is negative, and naming
    [--chaos] when the plan names a case index at or past [count]: a fault
    planted in a case the campaign does not have would silently never fire.
    Runners whose case count is known before they start call it. *)
