(** Deterministic fault injection for the campaign engine.

    A chaos {!plan} names, per case index, which fault to inject and at which
    stage.  The engine arms the calling worker's plan entry before each case
    attempt; {!fire} is called from every {!Engine.stage} boundary and raises
    (or misbehaves) exactly when the armed case/stage matches.  Everything is
    a pure function of the plan — no randomness at injection time — so a
    chaos run is reproducible and the soak test can assert byte-level
    invariants about the non-faulted cases.

    The module deliberately knows nothing about {!Engine}; the engine depends
    on it, not the other way round. *)

(** What to inject. *)
type fault =
  | Crash  (** raise {!Injected_crash} at the stage boundary *)
  | Hang
      (** spin at the stage boundary polling the ambient {!Dce_support.Guard}
          until the budget trips; refuses to arm without an active guard *)
  | Slow  (** burn a fixed number of guard polls, then continue normally *)
  | Transient of int
      (** raise {!Injected_transient} on the first [n] attempts of the case,
          then succeed — the retry policy's test vector *)
  | Corrupt_ir
      (** plant an invalid instruction in the named pass's output via
          {!Dce_compiler.Passmgr.set_ir_hook}; requires checked mode to be
          observed *)

type injection = {
  inj_case : int;  (** case index within the campaign *)
  inj_stage : string;
      (** engine stage name (["generate"], ["differential"], …) — or, for
          {!Corrupt_ir}, the pipeline pass label to blame (e.g. ["dce"]) *)
  inj_fault : fault;
}

type plan = injection list

exception Injected_crash of string
(** Message always contains ["injected"]. *)

exception Injected_transient of string
(** Transient-classified by the engine's default retry predicate. *)

val is_transient : exn -> bool
(** True exactly for {!Injected_transient} — the default [?transient]
    classifier of {!Engine.run}. *)

(** {1 Arming (engine side)} *)

val arm : plan -> case:int -> attempt:int -> unit
(** Install the plan entries for [case] on the calling domain, for the given
    0-based [attempt].  Also installs the {!Dce_compiler.Passmgr} IR hook
    when the case has a {!Corrupt_ir} injection.  Call before running the
    case; idempotent. *)

val disarm : unit -> unit
(** Clear the calling domain's armed state and the IR hook. *)

val fire : string -> unit
(** Stage-boundary hook: injects the armed fault for the current case if its
    [inj_stage] matches.  No-op when nothing is armed or nothing matches. *)

type mark
(** A point in the process-wide log of injected faults. *)

val mark : unit -> mark

val fired_since : mark -> injection list
(** The faults injected in this process since [mark], newest first, one
    entry per firing (an injection that fires on several attempts or stage
    entries repeats). *)

(** {1 Plans} *)

val has_corrupt : plan -> bool

val of_string : string -> (plan, string) result
(** Parse a plan spec: comma-separated [KIND@CASE\[:STAGE\]] entries where
    KIND is [crash], [hang], [slow], [corrupt], or [transient\[N\]] (default
    [N] = 1).  STAGE defaults to ["generate"], except [corrupt] which
    defaults to the ["dce"] pass.  Example:
    ["crash@1,transient2@3:differential,hang@5:ground-truth"]. *)

val to_string : plan -> string
(** Inverse of {!of_string} (canonical form). *)

val signature : plan -> string
(** Stable short form baked into the journal campaign header so a resume
    under a different plan is rejected. *)
