(** The pass manager: cached analyses, instrumented pass execution, and
    fixpoint round driving.

    This is the subsystem {!Pipeline} schedules passes through.  It owns

    - an {b analysis manager} serving {!Dce_opt.Meminfo.analyze} (whole
      program) from a {!meminfo_memo} keyed by the program, and each
      function's predecessor map and dominator tree from a record found by
      the function itself ([==]).  A function a stage replaced inherits the
      analyses of the one it replaced when the two have the same CFG
      inputs, so nothing is invalidated and no pass declares anything;
    - an {b instrumentation layer} recording, per executed stage, the wall
      time, block/instruction deltas, whether the IR changed, and which
      markers the stage eliminated — the {!trace} that {!Dce_core.Diagnose}
      and [dce_hunt explain --trace] consume.  The figures are kept per
      function and re-measured only for the functions a stage changed;
    - a {b fixpoint driver} that repeats a round of passes until a whole
      round leaves the IR unchanged (or a round budget is exhausted);
    - a {b stage memo} ({!memo}) that replays a stage already run with the
      same pass key on a structurally identical input.

    Caching is observably transparent: a cache hit returns a result
    structurally identical to a fresh recomputation, so pipelines built on
    the manager emit bit-identical code to uncached execution. *)

module Ir = Dce_ir.Ir

(** {1 Checked mode and fault injection} *)

exception Ir_invalid of { pass : string; errors : string list }
(** Raised by the pipeline's checked mode when {!Dce_ir.Validate} rejects a
    pass's output: [pass] is the guilty stage label, [errors] the validator
    diagnostics.  The campaign engine quarantines it as a distinct
    [Ir_invalid] fault with per-pass attribution.  A printer is registered
    with [Printexc]. *)

val set_ir_hook : (string -> Ir.program -> Ir.program) option -> unit
(** Install (or clear) the calling domain's IR fault hook.  When set, the
    hook is applied to every executed pass's output program — label first —
    {e before} the validation check, so a corruption it plants is blamed on
    that pass.  This is the chaos harness's corrupt-IR injection point; it
    must only be armed together with checked mode, otherwise the corrupt
    program flows on undetected. *)

(** {1 Analysis cache counters} *)

type counters = {
  meminfo_hits : int;
  meminfo_misses : int;
  cfg_hits : int;
  cfg_misses : int;
  dom_hits : int;
  dom_misses : int;
  memo_hits : int;  (** stages replayed from a {!memo} *)
  memo_misses : int;  (** stages executed and stored in a {!memo} *)
}

val counters : unit -> counters
(** Process-wide totals since the last {!reset_counters}. *)

val reset_counters : unit -> unit

val hit_rate : counters -> float
(** Overall analysis hits / (hits + misses), [0.] when nothing was
    requested.  Stage-memo counts are not part of it: a replayed stage
    requests no analysis at all. *)

val memo_hit_rate : counters -> float
(** Stage-memo hits / (hits + misses), [0.] when no memo was consulted. *)

(** {1 The analysis manager} *)

type meminfo_memo
(** Mutable and single-domain: maps programs to their
    {!Dce_opt.Meminfo.analyze} result.  Programs are found by the stage
    memo's bounded per-function hash and confirmed by [==]-first
    structural equality.  It keeps every program it has seen alive, so
    scope one to one program and its configs (see {!Pipeline.prepare}). *)

val meminfo_memo : unit -> meminfo_memo

type t
(** Mutable: tracks the current program and the analyses computed for it. *)

val create : meminfo_memo -> Ir.program -> t
(** A manager whose Meminfo requests the given memo answers. *)

val meminfo : t -> Dce_opt.Meminfo.t
(** Whole-program memory analysis of the manager's current program, from
    the manager's {!meminfo_memo}: analyzed on the first request for a
    program structurally equal to it (a miss), served from the memo on
    every later one (a hit). *)

val predecessors : t -> Ir.func -> Ir.label list Ir.Imap.t
(** [Cfg.predecessors] of one function of the current program, computed on
    the first request for it (a miss) and served after that (a hit).  A
    stage's output function keeps the answer of the same-named input
    function when both have the same entry, the same block labels and, per
    block, a terminator that is [==] or has the same {!Ir.successors}:
    everything the analysis reads.  A function not in the current program
    is analyzed afresh, as a miss, and nothing is kept. *)

val dominators : t -> Ir.func -> Dce_ir.Dom.t
(** [Dom.compute] of one function, cached and carried over exactly as
    {!predecessors}. *)

(** {1 Passes and stage records} *)

type pass = {
  p_label : string;  (** the stage name in traces and schedules *)
  p_key : string;  (** the label and the marshalled config: the {!memo} key *)
  p_run : t -> Ir.program -> Ir.program;
}

val make_pass : string -> config:'c -> ('c -> t -> Ir.program -> Ir.program) -> pass
(** [make_pass label ~config run] runs [run config] under [label].  The
    pass key is the label plus [Marshal.to_string config []], so [run] must
    read its settings from [config] alone, never from values it closes
    over: two passes with one key are assumed to compute the same function
    of the program.  [Marshal] raises on a closure, so a config cannot hide
    one.  A pass declares nothing about the analyses it keeps: the manager
    finds that from its output. *)

type stage_record = {
  sr_label : string;
  sr_round : int;  (** 1-based round within a fixpoint section, 0 outside *)
  sr_time : float;  (** seconds spent in the pass, on {!Dce_support.Clock} *)
  sr_changed : bool;  (** the pass changed the IR structurally *)
  sr_blocks_before : int;
  sr_blocks_after : int;
  sr_instrs_before : int;
  sr_instrs_after : int;
  sr_markers_eliminated : int list;  (** sorted marker ids *)
}

type trace = stage_record list
(** In execution order.  Stages skipped by fixpoint early exit do not
    appear. *)

(** {1 The stage memo} *)

type memo
(** Mutable and single-domain: maps (pass key, input program) to the stage's
    output and stage record.  Inputs are found by a bounded per-function
    hash and confirmed by [==]-first structural equality, the
    {!Compile_cache} rule; an output is stored only when the stage changed
    the IR.  Scope one memo to one program (see {!Pipeline.prepare}): it
    keeps every input it has seen alive. *)

val memo : unit -> memo

(** {1 Execution} *)

val run_pass :
  ?round:int ->
  ?check:(string -> Ir.program -> unit) ->
  ?memo:memo ->
  t ->
  pass ->
  Ir.program ->
  Ir.program * stage_record
(** Runs one pass under the manager: times it, hands back the input's own
    parts wherever the output equals them (the input itself when the pass
    changed nothing), and records the stage.  [check] is called with the
    stage label and the post-stage program (the validation hook).  Without
    [memo] every stage executes: this is the reference the tests compare
    memo-shared runs against.

    With [memo], a stage whose key and input the memo holds is replayed
    instead: one {!Dce_support.Guard.poll} with the label (as an execution
    polls) and the stored output and record (with this call's [round], the
    stored [sr_time]).  A replay calls neither the IR hook nor [check], so a
    memo must only be shared by runs whose [check] is the same. *)

val run_fixpoint :
  ?check:(string -> Ir.program -> unit) ->
  ?memo:memo ->
  max_rounds:int ->
  t ->
  pass list ->
  Ir.program ->
  Ir.program * trace
(** Repeats the round until it makes no change, at most [max_rounds] times.
    Running a round on IR it cannot change is observationally identical to
    the old fixed-count schedule, so early exit never alters the output. *)

(** {1 Trace rendering} *)

val trace_to_string : ?changed_only:bool -> trace -> string
(** A table with one line per stage: round, name, wall time, block and
    instruction deltas, markers eliminated.  [changed_only] (default false)
    drops no-op stages. *)

val markers_eliminated_by : trace -> marker:int -> stage_record option
(** The stage that eliminated the marker, if any stage did. *)

val attribution : trace -> (string * int list) list
(** Markers eliminated per stage label, in execution order, no-op stages
    omitted. *)
