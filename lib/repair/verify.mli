(** The A/B verification campaign: a lean differential sweep over the smoke
    corpus producing a {!Dce_campaign.Run_store.report} — per-configuration
    missed markers, assembly sizes, and level inversions — runnable against
    base and patched compilers alike.

    Each compiler is paired with a {e display name}: the patched compiler
    compiles under its own signature-bearing identity (so the compile cache
    never aliases base and patched cells) while its report rows carry the
    base compiler's name, making the base and patched reports comparable row
    by row.  The rival compiler keeps its identity in both runs, so every one
    of its cells in the patched run is a cache hit from the base run.

    Deterministic and jobs/workers-independent, like every campaign: the
    report is a pure function of (compilers, seed, count). *)

type vrow = {
  vr_compiler : string;  (** display name *)
  vr_level : Dce_compiler.Level.t;
  vr_missed : int list;  (** dead markers this configuration kept, sorted *)
  vr_size : int;
}

type vcase = { vc_seed : int; vc_rejected : string option; vc_rows : vrow list }

type t = {
  vy_report : Dce_campaign.Run_store.report;
  vy_result : vcase Dce_campaign.Engine.result;  (** the sweep the report folds *)
}

val codec : vcase Dce_campaign.Engine.codec
(** The ["verify-case"] journal record kind. *)

val levels : Dce_compiler.Level.t list
(** [[O1; Os; O2; O3]] — [O0] keeps every marker and only adds noise. *)

val campaign :
  ?journal:string ->
  ?settings:Dce_campaign.Settings.t ->
  ?jobs:int ->
  name:string ->
  compilers:(Dce_compiler.Compiler.t * string) list ->
  seed:int ->
  count:int ->
  unit ->
  t
(** [campaign ~name ~compilers:[(compiler, display); ...] ~seed ~count ()].
    [name] becomes the report's campaign identity (and the journal header
    campaign when [journal] is given); [settings] place and supervise the
    sweep as in every campaign.  It is a {!Dce_campaign.Case} campaign: the
    ["generate"], ["instrument"] and ["ground-truth"] stages, then one
    ["differential"] stage over every configuration. *)
