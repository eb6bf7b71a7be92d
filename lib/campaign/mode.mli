(** The seeded campaign modes, defined once for both front ends.

    Each entry of {!all} is one corpus mode.  The [dce_hunt] subcommand
    and the serve daemon's job kind of the same name are both derived from
    it, so adding a mode is adding an entry here.  The daemon runs {!all}
    as it is; the CLI rebuilds an entry from its own flags with the
    constructors below.  [reduce] and [repair] are no entries: their input
    is a program file and their result a reduced program or a repair
    record, not a [(seed, count)] run report.

    The two bisecting modes, {!bisect} and [level ~bisect:true], run one
    runner ({!Bisect_campaign}) and compose their halves alike: the first
    half's text and epilogue, then the bisection's summary and Tables 3/4,
    with the bisection's quarantine as the run's. *)

type run = {
  text : string;  (** stdout before the epilogue *)
  coda : string;  (** stdout after it (hunt's crash-bundle lines) *)
  report_text : string;  (** [report.txt] *)
  findings : int;
  summary : string;  (** one line *)
  report : Run_store.report;  (** [report.json]; its campaign is the mode's name *)
  seeds : int array;  (** name the epilogue's quarantined cases *)
  quarantine : Engine.quarantined list;  (** the epilogue's *)
  quarantined : int;  (** every half of the run counted *)
  resumed : int;
  metrics : Metrics.summary;
      (** the last half's, with [chaos_unfired] over the whole run *)
}

type t = {
  name : string;  (** job kind and run-id campaign *)
  command : string;  (** the [dce_hunt] subcommand *)
  doc : string;  (** its help text *)
  count : int;  (** its default [--count] *)
  run :
    ?journal:string -> settings:Settings.t -> jobs:int -> seed:int -> count:int -> unit -> run;
}

val hunt :
  ?bundle_dir:string ->
  ?minimize:(still_faulty:(Dce_minic.Ast.program -> bool) -> dir:string -> int) ->
  unit ->
  t
(** The marker hunt ({!Corpus.run}).  [bundle_dir] writes a crash bundle
    per quarantined case, and [minimize] shrinks each one under a
    predicate replaying the analysis with the run's budgets, returning how
    many it shrank (the reducer lives above this library). *)

val triage : t
(** The hunt's findings diagnosed and deduplicated into Table-5 reports. *)

val value : t
(** The §4.4 value checks ({!Corpus.run_value}). *)

val size : ratio:float -> t
(** The code-size oracle ({!Oracle_campaign.run_size}) at cross-compiler
    threshold [ratio]. *)

val level : bisect:bool -> t
(** The level-inversion oracle ({!Oracle_campaign.run_inversion}); with
    [bisect], every inversion is also bisected to its offending commit
    ({!Bisect_campaign.inversions}) and printed as Tables 3/4. *)

val bisect : level:Dce_compiler.Level.t -> t
(** The hunt's corpus, then its missed markers at [level] bisected into
    Tables 3/4.  Only the bisection half journals. *)

val all : t list
(** [hunt], [triage], [value-hunt], [size-hunt], [level-hunt] and
    [bisect], at their defaults. *)

val find : string -> t option

val epilogue : metrics:bool -> run -> string
(** The quarantine listing, the resumed and journal-skipped counts, one
    line per chaos injection that never fired, and with [metrics] the
    {!Metrics.to_string} table. *)

val persist : root:string -> Settings.t -> run -> string
(** {!Run_store.persist} the run under [root]; returns its directory. *)
