(** Executing one job inside the forked job child.

    A campaign job ({!Job.Mode}) runs its {!Dce_campaign.Mode} entry at
    the entry's defaults, with the checkpoint journal routed into the
    job's {!Dce_campaign.Run_store} directory, so a killed attempt (worker
    death, daemon crash, drain) resumes per-case on the next one.  The run
    is persisted through {!Dce_campaign.Mode.persist}, the call
    [dce_hunt MODE --run-root] makes, so a job's artifacts are
    byte-identical to the CLI's with the same parameters. *)

val run_id_of : Job.spec -> string option
(** The stable {!Dce_campaign.Run_store.run_id} this job persists under;
    [None] for [reduce] (its result is the reduced program, not a run). *)

val journal_of : runs_root:string -> Job.spec -> string option

type outcome = {
  oc_run_dir : string option;
  oc_cases : int;
  oc_resumed : int;  (** cases restored from the journal on this attempt *)
  oc_quarantined : int;
  oc_findings : int;
  oc_summary : string;
}

val outcome_to_json : outcome -> Dce_campaign.Json.t
val outcome_of_json : Dce_campaign.Json.t -> outcome

val execute : runs_root:string -> workers:int -> jobs:int -> Job.spec -> outcome
(** Run the job to completion in this process under {!Job.settings}
    (campaigns may fork the fabric underneath when [workers > 1]).  The
    outcome's findings, quarantined count and summary are the mode's
    ({!Dce_campaign.Mode.run}).  Raises on failure — the caller (the daemon's job-child
    wrapper) records the error and exit status. *)
