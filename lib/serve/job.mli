(** Campaign jobs: the immutable request ({!spec}) and the crash-safe
    lifecycle fold.

    A job's lifecycle is an append-only JSONL state journal —
    [queued → running → done | failed | cancelled], with [requeued] edges
    for retry-with-backoff, drain, and daemon restart — written only by the
    daemon.  {!view_of_events} folds the journal into the current state;
    replaying it at startup is how a killed daemon resumes exactly where it
    stopped (the campaign journal under the job's run directory carries the
    finer per-case progress). *)

type kind =
  | Mode of string  (** the name of a {!Dce_campaign.Mode.all} entry *)
  | Reduce  (** shrink [sp_source] preserving marker [sp_marker] *)

val kind_names : string list
(** Every kind's name: the {!Dce_campaign.Mode.all} names, then ["reduce"]. *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind
(** Raises [Failure] listing {!kind_names} for any other name. *)

type spec = {
  sp_kind : kind;
  sp_seed : int;
  sp_count : int;
  sp_lane : string;  (** fair-queueing lane; round-robin across lanes *)
  sp_deadline : float option;  (** whole-attempt wall seconds, daemon-killed *)
  sp_case_deadline : float option;  (** per-case Guard deadline *)
  sp_step_budget : int option;  (** per-case Guard step budget *)
  sp_retries : int;  (** per-case transient retries inside the campaign *)
  sp_strikes : int;  (** attempts before quarantine (default 2: two strikes) *)
  sp_chaos : string option;  (** campaign chaos plan *)
  sp_source : string option;  (** reduce: the C source text *)
  sp_marker : int option;  (** reduce: marker to preserve *)
}

val default_spec : spec
(** Hunt, seed 20220228, count 50, lane ["default"], no budgets, two
    strikes. *)

val settings : ?workers:int -> spec -> Dce_campaign.Settings.t
(** The campaign settings a job runs under.  The per-case deadline is the
    explicit case budget when set, otherwise the whole-job deadline, so a
    runaway case trips [Guard.Budget_exceeded] cooperatively before the
    daemon's SIGKILL backstop.  A job spec has no checked slot: serve jobs
    never run checked.  Raises [Failure] like {!Dce_campaign.Settings.v}. *)

val spec_to_json : spec -> Dce_campaign.Json.t
val spec_of_json : Dce_campaign.Json.t -> spec
(** Raises [Failure] on a missing/unknown kind, or when the budgets, retry
    count or chaos plan are out of range ({!settings} fails, the whole-job
    deadline is not positive, or the plan names a case at or past [count]);
    other fields default. *)

(** {1 Lifecycle events} *)

type event =
  | Queued
  | Running of int  (** child pid (= its process group after [setsid]) *)
  | Requeued of { rq_reason : string; rq_strike : bool; rq_not_before : float }
      (** back to the queue: a strike (worker death) with backoff gate, or a
          strike-free requeue (drain, daemon restart) *)
  | Done
  | Failed of string
  | Cancelled

val event_to_json : time:float -> event -> Dce_campaign.Json.t
val event_of_json : Dce_campaign.Json.t -> event option
(** [None] for an unknown/garbled record — skipped, never fatal. *)

type state = S_queued | S_running of int | S_done | S_failed of string | S_cancelled

val state_to_string : state -> string
val terminal : state -> bool

type view = {
  v_state : state;
  v_strikes : int;  (** strike requeues over the whole history *)
  v_not_before : float;  (** retry backoff gate (absolute time) *)
}

val view_of_events : event list -> view
(** Fold the state journal: last event wins for the state, strikes
    accumulate (so the two-strikes quarantine survives daemon restarts).
    An effective [S_running] state at load time means the previous daemon
    died mid-job — the caller requeues it. *)
