(** The campaign service daemon: a single-threaded select loop accepting
    jobs over a Unix-domain socket, dispatching them into forked job
    children (one process group each, killed whole on cancel/deadline/
    drain), and journalling every queue transition so a killed daemon
    resumes exactly where it stopped.

    The daemon never spawns a domain — jobs run in forked children, and
    any fabric workers they need are forked underneath them — so it stays
    on the safe side of the OCaml 5 fork-after-domains ban. *)

type chaos = {
  mutable kill_job_at : int option;
      (** SIGKILL the running job's process group once its campaign journal
          shows [n] finished cases (fires once) *)
  mutable crash_daemon_at : int option;
      (** [_exit 70] without any cleanup once any job reaches [n] cases —
          simulates a daemon crash for the recovery tests (fires once) *)
}

val parse_chaos : string -> (chaos, string) result
(** ["kill-job@N,crash-daemon@M"] — either component optional. *)

type config = {
  cf_spool : string;  (** spool directory: jobs/, runs/, daemon.lock, serve.sock *)
  cf_socket : string option;  (** listen path; default [<spool>/serve.sock] *)
  cf_workers : int;  (** fabric workers per job *)
  cf_jobs : int;  (** intra-campaign domains per job *)
  cf_slots : int;  (** concurrently running jobs *)
  cf_drain_grace : float;  (** seconds between drain SIGTERM and SIGKILL *)
  cf_tick : float;  (** supervision poll interval (select timeout) *)
  cf_backoff : float;  (** retry backoff base: [base * 2^(strike-1)] seconds *)
  cf_chaos : chaos option;
  cf_quiet : bool;
}

val default : spool:string -> config
(** One slot, one worker, 5s grace, 50ms tick, 0.5s backoff. *)

val socket_path : config -> string
val lock_path : config -> string

val run : config -> unit
(** Serve until SIGTERM/SIGINT or a [shutdown] request, then drain:
    close the socket, stop dispatching, let in-flight jobs finish (signal
    path: SIGTERM them and wait [cf_drain_grace], then SIGKILL), requeue
    interrupted jobs strike-free, persist everything, release the lock.
    Raises [Failure] when another daemon already holds the spool lock, and,
    before touching the spool, when [cf_workers], [cf_jobs] or [cf_slots]
    is below 1 (the {!Dce_campaign.Settings} message naming the flag). *)
