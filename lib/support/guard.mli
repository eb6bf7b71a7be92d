(** Cooperative execution budgets: deadlines and step limits for untrusted
    work, enforced at poll points.

    Pure OCaml code cannot be preempted, so a hung case — a pass fixpoint
    that never converges, an unroll bomb, an interpreter loop past its fuel
    hook — would stall its worker domain forever.  The supervision answer is
    {e cooperative}: long-running subsystems call {!poll} at natural
    boundaries (campaign stage entry, every pass-manager stage, every few
    hundred interpreter steps), and a guard armed with a deadline or a step
    budget turns the next poll into a {!Budget_exceeded} raise, which the
    campaign engine quarantines as a [Timeout] with the guilty poll site.

    The guard is {e ambient per domain}: {!with_guard} installs a guard for
    the dynamic extent of a thunk in the calling domain, and {!poll} reads
    it — so deep subsystems (the interpreter, the pass manager) need no
    budget parameter threaded through their interfaces.  When no guard is
    armed (the default), {!poll} is a single physical-equality test and
    never raises, so un-supervised callers pay nothing. *)

exception Budget_exceeded of { site : string; steps : int; elapsed : float }
(** Raised by {!poll}: [site] is the poll point that tripped (a campaign
    stage, a pass label, ["interp"], or a chaos injection site), [steps] the
    number of polls this guard served, [elapsed] the seconds since the
    guard was created, on the monotonic {!Clock}.  A human-readable printer
    is registered with [Printexc]. *)

type t

val unlimited : t
(** The guard that never trips — the ambient default. *)

val create : ?deadline:float -> ?steps:int -> unit -> t
(** A fresh guard.  [deadline] is seconds from now on the monotonic
    {!Clock}, so a wall-clock jump can neither trip nor extend it (checked
    at most every 128 polls, plus on the first poll, to keep polling cheap);
    [steps] is a hard bound on the number of polls served.  With neither,
    returns {!unlimited}. *)

val poll : site:string -> unit
(** Count one step against the calling domain's ambient guard; raises
    {!Budget_exceeded} when a budget is exhausted.  No-op (and no
    allocation) under {!unlimited}. *)

val with_guard : t -> (unit -> 'a) -> 'a
(** Install the guard as the calling domain's ambient guard for the
    duration of the thunk, restoring the previous guard afterwards (also on
    exceptions).  Nests. *)

val active : unit -> bool
(** Whether the calling domain currently has a non-{!unlimited} guard —
    used by the chaos harness to refuse to inject an un-cuttable hang. *)

val steps_used : t -> int
(** Polls served so far. *)
