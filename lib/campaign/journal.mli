(** The JSONL campaign journal: one JSON record per line, appended as cases
    complete, enabling checkpoint/resume of interrupted campaigns.

    Line 1 is a header identifying the campaign parameters; every further
    line is one completed case.  The file is append-only and flushed per
    line, so a campaign killed mid-run loses at most the line being written.
    {!load} tolerates exactly that: a trailing line that does not parse (or
    lacks a newline terminator) is discarded, earlier lines survive. *)

type header = {
  h_campaign : string;  (** e.g. ["hunt"] — which runner wrote the journal *)
  h_seed : int;
  h_count : int;
}

type t
(** An open journal being appended to.  Writes are serialized internally, so
    worker domains may append concurrently. *)

val open_append : ?existing:(header * Json.t list * int) option -> path:string -> header -> t
(** Open [path] for appending, creating parent directories as needed.  When
    the file is empty or new, the header line is written first; when it
    already has content, the existing header must match (the resume case) —
    a mismatch raises [Failure] naming both parameter sets.  A file with a
    complete first line that is no journal header is refused with [Failure]
    naming [path], and left untouched; a file whose only content is an
    unterminated first line (a campaign killed before its header was
    flushed) starts over.

    [existing] is the result of a {!load} the caller already performed; pass
    it to avoid parsing the journal a second time on open (the engine loads
    once to prefill its outcome slots and hands the parse through).  Omit it
    and [open_append] loads for itself.

    The journal is opened exclusively: an advisory [lockf] lock plus an
    in-process open-path registry (POSIX record locks do not conflict within
    one process) make a concurrent second opener fail fast with [Failure]
    ("locked by another campaign"), before the existing file is touched.
    {!close} releases both. *)

val append : t -> Json.t -> unit
(** Serialize on one line, append, flush.  Thread/domain-safe. *)

val close : t -> unit

val load : path:string -> (header * Json.t list * int) option
(** Parse an existing journal: [None] when the file does not exist or has no
    valid header line; otherwise the header, every parseable complete case
    line in file order, and the number of {e complete} lines discarded — the
    first unparseable line (a torn write, or a [nan] emitted by a pre-fix
    build) plus everything after it, since later records could depend on
    campaign state the lost line recorded.  An unterminated final line is
    dropped without being counted (it is the expected in-flight write of an
    interrupted campaign). *)
