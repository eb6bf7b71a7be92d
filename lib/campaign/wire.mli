(** The line-JSON plumbing shared by every process boundary: the engine's
    coordinator and its worker processes, and the campaign service's
    daemon, clients and job children.

    A message is one {!Json} value on one line.  Readers are buffered, so a
    message split across reads is reassembled and several messages in one
    read are all delivered; an unterminated tail left when the peer hangs up
    is a torn write and is never delivered. *)

val send : Unix.file_descr -> Json.t -> bool
(** Write one JSON line, looping over short writes.  [false] when the peer
    is gone ([EPIPE], [ECONNRESET]); never raises. *)

type reader

val reader : Unix.file_descr -> reader

val input : reader -> string list option
(** One [read(2)]: the lines it completed, oldest first (possibly none).
    [None] at end of stream or on a read error.  Meant to follow a {!select}
    that reported the descriptor readable, so it does not block. *)

val line : reader -> string option
(** The next complete line, reading as often as it takes.  [None] at end of
    stream or on a read error. *)

val select : Unix.file_descr list -> float -> Unix.file_descr list
(** The readable subset of the descriptors, waiting at most [timeout]
    seconds (forever when negative).  A signal arriving meanwhile returns
    [[]] instead of raising [EINTR], so the caller's loop can check its
    stop flag.  [select [] t] is an interruptible sleep. *)

val fork : close:Unix.file_descr list -> (unit -> int) -> int
(** Fork a child.  Stdio is flushed first, so the child does not repeat
    the parent's buffered output.  The child closes [close], runs the body
    and [_exit]s with its result (2 when it raises), so the parent's
    [at_exit] handlers never run twice.  Returns the child's pid. *)

val with_stop_signals : (int -> unit) -> (unit -> 'a) -> 'a
(** [with_stop_signals on_stop f] runs [f] with [on_stop] handling SIGINT
    and SIGTERM and with SIGPIPE ignored, so a write to a dead peer fails
    with [EPIPE] instead of killing the process.  The previous dispositions
    are restored on every exit path. *)
