(** The monotonic clock every in-library deadline and duration reads.

    Wall-clock time ([Unix.gettimeofday]) can jump — NTP steps, manual
    changes, suspend — which would trip a deadline early, extend it
    indefinitely, or produce negative durations.  This clock only moves
    forward. *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary fixed origin: only
    differences between two readings are meaningful. *)
