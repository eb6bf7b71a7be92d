(** A mutable table keyed by register or label number, for state a pass
    reads and writes in its inner loop.

    Keys are dense small integers ([0 .. fn_next_var) or
    [0 .. fn_next_label)), so the table is an array of chunks of 64
    slots: a key is two array indexings away from its value, with no
    hashing and no polymorphic comparison.  A chunk is allocated only
    when a key in its range is first written, and every chunk is small
    enough for the minor heap; a function whose registers are numbered
    from a high base (as after SSA renaming) pays only for the ranges it
    uses. *)

type 'a t

val create : int -> 'a -> 'a t
(** [create n default]: a table sized for keys [0 .. n-1] (it grows past
    them on demand) in which every key reads [default]. *)

val get : 'a t -> int -> 'a
(** The value last written at the key, or the default: for a key never
    written, a negative key, or a key past every chunk. *)

val set : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] on a negative key. *)
