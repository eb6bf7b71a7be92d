(** Small list utilities shared across the project. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if the list is shorter). *)

val drop : int -> 'a list -> 'a list
(** The list without its first [n] elements ([[]] if shorter). *)

val map_shared : ('a -> 'a) -> 'a list -> 'a list
(** [List.map] for an [f] that returns its argument itself when it changes
    nothing: the result is the input list itself (physically) when [f] does
    so for every element, and shares the input's unchanged suffix
    otherwise.  Applies [f] left to right. *)

val filter_shared : ('a -> bool) -> 'a list -> 'a list
(** [List.filter] that returns the input list itself when it keeps every
    element, and shares the input's fully kept suffix otherwise. *)

val split_at : int -> 'a list -> 'a list * 'a list
(** [split_at n xs] is [(take n xs, drop n xs)]. *)

val group_by : ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Groups elements by key, preserving first-occurrence order of keys and
    original order within each group. Keys are compared with polymorphic
    equality. *)

val count_by : ('a -> 'k) -> 'a list -> ('k * int) list
(** Like [group_by] but returns group sizes. *)

val uniq : 'a list -> 'a list
(** Removes duplicates (polymorphic equality), keeping first occurrences. *)

val sum : int list -> int
(** Integer sum. *)

val percent : int -> int -> float
(** [percent part whole] is [100. *. part / whole], or [0.] when [whole = 0]. *)
