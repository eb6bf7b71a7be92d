(** A minimal JSON value type, printer, and parser for the campaign journal.

    Deliberately tiny: the journal only needs objects, arrays, strings,
    booleans, null, and integers (floats are emitted for metrics but parsed
    back as [Float]).  One journal record is one value serialized on one line
    ([to_string] never emits newlines), which is what makes the JSONL journal
    truncation-tolerant: a partial trailing line simply fails to parse. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single-line serialization with full string escaping.  Non-finite floats
    (nan, ±infinity) serialize as [null] — JSON cannot represent them, and a
    bare [nan] token would make the line unparseable on resume. *)

val of_string : string -> (t, string) result
(** Parse one value; [Error] describes the first syntax error.  Trailing
    garbage after the value is an error. *)

(** {1 Accessors} — all return [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

(** {1 Exception-raising accessors} for decoding trusted journal lines;
    raise [Failure] with a field-path message on mismatch. *)

val get : t -> string -> t
val get_int : t -> string -> int
val get_str : t -> string -> string
val get_list : t -> string -> t list
val int_exn : t -> int

(** {1 Shared value codecs}

    The one wire shape of an optimization level (its
    {!Dce_compiler.Level.to_string}, e.g. ["-O2"]) and of a marker set (an
    ascending list of ints), shared by every journal record kind and by the
    run report.  The decoders raise [Failure] on any other shape. *)

val of_level : Dce_compiler.Level.t -> t
val level_exn : t -> Dce_compiler.Level.t
val of_iset : Dce_ir.Ir.Iset.t -> t
val iset_exn : t -> Dce_ir.Ir.Iset.t

(** {1 The case-record envelope}

    The size, inversion and verify case records share one shape:
    ["kind"], then ["seed"], then either ["rejected"] (the ground-truth
    rejection reason) or the mode's own fields. *)

val expect_kind : string -> t -> unit
(** [expect_kind kind j] raises [Failure] naming the record's kind unless
    its ["kind"] field is [kind]. *)

val envelope : kind:string -> seed:int -> ((string * t) list, string) result -> t
(** [envelope ~kind ~seed (Ok fields)] or [(Error reason)]. *)

val of_envelope : kind:string -> t -> int * (t, string) result
(** The inverse of {!envelope}: the seed, and [Error reason] for a rejected
    case or [Ok j] (the whole record, to read the fields from).  Raises
    [Failure] on another kind or a malformed envelope. *)
