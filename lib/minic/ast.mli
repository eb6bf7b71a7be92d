(** Abstract syntax of MiniC.

    MiniC is the C subset this project's compilers consume: deterministic,
    input-free programs over 63-bit integers, int arrays, and pointers to int.
    It is expressive enough to transcribe every test case in the paper
    (globals with initializers, [static] linkage, pointer/array aliasing,
    loops, calls) while keeping the semantics total — there is no undefined
    behaviour anywhere in the language (see {!Ops}).

    Optimization markers — the paper's central device — exist at the AST level
    as the {!constructor:stmt.Marker} statement.  A marker pretty-prints and
    parses as a call [DCEMarker<n>();] to an undefined external function, so a
    compiler can eliminate it only by proving its enclosing block dead. *)

type typ =
  | Tint          (** 63-bit integer *)
  | Tptr          (** pointer to int *)
  | Tarr of int   (** int array with a fixed positive size *)

type lvalue =
  | Lvar of string                (** variable *)
  | Lderef of expr                (** [*e] *)
  | Lindex of string * expr       (** [a\[e\]] where [a] is an array or pointer variable *)

and expr =
  | Int of int                          (** integer literal *)
  | Var of string                       (** variable read *)
  | Unary of Ops.unop * expr
  | Binary of Ops.binop * expr * expr
  | Addr_of of lvalue                   (** [&lv] *)
  | Deref of expr                       (** [*e] *)
  | Index of string * expr              (** [a\[e\]] read *)
  | Call of string * expr list          (** direct call *)

type stmt =
  | Sexpr of expr                       (** expression statement (calls) *)
  | Sdecl of string * typ * expr option (** local declaration, optional init *)
  | Sassign of lvalue * expr
  | Sif of expr * block * block         (** else-branch may be [[]] *)
  | Swhile of expr * block
  | Sfor of stmt option * expr option * stmt option * block
      (** [for (init; cond; step) body]; [init]/[step] are assignments or
          expression statements *)
  | Sswitch of expr * (int * block) list * block
      (** non-fall-through switch: each case body implicitly breaks; the last
          component is the default body (possibly [[]]) *)
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of block                     (** explicit braces *)
  | Smarker of int                      (** optimization marker [DCEMarker<n>();] *)

and block = stmt list

type ginit =
  | Gzero                    (** default zero initialization *)
  | Gint of int              (** scalar constant *)
  | Gints of int list        (** array initializer, zero-filled to size *)
  | Gaddr of string * int    (** [&sym] or [&sym\[k\]] — address constant *)

type global = {
  g_name : string;
  g_typ : typ;
  g_init : ginit;
  g_static : bool;
}

type param = { p_name : string; p_typ : typ }

type func = {
  f_name : string;
  f_params : param list;
  f_ret : typ option;  (** [None] for [void] *)
  f_body : block;
  f_static : bool;
}

type program = {
  p_globals : global list;
  p_funcs : func list;
  p_externs : (string * int) list;
      (** declared-but-undefined functions (name, arity); marker functions are
          implicitly extern and need not be listed *)
}

val marker_name : int -> string
(** [marker_name 3] is ["DCEMarker3"], the call-target name a marker compiles
    to. *)

val marker_of_name : string -> int option
(** Inverse of {!marker_name}; [None] if the name is not a marker name. *)

val typ_size : typ -> int
(** Number of int cells occupied by a value of this type (arrays: their
    length; scalars: 1). *)

(** {1 Traversals} *)

val iter_expr : (expr -> unit) -> expr -> unit
(** Applies the function to the expression and every sub-expression. *)

val iter_stmt : (stmt -> unit) -> stmt -> unit
(** Applies the function to the statement and, recursively, every statement
    nested inside it. *)

val iter_block : (stmt -> unit) -> block -> unit

val iter_program_stmts : (stmt -> unit) -> program -> unit
(** Every statement of every function. *)

val iter_program_exprs : (expr -> unit) -> program -> unit
(** Every expression of every statement of every function (including
    conditions, initializers, and l-value sub-expressions). *)

val map_block : (stmt -> stmt list) -> block -> block
(** [map_block f b] rewrites a block bottom-up: nested blocks are rewritten
    first, then [f] maps each statement to its replacement list (so [f] can
    delete, keep, or expand statements). *)

(** {1 Queries} *)

val markers_of_program : program -> int list
(** All marker ids appearing in the program, in syntactic order. *)

val stmt_count : program -> int
(** Total number of statements (recursively), a size measure used by the
    reducer and the generator. *)

val expr_size : expr -> int
(** Number of AST nodes in the expression. *)

(** {1 Structural hashing}

    Content addressing for the reduction engine's caches.  The hashes fold
    the {e entire} value (unlike [Hashtbl.hash], whose node limit collapses
    all non-trivial programs), so structurally equal values always hash
    equal and unequal values rarely collide; consumers that cannot tolerate
    collisions must double-check keys structurally, which is what the
    compile/verdict caches do. *)

val hash_func : func -> int
(** Covers the signature ([name], params, return type, [static]) and the
    body — the "function-body hash" keying the per-function compile memo. *)

val hash_program : program -> int
(** Combines globals, per-function hashes, and externs.  Invariant under
    pretty-print → reparse (QCheck-tested). *)

val called_names : program -> string list
(** Names of all call targets, in syntactic order, with duplicates. *)

val find_func : program -> string -> func option
