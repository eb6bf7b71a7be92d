(** The compiler intermediate representation shared by both simulated
    compilers.

    Functions are control-flow graphs of basic blocks over virtual registers.
    Memory (globals, arrays, address-taken locals) lives in named symbols;
    pointers are first-class run-time values [(symbol, offset)].  The same IR
    is used in two forms:

    - directly after {!Lower}ing, registers may be assigned multiple times
      (no phis) — this form is what the reference interpreter executes;
    - after {!Ssa.construct}, every register has exactly one definition and
      blocks may start with [Phi] definitions — all optimization passes work
      on this form.

    Optimization markers appear as the opaque {!instr.Marker} instruction; no
    pass may remove one except by deleting its whole (unreachable) block,
    mirroring calls to undefined functions in the paper. *)

type label = int
(** Basic-block identifier, unique within a function. *)

type var = int
(** Virtual register, unique within a function. *)

module Imap : Map.S with type key = int
module Iset : Set.S with type elt = int

module Bset : Set.S with type elt = string * int
(** Sets of (function name, block label) pairs — the executed/live block
    sets produced by the executors.  Immutable so executor results are
    value-comparable in differential tests; [elements] yields the same
    order as sorting the pairs with polymorphic [compare]. *)

type operand =
  | Const of int  (** integer constant *)
  | Reg of var

type rvalue =
  | Op of operand                       (** copy *)
  | Unary of Dce_minic.Ops.unop * operand
  | Binary of Dce_minic.Ops.binop * operand * operand
  | Addr of string * operand            (** address of element [off] of symbol *)
  | Ptradd of operand * operand         (** pointer plus element offset *)
  | Load of operand                     (** read through pointer *)
  | Phi of (label * operand) list       (** SSA join; one entry per predecessor *)

type instr =
  | Def of var * rvalue                 (** register definition *)
  | Store of operand * operand          (** [Store (addr, value)] *)
  | Call of var option * string * operand list  (** direct call, optional result *)
  | Marker of int                       (** optimization marker (opaque) *)

type terminator =
  | Jmp of label
  | Br of operand * label * label       (** nonzero → first target *)
  | Switch of operand * (int * label) list * label  (** cases, default *)
  | Ret of operand option

type block = { b_instrs : instr list; b_term : terminator }

type func = {
  fn_name : string;
  fn_params : var list;
  fn_entry : label;
  fn_blocks : block Imap.t;
  fn_next_var : int;     (** first unused register id *)
  fn_next_label : int;   (** first unused label id *)
  fn_var_names : string Imap.t;  (** debug name hints for registers *)
  fn_static : bool;
  fn_returns_value : bool;
}

(** Initial contents of one memory cell. *)
type init_cell =
  | Cint of int
  | Caddr of string * int  (** address constant: symbol and element offset *)

type symbol = {
  sym_name : string;
  sym_size : int;                (** number of cells *)
  sym_init : init_cell array;    (** length = [sym_size] *)
  sym_static : bool;
  sym_kind : [ `Global | `Frame of string ];
      (** [`Frame fn]: a stack slot of function [fn], fresh per activation *)
}

type program = {
  prog_syms : symbol list;
  prog_funcs : func list;
  prog_externs : (string * int) list;
}

(** {1 Accessors and helpers} *)

val block : func -> label -> block
(** Raises [Not_found] if the label is absent. *)

val find_symbol : program -> string -> symbol option
val find_func : program -> string -> func option

val successors : terminator -> label list
(** Successor labels in order, without duplicates. *)

val map_func : (func -> func) -> program -> program
(** The program itself (physically) when [f] returns every function
    itself; unchanged functions stay shared otherwise. *)

val map_blocks : (label -> block -> block) -> func -> func
(** Like mapping [fn_blocks] with [Imap.mapi], and structurally equal to
    it, but only the changed bindings are rebuilt: the function itself when
    [f] returns every block itself.  [f] sees the labels in increasing
    order. *)

val with_instrs : block -> instr list -> block
(** The block with these instructions; the block itself when the list is
    its own. *)

val with_term : block -> terminator -> block
(** The block with this terminator; the block itself when it is its own. *)

val update_func : program -> func -> program
(** Replaces the function with the same name. *)

val operands_of_rvalue : rvalue -> operand list
val operands_of_instr : instr -> operand list
val operands_of_terminator : terminator -> operand list

val uses_of_instr : instr -> var list
(** Registers read by the instruction (phi arguments included). *)

val uses_of_terminator : terminator -> var list

val def_of_instr : instr -> var option
(** The register defined, if any. *)

val map_instr_operands : (operand -> operand) -> instr -> instr
(** Rewrites every operand (phi arguments included, labels untouched).
    Returns the instruction itself when [f] returns every operand itself;
    so does {!map_terminator_operands}. *)

val map_terminator_operands : (operand -> operand) -> terminator -> terminator

val map_terminator_labels : (label -> label) -> terminator -> terminator

val instr_count : func -> int
(** Number of instructions, a size measure for inlining heuristics. *)

val block_count : func -> int
(** Number of basic blocks (unreachable ones included). *)

val iter_instrs : (label -> instr -> unit) -> func -> unit
(** Iterates in increasing label order; deterministic. *)

val fresh_var : func -> func * var
val fresh_label : func -> func * label

val called_names : func -> string list
(** Call targets appearing in the function (markers excluded). *)

val marker_ids : func -> int list
(** Marker ids appearing in the function body. *)

val program_marker_ids : program -> int list
