(** Reference interpreter for the IR.

    Two roles, exactly as in the paper's methodology:

    - {b ground truth}: MiniC programs are deterministic and input-free, so
      executing the instrumented program once yields the set of markers that
      are actually alive; all remaining markers are dead (Section 4.1 of the
      paper);
    - {b semantic oracle for the pass pipeline}: the interpreter runs both the
      pre-SSA form and optimized SSA code (phis are evaluated per incoming
      edge), so every optimization pass can be checked to preserve the
      sequence of observable events.

    Execution is fuel-bounded; a fuel exhaustion or a runtime trap (out of
    bounds access, dereferencing a non-pointer, use of a dangling frame
    pointer, call-depth overflow) discards the program, mirroring the paper's
    rejection of invalid/UB test cases. *)

type value =
  | Vint of int
  | Vptr of string * int * int
      (** [(symbol, instance, offset)]; instance 0 is the unique instance of a
          global, frame symbols get a fresh instance per activation *)

type event =
  | Ev_extern of string * value list
      (** call to an undefined function; such calls return a deterministic
          hash of the function name and arguments *)
  | Ev_marker of int                  (** marker execution *)

type outcome =
  | Finished of int  (** [main]'s return value *)
  | Trap of string   (** runtime error with explanation *)
  | Out_of_fuel

type result = {
  outcome : outcome;
  events : event list;            (** observable events in execution order *)
  executed_markers : Dce_ir.Ir.Iset.t;   (** marker ids that ran at least once *)
  executed_blocks : Dce_ir.Ir.Bset.t;
      (** (function, block label) pairs entered at least once — block-level
          ground truth for the primary-marker analysis *)
  steps : int;                    (** instructions executed *)
  final_globals : (string * int array) list;
      (** global memory at exit, integer cells only, with pointers hashed to
          stable integers; usable as a semantic checksum *)
}

val run : ?fuel:int -> ?max_depth:int -> Dce_ir.Ir.program -> result
(** Executes [main] (which must exist) with default fuel 2,000,000 steps and
    call depth 256. *)

val equivalent : result -> result -> bool
(** Observational equivalence as a C compiler defines it: same outcome and
    same event sequence (extern calls with argument values, markers, in
    order).  Final memory is {e not} compared — dead store elimination is
    allowed to change it, exactly as in C. *)

val equivalent_strict : result -> result -> bool
(** {!equivalent} plus identical final global memory. Holds for
    transformations that do not remove stores (lowering↔SSA, SCCP, CSE…). *)

(** {1 Shared evaluation semantics}

    Exported so the bytecode VM in [dce_exec] reuses the exact same
    value semantics — same trap messages, same extern hashing, same
    checksums — rather than reimplementing them and drifting. *)

exception Trap_exn of string
(** Raised internally on a runtime error; {!run} catches it.  Exported so
    alternate executors can share trap plumbing. *)

exception Fuel_exn
(** Raised internally on fuel exhaustion; {!run} catches it. *)

val trap : ('a, unit, string, 'b) format4 -> 'a
(** Formats a message and raises {!Trap_exn}. *)

val truthy : value -> bool
(** Branch condition semantics: nonzero integers and all pointers. *)

val eval_binary : Dce_minic.Ops.binop -> value -> value -> value
(** Binary operator semantics over run-time values, including pointer
    comparison/arithmetic rules.  Raises {!Trap_exn} on incompatible
    operands. *)

val eval_unary : Dce_minic.Ops.unop -> value -> value
(** Unary operator semantics.  Raises {!Trap_exn} on pointer negation. *)

val extern_result : string -> value list -> int
(** Deterministic result of a call to an undefined external function: a
    stable mix of the name and the argument values. *)

val value_of_cell : Dce_ir.Ir.init_cell -> value
(** Run-time value of an initial memory cell. *)

val cell_checksum : value -> int
(** Stable integer encoding of a final memory cell (pointers hash by
    target), used for the [final_globals] checksum. *)
