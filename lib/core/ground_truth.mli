(** Ground truth by execution (paper §4.1).

    MiniC test programs are deterministic and input-free, so dead code
    observed during one execution is dead for all executions: executing the
    instrumented program once yields exactly the alive markers; every other
    marker is dead.  This is the "theoretically ideal compiler" baseline the
    paper compares GCC and LLVM against.

    Programs that trap (the analogue of UB detected by sanitizers in the
    paper), run out of fuel, or lack [main] are rejected. *)

type t = {
  alive : Dce_ir.Ir.Iset.t;   (** markers executed at least once *)
  dead : Dce_ir.Ir.Iset.t;    (** markers never executed *)
  all : Dce_ir.Ir.Iset.t;
  live_blocks : Dce_ir.Ir.Bset.t;
      (** executed (function, block) pairs in the unoptimized lowering *)
  steps : int;                (** interpreter steps used *)
}

val block_live : t -> string -> int -> bool
(** Whether the block executed. *)

type outcome =
  | Valid of t
  | Rejected of string  (** trap / fuel exhaustion / no main *)

val compute : ?fuel:int -> Dce_minic.Ast.program -> outcome
(** [compute instrumented_program]: lowers (no optimization) and executes
    with {!Dce_exec.Exec.run} (default fuel 2,000,000 steps). *)
