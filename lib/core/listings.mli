(** The paper's reduced test cases (Listings 3, 4, 6, 7, 8 and 9),
    transcribed to MiniC.  Each carries the outcomes the paper reports:
    which compiler eliminates the dead marker, which one misses it, and at
    which optimization levels. *)

type t = {
  name : string;
  src : string;  (** MiniC source *)
  expect : (string * Dce_compiler.Level.t * int * bool * string) list;
      (** (compiler, level, marker, eliminated, note); the compiler is
          ["gcc"] or ["llvm"] *)
}

val all : t list
(** The twelve listings, in the paper's order. *)
