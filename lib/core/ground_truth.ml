module Ir = Dce_ir.Ir
module I = Dce_interp.Interp

type t = {
  alive : Ir.Iset.t;
  dead : Ir.Iset.t;
  all : Ir.Iset.t;
  live_blocks : Ir.Bset.t;
  steps : int;
}

let block_live t fn l = Ir.Bset.mem (fn, l) t.live_blocks

type outcome = Valid of t | Rejected of string

let compute ?fuel prog =
  if not (Dce_minic.Typecheck.has_main prog) then Rejected "no main function"
  else begin
    let ir = Dce_ir.Lower.program prog in
    let all =
      List.fold_left (fun s n -> Ir.Iset.add n s) Ir.Iset.empty
        (Dce_minic.Ast.markers_of_program prog)
    in
    let result = Dce_exec.Exec.run ?fuel ir in
    match result.I.outcome with
    | I.Finished _ ->
      let alive = result.I.executed_markers in
      Valid
        {
          alive;
          dead = Ir.Iset.diff all alive;
          all;
          live_blocks = result.I.executed_blocks;
          steps = result.I.steps;
        }
    | I.Trap m -> Rejected ("trap: " ^ m)
    | I.Out_of_fuel -> Rejected "out of fuel"
  end
