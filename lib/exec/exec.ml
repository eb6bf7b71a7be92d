module I = Dce_interp.Interp

(* Steps the interpreter gets before a run is handed to the VM.  Above the
   longest Smith program (≈1.1k steps) and well below the ≈23–25k-step
   point where the VM's ≈2.4 ms bytecode compile pays for itself, so
   generated programs never pay that compile and a run handed off to the
   VM wastes ≈0.5 ms of interpretation. *)
let interp_steps = 4096

let run ?fuel ?max_depth prog =
  match fuel with
  | Some f when f <= interp_steps -> I.run ~fuel:f ?max_depth prog
  | _ -> (
    let leg = I.run ~fuel:interp_steps ?max_depth prog in
    match leg.I.outcome with
    | I.Out_of_fuel -> Bc_vm.run ?fuel ?max_depth (Bc_compile.program prog)
    | _ -> leg)

let results_equal (a : I.result) (b : I.result) =
  a.I.outcome = b.I.outcome && a.I.events = b.I.events
  && Dce_ir.Ir.Iset.equal a.I.executed_markers b.I.executed_markers
  && Dce_ir.Ir.Bset.equal a.I.executed_blocks b.I.executed_blocks
  && a.I.steps = b.I.steps
  && a.I.final_globals = b.I.final_globals
