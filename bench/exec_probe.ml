(* Quick executor-throughput probe: per-program interp vs VM timing with
   the compile cost split out.  The full comparison (parity + the 5x bar +
   BENCH_exec.json) lives in the bench harness; this exists to iterate on
   VM performance without re-running every reproduction section.

     dune exec bench/exec_probe.exe            # default seeds
     dune exec bench/exec_probe.exe -- 1 2 3   # corpus seeds *)

module Smith = Dce_smith.Smith
module Core = Dce_core
module I = Dce_interp.Interp
module Exec = Dce_exec.Exec

let hot_src =
  {|
int acc = 1;
int main(void) {
  int i = 0;
  while (i < 300) {
    int j = 0;
    while (j < 500) {
      acc = acc + i * j - acc / 7 + (acc & 31);
      j = j + 1;
    }
    i = i + 1;
  }
  return acc & 255;
}
|}

let () =
  let seeds =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> List.map int_of_string args
    | _ -> [ 4242; 777; 20220228; 31415; 2718 ]
  in
  let programs =
    ("hot-loop", Dce_ir.Lower.program (Dce_minic.Typecheck.check_exn (Dce_minic.Parser.parse_program hot_src)))
    :: List.map
         (fun s ->
           ( Printf.sprintf "seed-%d" s,
             Dce_ir.Lower.program
               (Core.Instrument.program (fst (Smith.generate (Smith.default_config s)))) ))
         seeds
  in
  let reps = 12 in
  let time f =
    let t0 = Dce_support.Clock.now () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Dce_support.Clock.now () -. t0) /. float_of_int reps
  in
  Printf.printf "%-14s %9s %11s %11s %11s %7s\n" "program" "steps" "interp-ms" "compile-ms"
    "vm-run-ms" "x(e2e)";
  List.iter
    (fun (name, ir) ->
      let ri = I.run ir in
      let rv = Dce_exec.Bc_vm.run (Dce_exec.Bc_compile.program ir) in
      if not (Exec.results_equal ri rv) then Printf.printf "%-14s DIVERGENCE\n" name
      else begin
        let ti = time (fun () -> I.run ir) in
        let tc = time (fun () -> Dce_exec.Bc_compile.program ir) in
        let cp = Dce_exec.Bc_compile.program ir in
        let tr = time (fun () -> Dce_exec.Bc_vm.run cp) in
        Printf.printf "%-14s %9d %11.3f %11.3f %11.3f %6.1fx\n" name ri.I.steps (ti *. 1e3)
          (tc *. 1e3) (tr *. 1e3)
          (ti /. (tc +. tr))
      end)
    programs
