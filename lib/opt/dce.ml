open Dce_ir
open Ir

let run fn =
  (* transitively mark registers needed by side-effecting instructions and
     terminators; delete pure defs of unmarked registers *)
  let live = Regtab.create fn.fn_next_var false in
  let dt = Meminfo.deftab fn in
  let rec mark v =
    if not (Regtab.get live v) then begin
      Regtab.set live v true;
      match Meminfo.def_rvalue dt v with
      | Some rv ->
        List.iter (function Reg u -> mark u | Const _ -> ()) (operands_of_rvalue rv)
      | None -> ()
    end
  in
  Imap.iter
    (fun _ b ->
      List.iter
        (fun i ->
          match i with
          | Store _ | Call _ | Marker _ -> List.iter mark (uses_of_instr i)
          | Def _ -> ())
        b.b_instrs;
      List.iter mark (uses_of_terminator b.b_term))
    fn.fn_blocks;
  let keep = function
    | Def (v, _) -> Regtab.get live v
    | Store _ | Call _ | Marker _ -> true
  in
  map_blocks (fun _ b -> with_instrs b (Dce_support.Listx.filter_shared keep b.b_instrs)) fn
