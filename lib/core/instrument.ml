open Dce_minic.Ast

let rec contains_return s =
  match s with
  | Sreturn _ -> true
  | Sexpr _ | Sdecl _ | Sassign _ | Sbreak | Scontinue | Smarker _ -> false
  | Sif (_, bt, bf) -> List.exists contains_return bt || List.exists contains_return bf
  | Swhile (_, b) -> List.exists contains_return b
  | Sfor (_, _, _, b) -> List.exists contains_return b
  | Sswitch (_, cases, dflt) ->
    List.exists (fun (_, b) -> List.exists contains_return b) cases
    || List.exists contains_return dflt
  | Sblock b -> List.exists contains_return b

(* instrument a block: marker-head nested bodies, and a marker after every
   statement whose subtree contains a conditional return.  Marker ids are
   allocated strictly in syntactic order (a block's head marker before any
   nested marker), matching the paper's DCECheck0, DCECheck1, … numbering.
   [fresh] is per-instrumentation state, so concurrent instrumentations
   (campaign workers) never interleave id sequences. *)
let rec instr_block ~fresh ~head b =
  let head_markers = if head then [ Smarker (fresh ()) ] else [] in
  let rec go = function
    | [] -> []
    | s :: rest ->
      let s' = instr_stmt ~fresh s in
      let needs_marker =
        (match s with
         | Sif (_, _, _) | Swhile (_, _) | Sfor (_, _, _, _) | Sswitch (_, _, _) | Sblock _ ->
           contains_return s
         | Sexpr _ | Sdecl _ | Sassign _ | Sreturn _ | Sbreak | Scontinue | Smarker _ -> false)
        && rest <> []
      in
      let after = if needs_marker then [ Smarker (fresh ()) ] else [] in
      s' @ after @ go rest
  in
  head_markers @ go b

and instr_stmt ~fresh s =
  match s with
  | Sif (c, bt, bf) ->
    let bt = instr_block ~fresh ~head:true bt in
    let bf = if bf = [] then [] else instr_block ~fresh ~head:true bf in
    [ Sif (c, bt, bf) ]
  | Swhile (c, b) -> [ Swhile (c, instr_block ~fresh ~head:true b) ]
  | Sfor (init, cond, step, b) -> [ Sfor (init, cond, step, instr_block ~fresh ~head:true b) ]
  | Sswitch (c, cases, dflt) ->
    let cases = List.map (fun (k, b) -> (k, instr_block ~fresh ~head:true b)) cases in
    let dflt = if dflt = [] then [] else instr_block ~fresh ~head:true dflt in
    [ Sswitch (c, cases, dflt) ]
  | Sblock b -> [ Sblock (instr_block ~fresh ~head:false b) ]
  | Sexpr _ | Sdecl _ | Sassign _ | Sreturn _ | Sbreak | Scontinue | Smarker _ -> [ s ]

let program prog =
  if markers_of_program prog <> [] then
    invalid_arg "Instrument.program: program already instrumented";
  let counter = ref 0 in
  let fresh () =
    let n = !counter in
    incr counter;
    n
  in
  let funcs =
    List.map
      (fun fn -> { fn with f_body = instr_block ~fresh ~head:false fn.f_body })
      prog.p_funcs
  in
  { prog with p_funcs = funcs }

let ensure prog = if markers_of_program prog = [] then program prog else prog

let marker_count prog = List.length (markers_of_program prog)
