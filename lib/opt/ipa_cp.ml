open Dce_ir
open Ir

(* the constant each call site passes for each parameter position, or None *)
let callsite_constants prog callee_name arity =
  let consts = Array.make arity None in
  let first = ref true in
  let alive = ref true in
  List.iter
    (fun fn ->
      let dt = Meminfo.deftab fn in
      iter_instrs
        (fun _ i ->
          match i with
          | Call (_, name, args) when name = callee_name ->
            if List.length args <> arity then alive := false
            else begin
              List.iteri
                (fun k a ->
                  let c = Meminfo.resolve_const dt a in
                  if !first then consts.(k) <- c
                  else if consts.(k) <> c then consts.(k) <- None)
                args;
              first := false
            end
          | _ -> ())
        fn)
    prog.prog_funcs;
  if !first || not !alive then None (* no call sites, or malformed *)
  else Some consts

let specialize fn consts =
  let subst op =
    match op with
    | Reg v -> (
      let rec find i = function
        | [] -> op
        | p :: rest -> (
          if p = v then match consts.(i) with Some k -> Const k | None -> op
          else find (i + 1) rest)
      in
      find 0 fn.fn_params)
    | Const _ -> op
  in
  map_blocks
    (fun _ b ->
      with_term
        (with_instrs b (Dce_support.Listx.map_shared (map_instr_operands subst) b.b_instrs))
        (map_terminator_operands subst b.b_term))
    fn

let run prog =
  Ir.map_func
    (fun fn ->
      if (not fn.fn_static) || fn.fn_name = "main" || fn.fn_params = [] then fn
      else
        match callsite_constants prog fn.fn_name (List.length fn.fn_params) with
        | Some consts when Array.exists (fun c -> c <> None) consts -> specialize fn consts
        | Some _ | None -> fn)
    prog
