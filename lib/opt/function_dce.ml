open Dce_ir
open Ir

let run prog =
  let keep_roots =
    List.filter_map
      (fun fn -> if (not fn.fn_static) || fn.fn_name = "main" then Some fn.fn_name else None)
      prog.prog_funcs
  in
  let reachable = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.replace reachable name ();
      match find_func prog name with
      | Some fn -> List.iter visit (called_names fn)
      | None -> ()
    end
  in
  List.iter visit keep_roots;
  let funcs =
    Dce_support.Listx.filter_shared (fun fn -> Hashtbl.mem reachable fn.fn_name) prog.prog_funcs
  in
  let syms =
    Dce_support.Listx.filter_shared
      (fun sym ->
        match sym.sym_kind with
        | `Global -> true
        | `Frame owner -> Hashtbl.mem reachable owner)
      prog.prog_syms
  in
  if funcs == prog.prog_funcs && syms == prog.prog_syms then prog
  else { prog with prog_funcs = funcs; prog_syms = syms }
