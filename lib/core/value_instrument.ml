open Dce_minic.Ast
module I = Dce_interp.Interp
module Ir = Dce_ir.Ir

type stats = { probes_inserted : int; checks_planted : int }

let probe_fn = "__dce_probe"

(* variables assigned (as scalars) anywhere inside a statement subtree *)
let assigned_scalars stmt =
  let acc = ref [] in
  iter_stmt
    (fun s ->
      match s with
      | Sassign (Lvar x, _) -> acc := x :: !acc
      | Sdecl (x, Tint, Some _) -> acc := x :: !acc
      | _ -> ())
    stmt;
  Dce_support.Listx.uniq (List.rev !acc)

(* int-typed variables visible in a function: globals plus its locals/params *)
let int_typed_vars prog fn =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun g -> if g.g_typ = Tint then Hashtbl.replace tbl g.g_name ())
    prog.p_globals;
  List.iter (fun p -> if p.p_typ = Tint then Hashtbl.replace tbl p.p_name ()) fn.f_params;
  iter_block
    (function
      | Sdecl (x, Tint, _) -> Hashtbl.replace tbl x ()
      | Sdecl (x, _, _) -> Hashtbl.remove tbl x (* local shadows an int global *)
      | _ -> ())
    fn.f_body;
  tbl

(* phase A: insert probe calls after loops *)
let insert_probes prog =
  let next_probe = ref 0 in
  let mapping = Hashtbl.create 32 in (* probe id -> variable name *)
  let probe_funcs =
    List.map
      (fun fn ->
        let ints = int_typed_vars prog fn in
        let rec probe_block b = List.concat_map probe_stmt b
        and probe_stmt s =
          let s' =
            match s with
            | Sif (c, bt, bf) -> Sif (c, probe_block bt, probe_block bf)
            | Swhile (c, b) -> Swhile (c, probe_block b)
            | Sfor (i, c, st, b) -> Sfor (i, c, st, probe_block b)
            | Sswitch (c, cases, dflt) ->
              Sswitch (c, List.map (fun (k, b) -> (k, probe_block b)) cases, probe_block dflt)
            | Sblock b -> Sblock (probe_block b)
            | _ -> s
          in
          match s with
          | Swhile (_, _) | Sfor (_, _, _, _) ->
            (* the whole loop statement: for-init/step assignments count *)
            let vars =
              List.filter (Hashtbl.mem ints) (assigned_scalars s)
              |> Dce_support.Listx.take 2
            in
            s'
            :: List.map
                 (fun v ->
                   let id = !next_probe in
                   incr next_probe;
                   Hashtbl.replace mapping id v;
                   Sexpr (Call (probe_fn, [ Int id; Var v ])))
                 vars
          | _ -> [ s' ]
        in
        { fn with f_body = probe_block fn.f_body })
      prog.p_funcs
  in
  ({ prog with p_funcs = probe_funcs }, mapping, !next_probe)

(* phase B: profile — observed integer values per probe *)
let profile probed =
  let ir = Dce_ir.Lower.program probed in
  let r = Dce_exec.Exec.run ir in
  match r.I.outcome with
  | I.Finished _ ->
    let values : (int, [ `Stable of int | `Unstable ]) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun ev ->
        match ev with
        | I.Ev_extern (name, [ I.Vint id; v ]) when name = probe_fn -> (
          match v with
          | I.Vint value -> (
            match Hashtbl.find_opt values id with
            | None -> Hashtbl.replace values id (`Stable value)
            | Some (`Stable prev) when prev = value -> ()
            | Some _ -> Hashtbl.replace values id `Unstable)
          | I.Vptr _ -> Hashtbl.replace values id `Unstable)
        | _ -> ())
      r.I.events;
    Some values
  | I.Trap _ | I.Out_of_fuel -> None

(* phase C: probes with a stable value become dead value checks *)
let plant prog values mapping max_checks =
  let next_marker = ref 0 in
  let planted = ref 0 in
  let rewrite_funcs =
    List.map
      (fun fn ->
        let rewrite =
          map_block (fun s ->
              match s with
              | Sexpr (Call (name, [ Int id; Var v ])) when name = probe_fn -> (
                match Hashtbl.find_opt values id with
                | Some (`Stable c)
                  when !planted < max_checks && Hashtbl.find_opt mapping id = Some v ->
                  incr planted;
                  let m = !next_marker in
                  incr next_marker;
                  [ Sif (Binary (Dce_minic.Ops.Ne, Var v, Int c), [ Smarker m ], []) ]
                | _ -> [])
              | _ -> [ s ])
        in
        { fn with f_body = rewrite fn.f_body })
      prog.p_funcs
  in
  ({ prog with p_funcs = rewrite_funcs }, !planted)

let instrument ?(max_checks = 32) prog =
  if markers_of_program prog <> [] then
    invalid_arg "Value_instrument.instrument: program already instrumented";
  let probed, mapping, inserted = insert_probes prog in
  match profile probed with
  | None -> None
  | Some values ->
    let final, planted = plant probed values mapping max_checks in
    (* __dce_probe must no longer appear *)
    Some (final, { probes_inserted = inserted; checks_planted = planted })
