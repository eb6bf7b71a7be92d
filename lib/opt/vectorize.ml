open Dce_ir
open Ir

(* claimed loops: a known trip count up to [max_trip], a body of at most
   [max_body] instructions, and at least one store *)
let max_trip = 64
let max_body = 48

let pool_name = "__vec_pool"

let body_size fn (loop : Loops.loop) =
  Iset.fold (fun l acc -> acc + List.length (block fn l).b_instrs + 1) loop.Loops.body 0

let store_count fn (loop : Loops.loop) =
  Iset.fold
    (fun l acc ->
      acc
      + List.length (List.filter (function Store _ -> true | _ -> false) (block fn l).b_instrs))
    loop.Loops.body 0

(* rewrite every store in the region to address through the opaque pool *)
let obfuscate_stores fn region =
  let next_var = ref fn.fn_next_var in
  let fresh () =
    let v = !next_var in
    incr next_var;
    v
  in
  let changed = ref false in
  let blocks =
    Imap.mapi
      (fun l b ->
        if not (Iset.mem l region) then b
        else begin
          let instrs =
            List.concat_map
              (fun i ->
                match i with
                | Store ((Reg _ as addr), v) ->
                  changed := true;
                  let t_pool = fresh () in
                  let t_zero = fresh () in
                  let t_addr = fresh () in
                  [
                    Def (t_pool, Addr (pool_name, Const 0));
                    Def (t_zero, Load (Reg t_pool));
                    Def (t_addr, Ptradd (addr, Reg t_zero));
                    Store (Reg t_addr, v);
                  ]
                | i -> [ i ])
              b.b_instrs
          in
          { b with b_instrs = instrs }
        end)
      fn.fn_blocks
  in
  if !changed then Some { fn with fn_blocks = blocks; fn_next_var = !next_var } else None

let run prog =
  let pool_used = ref false in
  let vectorize_func fn =
    let loops = Loops.natural_loops fn in
    List.fold_left
      (fun fn loop ->
        if
          Unroll.eligible fn loop
          && body_size fn loop <= max_body
          && store_count fn loop > 0
        then
          match Unroll.trip_count ~max_trip fn loop with
          | Some trip when trip >= 2 -> (
            match obfuscate_stores fn loop.Loops.body with
            | Some fn' ->
              pool_used := true;
              fn'
            | None -> fn)
          | Some _ | None -> fn
        else fn)
      fn loops
  in
  let prog = Ir.map_func vectorize_func prog in
  if !pool_used && find_symbol prog pool_name = None then
    {
      prog with
      prog_syms =
        prog.prog_syms
        @ [
            {
              sym_name = pool_name;
              sym_size = 1;
              sym_init = [| Cint 0 |];
              sym_static = false;
              sym_kind = `Global;
            };
          ];
    }
  else prog
