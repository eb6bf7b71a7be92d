open Dce_ir
open Ir

type maps = { label_map : label Imap.t; var_map : var Imap.t }

let map_label m l = Option.value ~default:l (Imap.find_opt l m.label_map)
let map_var m v = Option.value ~default:v (Imap.find_opt v m.var_map)

let map_operand m = function
  | Const n -> Const n
  | Reg v -> Reg (map_var m v)

let clone_region fn region =
  (* allocate fresh labels and fresh names for every def in the region *)
  let next_label = ref fn.fn_next_label in
  let label_map =
    Iset.fold
      (fun l acc ->
        let nl = !next_label in
        incr next_label;
        Imap.add l nl acc)
      region Imap.empty
  in
  let next_var = ref fn.fn_next_var in
  let var_names = ref fn.fn_var_names in
  let var_map = ref Imap.empty in
  Iset.iter
    (fun l ->
      List.iter
        (fun i ->
          match def_of_instr i with
          | Some v ->
            let nv = !next_var in
            incr next_var;
            (match Imap.find_opt v fn.fn_var_names with
             | Some hint -> var_names := Imap.add nv hint !var_names
             | None -> ());
            var_map := Imap.add v nv !var_map
          | None -> ())
        (block fn l).b_instrs)
    region;
  let m = { label_map; var_map = !var_map } in
  let clone_instr i =
    let i = map_instr_operands (map_operand m) i in
    let i =
      match i with
      | Def (v, rv) ->
        let rv =
          match rv with
          | Phi args -> Phi (List.map (fun (p, a) -> (map_label m p, a)) args)
          | _ -> rv
        in
        Def (map_var m v, rv)
      | Call (Some v, name, args) -> Call (Some (map_var m v), name, args)
      | Call (None, _, _) | Store _ | Marker _ -> i
    in
    i
  in
  let new_blocks =
    Iset.fold
      (fun l acc ->
        let b = block fn l in
        let nb =
          {
            b_instrs = List.map clone_instr b.b_instrs;
            b_term = map_terminator_labels (map_label m) (map_terminator_operands (map_operand m) b.b_term);
          }
        in
        Imap.add (map_label m l) nb acc)
      region fn.fn_blocks
  in
  ( {
      fn with
      fn_blocks = new_blocks;
      fn_next_label = !next_label;
      fn_next_var = !next_var;
      fn_var_names = !var_names;
    },
    m )
