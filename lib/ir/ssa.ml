open Ir

module Pair = struct
  type t = int * int

  let compare = compare
end

module Pmap = Map.Make (Pair)

let construct input =
  let fn = Cfg.remove_unreachable_blocks input in
  let dom = Dom.compute fn in
  let preds = Cfg.predecessors fn in
  (* 1. definition sites per register *)
  let def_blocks : Iset.t Imap.t ref = ref Imap.empty in
  let add_def v l =
    let existing = Option.value ~default:Iset.empty (Imap.find_opt v !def_blocks) in
    def_blocks := Imap.add v (Iset.add l existing) !def_blocks
  in
  List.iter (fun v -> add_def v fn.fn_entry) fn.fn_params;
  Imap.iter
    (fun l b ->
      List.iter
        (fun i -> match def_of_instr i with Some v -> add_def v l | None -> ())
        b.b_instrs)
    fn.fn_blocks;
  (* 2. semi-pruned "global" registers: used in some block before any local def *)
  let globals = ref Iset.empty in
  Imap.iter
    (fun _ b ->
      let defined_here = ref Iset.empty in
      let note_uses uses =
        List.iter
          (fun v -> if not (Iset.mem v !defined_here) then globals := Iset.add v !globals)
          uses
      in
      List.iter
        (fun i ->
          note_uses (uses_of_instr i);
          match def_of_instr i with
          | Some v -> defined_here := Iset.add v !defined_here
          | None -> ())
        b.b_instrs;
      note_uses (uses_of_terminator b.b_term))
    fn.fn_blocks;
  (* 3. phi placement at iterated dominance frontiers *)
  let phis_at : Iset.t Imap.t ref = ref Imap.empty in (* label -> set of orig vars *)
  Iset.iter
    (fun v ->
      match Imap.find_opt v !def_blocks with
      | None -> ()
      | Some defs ->
        let work = Queue.create () in
        Iset.iter (fun l -> Queue.add l work) defs;
        let placed = ref Iset.empty in
        while not (Queue.is_empty work) do
          let l = Queue.pop work in
          List.iter
            (fun df ->
              if not (Iset.mem df !placed) then begin
                placed := Iset.add df !placed;
                let existing = Option.value ~default:Iset.empty (Imap.find_opt df !phis_at) in
                phis_at := Imap.add df (Iset.add v existing) !phis_at;
                if not (Iset.mem df defs) then Queue.add df work
              end)
            (Dom.frontier dom l)
        done)
    !globals;
  (* 4. renaming *)
  let next = ref fn.fn_next_var in
  let names = ref fn.fn_var_names in
  let fresh_of orig =
    let v = !next in
    incr next;
    (match Imap.find_opt orig fn.fn_var_names with
     | Some hint -> names := Imap.add v hint !names
     | None -> ());
    v
  in
  (* pre-allocate phi result names *)
  let phi_name =
    Imap.fold
      (fun l vars acc -> Iset.fold (fun v acc -> Pmap.add (l, v) (fresh_of v) acc) vars acc)
      !phis_at Pmap.empty
  in
  let phi_args : (label * operand) list Pmap.t ref = ref Pmap.empty in
  let stacks = Regtab.create fn.fn_next_var [] in
  let top v = match Regtab.get stacks v with x :: _ -> Some x | [] -> None in
  let push v x = Regtab.set stacks v (x :: Regtab.get stacks v) in
  let pop v =
    match Regtab.get stacks v with
    | _ :: rest -> Regtab.set stacks v rest
    | [] -> failwith "ssa: pop on empty stack"
  in
  (* parameters define themselves at entry *)
  List.iter (fun v -> push v v) fn.fn_params;
  let rename_operand l = function
    | Const n -> Const n
    | Reg v -> (
      match top v with
      | Some x -> Reg x
      | None ->
        failwith
          (Printf.sprintf "ssa: use of %%%d in L%d without reaching definition (%s)" v l
             fn.fn_name))
  in
  let new_blocks = ref Imap.empty in
  let rec walk l =
    let b = block fn l in
    let pushed = ref [] in
    let phi_vars =
      Option.value ~default:Iset.empty (Imap.find_opt l !phis_at) |> Iset.elements
    in
    List.iter
      (fun v ->
        let nv = Pmap.find (l, v) phi_name in
        push v nv;
        pushed := v :: !pushed)
      phi_vars;
    let new_instrs =
      List.map
        (fun i ->
          match i with
          | Def (v, rv) ->
            let rv = map_instr_rvalue l rv in
            let nv = fresh_of v in
            push v nv;
            pushed := v :: !pushed;
            Def (nv, rv)
          | Store (a, x) -> Store (rename_operand l a, rename_operand l x)
          | Call (res, name, args) ->
            let args = List.map (rename_operand l) args in
            let res =
              match res with
              | None -> None
              | Some v ->
                let nv = fresh_of v in
                push v nv;
                pushed := v :: !pushed;
                Some nv
            in
            Call (res, name, args)
          | Marker n -> Marker n)
        b.b_instrs
    in
    let new_term = map_terminator_operands (rename_operand l) b.b_term in
    (* feed phi arguments of successors *)
    List.iter
      (fun s ->
        let s_phi_vars =
          Option.value ~default:Iset.empty (Imap.find_opt s !phis_at) |> Iset.elements
        in
        List.iter
          (fun v ->
            let arg =
              match top v with
              | Some x -> Reg x
              | None -> Const 0 (* variable dead along this edge; any value is fine *)
            in
            let key = (s, v) in
            let existing = Option.value ~default:[] (Pmap.find_opt key !phi_args) in
            phi_args := Pmap.add key ((l, arg) :: existing) !phi_args)
          s_phi_vars)
      (successors new_term);
    new_blocks := Imap.add l { b_instrs = new_instrs; b_term = new_term } !new_blocks;
    List.iter walk (Dom.children dom l);
    List.iter pop !pushed
  and map_instr_rvalue l rv =
    match rv with
    | Phi _ -> failwith "ssa: phi in pre-SSA input"
    | _ -> (
      match
        map_instr_operands (rename_operand l) (Def (0, rv))
      with
      | Def (_, rv') -> rv'
      | _ -> assert false)
  in
  walk fn.fn_entry;
  (* prepend phi definitions, with argument order matching predecessor order *)
  let final_blocks =
    Imap.mapi
      (fun l b ->
        let phi_vars =
          Option.value ~default:Iset.empty (Imap.find_opt l !phis_at) |> Iset.elements
        in
        let ps = Option.value ~default:[] (Imap.find_opt l preds) in
        let phi_defs =
          List.map
            (fun v ->
              let nv = Pmap.find (l, v) phi_name in
              let args = Option.value ~default:[] (Pmap.find_opt (l, v) !phi_args) in
              let arg_for p =
                match List.assoc_opt p args with
                | Some a -> (p, a)
                | None -> (p, Const 0) (* edge from a block where v is dead *)
              in
              Def (nv, Phi (List.map arg_for ps)))
            phi_vars
        in
        { b with b_instrs = phi_defs @ b.b_instrs })
      !new_blocks
  in
  let fn = { fn with fn_blocks = final_blocks; fn_next_var = !next; fn_var_names = !names } in
  Validate.func_exn Validate.Ssa fn;
  (* every definition takes a fresh register, so only a function that
     allocated none can have come out equal to its input *)
  if !next = input.fn_next_var && compare fn input = 0 then input else fn

let construct_program prog = map_func construct prog
