open Dce_ir
open Ir
module Ops = Dce_minic.Ops

type config = { max_trip : int }

let default_config = { max_trip = 24 }

(* loops with larger bodies (instructions) are left alone *)
let max_body = 64

(* the growth budget per function scales with the trip threshold, so a
   level that unrolls longer loops can spend its larger limit on big
   functions *)
let max_growth config = 200 + (30 * config.max_trip)

exception Not_unrollable

(* exact symbolic evaluation of the register chain feeding the header phis:
   pure integer operators only, so total semantics make this exact *)
let symbolic_eval dt env op =
  let rec go fuel op =
    if fuel <= 0 then raise Not_unrollable;
    match op with
    | Const k -> k
    | Reg v -> (
      match Hashtbl.find_opt env v with
      | Some k -> k
      | None -> (
        match Meminfo.def_rvalue dt v with
        | Some (Op a) -> go (fuel - 1) a
        | Some (Unary (u, a)) -> Ops.eval_unop u (go (fuel - 1) a)
        | Some (Binary (o, a, b)) -> Ops.eval_binop o (go (fuel - 1) a) (go (fuel - 1) b)
        | Some (Load _) | Some (Phi _) | Some (Addr _) | Some (Ptradd _) | None ->
          raise Not_unrollable))
  in
  go 64 op

(* header phis as (var, preheader_arg, latch_arg) *)
let header_phis fn loop =
  let header_block = block fn loop.Loops.header in
  List.filter_map
    (fun i ->
      match i with
      | Def (v, Phi args) ->
        let pre = List.find_opt (fun (p, _) -> not (Iset.mem p loop.Loops.body)) args in
        let lat = List.find_opt (fun (p, _) -> Iset.mem p loop.Loops.body) args in
        (match (pre, lat, List.length args) with
         | Some (_, a), Some (_, b), 2 -> Some (v, a, b)
         | _ -> raise Not_unrollable)
      | _ -> None)
    header_block.b_instrs

let compute_trip ~max_trip fn loop =
  let dt = Meminfo.deftab fn in
  let header_block = block fn loop.Loops.header in
  let cond, body_target, exit_target =
    match header_block.b_term with
    | Br (c, t1, t2) -> (
      match (Iset.mem t1 loop.Loops.body, Iset.mem t2 loop.Loops.body) with
      | true, false -> (c, t1, t2)
      | false, true -> (c, t2, t1)
      | _ -> raise Not_unrollable)
    | _ -> raise Not_unrollable
  in
  let phis = header_phis fn loop in
  let phi_vars = List.fold_left (fun s (v, _, _) -> Iset.add v s) Iset.empty phis in
  (* only the phis the exit condition transitively depends on need simulating;
     accumulator phis (e.g. a running sum seeded by a load) are irrelevant to
     the trip count and must not disqualify the loop *)
  let rec chain_deps fuel acc op =
    if fuel <= 0 then acc
    else
      match op with
      | Const _ -> acc
      | Reg v ->
        if Iset.mem v phi_vars then Iset.add v acc
        else (
          match Meminfo.def_rvalue dt v with
          | Some (Op a) | Some (Unary (_, a)) -> chain_deps (fuel - 1) acc a
          | Some (Binary (_, a, b)) -> chain_deps (fuel - 1) (chain_deps (fuel - 1) acc a) b
          | _ -> acc)
  in
  let needed = ref (chain_deps 64 Iset.empty cond) in
  let grown = ref true in
  while !grown do
    grown := false;
    List.iter
      (fun (v, _, latch_arg) ->
        if Iset.mem v !needed then begin
          let deps = chain_deps 64 !needed latch_arg in
          if not (Iset.equal deps !needed) then begin
            needed := deps;
            grown := true
          end
        end)
      phis
  done;
  let sim_phis = List.filter (fun (v, _, _) -> Iset.mem v !needed) phis in
  let env = Hashtbl.create 8 in
  (* initial values from the preheader args (outside the loop, so the empty
     environment suffices; non-constant chains raise Not_unrollable) *)
  let empty_env : (int, int) Hashtbl.t = Hashtbl.create 1 in
  List.iter
    (fun (v, pre_arg, _) -> Hashtbl.replace env v (symbolic_eval dt empty_env pre_arg))
    sim_phis;
  let eval op = symbolic_eval dt env op in
  let trip = ref 0 in
  let finished = ref false in
  while not !finished do
    let c = eval cond in
    let continues = if c <> 0 then body_target else exit_target in
    if continues = exit_target then finished := true
    else begin
      incr trip;
      if !trip > max_trip then raise Not_unrollable;
      let updates = List.map (fun (v, _, latch_arg) -> (v, eval latch_arg)) sim_phis in
      List.iter (fun (v, k) -> Hashtbl.replace env v k) updates
    end
  done;
  !trip

let eligible fn loop =
  List.length loop.Loops.latches = 1
  && List.for_all (fun (src, _) -> src = loop.Loops.header) loop.Loops.exits
  &&
  let preds = Cfg.predecessors fn in
  let header_preds = Option.value ~default:[] (Imap.find_opt loop.Loops.header preds) in
  let outside = List.filter (fun p -> not (Iset.mem p loop.Loops.body)) header_preds in
  List.length outside = 1

let body_size fn loop =
  Iset.fold (fun l acc -> acc + List.length (block fn l).b_instrs + 1) loop.Loops.body 0

let unroll_loop fn loop trip =
  let latch = List.hd loop.Loops.latches in
  let preds = Cfg.predecessors fn in
  let header_preds = Option.value ~default:[] (Imap.find_opt loop.Loops.header preds) in
  let preheader =
    List.find (fun p -> not (Iset.mem p loop.Loops.body)) header_preds
  in
  let orig_phis = header_phis fn loop in
  (* clone trip+1 copies *)
  let fn = ref fn in
  let maps = ref [] in
  for _k = 0 to trip do
    let fn', m = Clone.clone_region !fn loop.Loops.body in
    fn := fn';
    maps := m :: !maps
  done;
  let maps = Array.of_list (List.rev !maps) in
  let map_k k = maps.(k) in
  let blocks = ref !fn.fn_blocks in
  let update l f =
    match Imap.find_opt l !blocks with
    | Some b -> blocks := Imap.add l (f b) !blocks
    | None -> ()
  in
  (* 1. preheader enters copy 0 *)
  update preheader (fun b ->
      { b with b_term = map_terminator_labels (fun t -> if t = loop.Loops.header then Clone.map_label (map_k 0) loop.Loops.header else t) b.b_term });
  (* 2. chain latches: copy k's back edge goes to copy k+1's header; the last
     copy's back edge is dynamically dead and goes to a stub return *)
  let stub_label = !fn.fn_next_label in
  fn := { !fn with fn_next_label = stub_label + 1 };
  let stub_term = if !fn.fn_returns_value then Ret (Some (Const 0)) else Ret None in
  blocks := Imap.add stub_label { b_instrs = []; b_term = stub_term } !blocks;
  for k = 0 to trip do
    let latch_k = Clone.map_label (map_k k) latch in
    let header_k = Clone.map_label (map_k k) loop.Loops.header in
    let next_header =
      if k < trip then Clone.map_label (map_k (k + 1)) loop.Loops.header else stub_label
    in
    update latch_k (fun b ->
        { b with b_term = map_terminator_labels (fun t -> if t = header_k then next_header else t) b.b_term })
  done;
  (* 3. header copies: phis become plain copies *)
  for k = 0 to trip do
    let header_k = Clone.map_label (map_k k) loop.Loops.header in
    update header_k (fun b ->
        let instrs =
          List.map
            (fun i ->
              match i with
              | Def (v, Phi _) -> (
                (* v is the cloned phi var: find the original it came from *)
                let orig =
                  List.find_opt (fun (ov, _, _) -> Clone.map_var (map_k k) ov = v) orig_phis
                in
                match orig with
                | Some (_, pre_arg, latch_arg) ->
                  if k = 0 then Def (v, Op pre_arg)
                  else Def (v, Op (Clone.map_operand (map_k (k - 1)) latch_arg))
                | None -> i)
              | _ -> i)
            b.b_instrs
        in
        { b with b_instrs = instrs })
  done;
  (* 4. exit blocks: replicate phi entries whose pred was a loop block *)
  let exit_targets = Dce_support.Listx.uniq (List.map snd loop.Loops.exits) in
  List.iter
    (fun s ->
      update s (fun b ->
          let instrs =
            List.map
              (fun i ->
                match i with
                | Def (v, Phi args) ->
                  let expanded =
                    List.concat_map
                      (fun (p, a) ->
                        if Iset.mem p loop.Loops.body then
                          List.init (trip + 1) (fun k ->
                              (Clone.map_label (map_k k) p, Clone.map_operand (map_k k) a))
                        else [ (p, a) ])
                      args
                  in
                  Def (v, Phi expanded)
                | _ -> i)
              b.b_instrs
          in
          { b with b_instrs = instrs }))
    exit_targets;
  let fn = { !fn with fn_blocks = !blocks } in
  Cfg.remove_unreachable_blocks fn

let trip_count ~max_trip fn loop =
  try Some (compute_trip ~max_trip fn loop) with Not_unrollable -> None

(* fold constants exposed by unrolling (the copies' now-constant branch
   conditions) and clean the CFG, so outer loops of a nest become eligible
   again — the "unroll then simplify" loop real unrollers run *)
let const_cleanup fn =
  let rec rounds n fn =
    if n <= 0 then fn
    else begin
      let dt = Meminfo.deftab fn in
      let resolve op =
        match Meminfo.resolve_const dt op with
        | Some k -> Const k
        | None -> op
      in
      let fold_instr i =
        match map_instr_operands resolve i with
        | Def (v, Unary (u, Const a)) -> Def (v, Op (Const (Ops.eval_unop u a)))
        | Def (v, Binary (o, Const a, Const b)) -> Def (v, Op (Const (Ops.eval_binop o a b)))
        | i -> i
      in
      let blocks =
        Imap.map
          (fun b ->
            {
              b_instrs = List.map fold_instr b.b_instrs;
              b_term = map_terminator_operands resolve b.b_term;
            })
          fn.fn_blocks
      in
      let fn' = Simplify_cfg.run { fn with fn_blocks = blocks } in
      if fn'.fn_blocks = fn.fn_blocks then fn' else rounds (n - 1) fn'
    end
  in
  rounds 6 fn

let run config fn =
  let budget = ref (max_growth config) in
  let rec attempt fn rounds =
    if rounds <= 0 then fn
    else begin
      let loops = Loops.natural_loops fn in
      let result = ref None in
      List.iter
        (fun loop ->
          if !result = None && eligible fn loop then begin
            let size = body_size fn loop in
            if size <= max_body then
              try
                let trip = compute_trip ~max_trip:config.max_trip fn loop in
                let growth = size * (trip + 1) in
                if growth <= !budget then
                  (* close the loop (LCSSA) so cloned values reach outside
                     uses through exit phis *)
                  match Lcssa.close_loop fn loop with
                  | Some fn' ->
                    budget := !budget - growth;
                    result := Some (const_cleanup (unroll_loop fn' loop trip))
                  | None -> ()
              with Not_unrollable -> ()
          end)
        loops;
      match !result with
      | Some fn' -> attempt fn' (rounds - 1)
      | None -> fn
    end
  in
  attempt fn 8
