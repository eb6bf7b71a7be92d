open Dce_minic.Ast
module Rng = Dce_support.Rng
module Ops = Dce_minic.Ops

type kind =
  | K_literal
  | K_const_local
  | K_global_nostore
  | K_global_samestore
  | K_global_diffstore
  | K_addr_cmp
  | K_uniform_array
  | K_inline_chain
  | K_loop_sum
  | K_range
  | K_shift_range
  | K_alias_table
  | K_loop_guard
  | K_switch
  | K_func_dead
  | K_ptr_loop
  | K_ipa_arg
  | K_peep_eq
  | K_alive

let kind_name = function
  | K_literal -> "literal"
  | K_const_local -> "const-local"
  | K_global_nostore -> "global-nostore"
  | K_global_samestore -> "global-samestore"
  | K_global_diffstore -> "global-diffstore"
  | K_addr_cmp -> "addr-cmp"
  | K_uniform_array -> "uniform-array"
  | K_inline_chain -> "inline-chain"
  | K_loop_sum -> "loop-sum"
  | K_range -> "range"
  | K_shift_range -> "shift-range"
  | K_alias_table -> "alias-table"
  | K_loop_guard -> "loop-guard"
  | K_switch -> "switch"
  | K_func_dead -> "func-dead"
  | K_ptr_loop -> "ptr-loop"
  | K_ipa_arg -> "ipa-arg"
  | K_peep_eq -> "peep-eq"
  | K_alive -> "alive"

let all_kinds =
  [
    K_literal; K_const_local; K_global_nostore; K_global_samestore; K_global_diffstore;
    K_addr_cmp; K_uniform_array; K_inline_chain; K_loop_sum; K_range; K_shift_range;
    K_alias_table; K_loop_guard; K_switch; K_func_dead; K_ptr_loop; K_ipa_arg; K_peep_eq;
    K_alive;
  ]

type config = {
  seed : int;
  num_sites : int;
  num_helpers : int;
  weights : (kind * int) list;
  max_nest : int;
}

(* Weights tuned so the corpus reproduces the paper's Table 1/2 shape:
   front-end-foldable and O1-foldable kinds dominate (Csmith dead code is
   mostly simple), the analysis-specific kinds provide the inter-compiler and
   inter-level differentials, and alive sites contribute ~10 % live markers
   plus the irreducible "missed by everyone" background. *)
let default_weights =
  [
    (K_literal, 18);
    (K_const_local, 26);
    (K_global_nostore, 22);
    (K_switch, 12);
    (K_inline_chain, 8);
    (K_loop_sum, 5);
    (K_range, 3);
    (K_loop_guard, 2);
    (K_alive, 6);
    (K_global_samestore, 2);
    (K_global_diffstore, 2);
    (K_addr_cmp, 2);
    (K_uniform_array, 1);
    (K_shift_range, 1);
    (K_alias_table, 1);
    (K_func_dead, 1);
    (K_ptr_loop, 1);
    (K_ipa_arg, 2);
    (K_peep_eq, 2);
  ]

let default_config seed =
  { seed; num_sites = 15; num_helpers = 1; weights = default_weights; max_nest = 4 }

(* ---------- generator state ---------- *)

type st = {
  rng : Rng.t;
  mutable globals : global list; (* reversed *)
  mutable helpers : func list;   (* reversed *)
  mutable tail : stmt list;      (* appended at the end of main, reversed *)
  mutable gid : int;
  mutable fid : int;
  mutable lid : int;
  mutable counts : (kind * int) list;
  (* int-typed globals safe to read anywhere (alive values) *)
  mutable readable : string list;
}

let bump st kind =
  let cur = Option.value ~default:0 (List.assoc_opt kind st.counts) in
  st.counts <- (kind, cur + 1) :: List.remove_assoc kind st.counts

let fresh_global st = let n = st.gid in st.gid <- n + 1; Printf.sprintf "g_%d" n
let fresh_func st = let n = st.fid in st.fid <- n + 1; Printf.sprintf "fn_%d" n
let fresh_local st = let n = st.lid in st.lid <- n + 1; Printf.sprintf "t_%d" n

let add_global st ?(static = true) ?(typ = Tint) ?(init = Gzero) () =
  let name = fresh_global st in
  st.globals <- { g_name = name; g_typ = typ; g_init = init; g_static = static } :: st.globals;
  name

(* an opaque runtime value: an extern call, masked to stay small *)
let opaque st ?(mask = 63) () =
  let salt = Rng.int st.rng 1000 in
  Binary (Ops.Band, Call ("ext", [ Int salt ]), Int mask)

(* a small pure expression over the given readable variables *)
let rec small_expr st depth vars =
  if depth <= 0 || vars = [] || Rng.chance st.rng 0.4 then
    if vars <> [] && Rng.chance st.rng 0.6 then Var (Rng.choose st.rng vars)
    else Int (Rng.int_in st.rng (-20) 40)
  else
    let op =
      Rng.choose st.rng [ Ops.Add; Ops.Sub; Ops.Mul; Ops.Band; Ops.Bor; Ops.Bxor ]
    in
    Binary (op, small_expr st (depth - 1) vars, small_expr st (depth - 1) vars)

(* a few harmless statements (assignments to fresh globals, sink calls) *)
let filler_stmts st vars =
  let n = Rng.int_in st.rng 1 3 in
  List.init n (fun _ ->
      if Rng.chance st.rng 0.5 then begin
        let g = add_global st ~static:true () in
        Sassign (Lvar g, small_expr st 2 vars)
      end
      else Sexpr (Call ("use", [ small_expr st 2 vars ])))

(* body of a dead (or alive) region: filler + possibly nested structure.
   Nested conditions are mostly cheaply foldable (constants through one local)
   so that, like Csmith output, the bulk of nested dead blocks disappears as
   soon as the enclosing region is reachable to the optimizer — only the
   enclosing condition carries the analysis challenge. *)
let rec region_body st nest vars =
  let base = filler_stmts st vars in
  let nested_if nest' =
    if Rng.chance st.rng 0.7 then begin
      (* foldable-false guard: a constant local compared out of range *)
      let t = fresh_local st in
      let v = Rng.int_in st.rng 0 9 in
      [
        Sdecl (t, Tint, Some (Int v));
        Sif (Binary (Ops.Gt, Var t, Int (v + Rng.int_in st.rng 5 40)),
             region_body st nest' vars, []);
      ]
    end
    else [ Sif (small_expr st 2 vars, region_body st nest' vars, []) ]
  in
  let twice = nest > 1 && Rng.chance st.rng 0.4 in
  let extra2 = if twice then nested_if (nest - 2) else [] in
  let extra =
    if nest > 0 then begin
      (* nested structure; inside a dead region everything becomes secondary *)
      match Rng.int st.rng 3 with
      | 0 -> nested_if (nest - 1)
      | 1 ->
        (* small loop over a fresh local *)
        let i = fresh_local st in
        [
          Sdecl (i, Tint, Some (Int 0));
          Swhile
            ( Binary (Ops.Lt, Var i, Int (Rng.int_in st.rng 1 4)),
              region_body st (nest - 1) vars @ [ Sassign (Lvar i, Binary (Ops.Add, Var i, Int 1)) ]
            );
        ]
      | _ ->
        (* a conditional early return that never fires at run time (the
           condition is statically nonzero-or-one, dynamically never zero) *)
        [
          Sif
            ( Binary (Ops.Eq, Binary (Ops.Bor, opaque st (), Int 1), Int 0),
              [ Sreturn (Some (Int 0)) ],
              [] );
        ]
    end
    else []
  in
  base @ extra @ extra2

(* ---------- dead-site builders; each returns statements for main ---------- *)

let site_literal st nest vars =
  let body = region_body st nest vars in
  if Rng.chance st.rng 0.3 then [ Swhile (Int 0, body) ] else [ Sif (Int 0, body, []) ]

let site_const_local st nest vars =
  let t = fresh_local st in
  let v = Rng.int_in st.rng 1 9 in
  [
    Sdecl (t, Tint, Some (Int v));
    Sif (Binary (Ops.Gt, Binary (Ops.Mul, Var t, Int 2), Int 100), region_body st nest vars, []);
  ]

let site_global_nostore st nest vars =
  let init = Rng.int_in st.rng 0 5 in
  let g = add_global st ~init:(Gint init) () in
  [ Sif (Binary (Ops.Ne, Var g, Int init), region_body st nest vars, []) ]

let site_global_samestore st nest vars =
  let g = add_global st ~init:(Gint 0) () in
  st.tail <- Sassign (Lvar g, Int 0) :: st.tail;
  [ Sif (Var g, region_body st nest vars, []) ]

let site_global_diffstore st nest vars =
  let g = add_global st ~init:(Gint 0) () in
  st.tail <- Sassign (Lvar g, Int 1) :: st.tail;
  [ Sif (Var g, region_body st nest vars, []) ]

let site_addr_cmp st nest vars =
  let a = add_global st ~static:false () in
  let b = add_global st ~static:false ~typ:(Tarr 2) () in
  let p = fresh_local st in
  let q = fresh_local st in
  let k = if Rng.chance st.rng 0.7 then 1 else 0 in
  [
    Sdecl (p, Tptr, Some (Addr_of (Lvar a)));
    Sdecl (q, Tptr, Some (Addr_of (Lindex (b, Int k))));
    Sif (Binary (Ops.Eq, Var p, Var q), region_body st nest vars, []);
  ]

let site_uniform_array st nest vars =
  let v = Rng.int_in st.rng 0 3 in
  let size = Rng.choose st.rng [ 2; 4 ] in
  let arr = add_global st ~typ:(Tarr size) ~init:(Gints (List.init size (fun _ -> v))) () in
  let idx = Binary (Ops.Band, opaque st (), Int (size - 1)) in
  [ Sif (Binary (Ops.Ne, Index (arr, idx), Int v), region_body st nest vars, []) ]

let site_inline_chain st nest vars =
  let deep = Rng.chance st.rng 0.08 in
  let depth = Rng.int_in st.rng 1 3 in
  let const = Rng.int_in st.rng 1 50 in
  (* chain fn_k() { return fn_{k-1}() + 1; }; base returns const *)
  let pad body =
    (* deep chains get padded bodies so only large inline thresholds take them *)
    if deep then
      let stmts =
        List.init 30 (fun i ->
            let t = fresh_local st in
            Sdecl (t, Tint, Some (Binary (Ops.Add, Int i, Int const))))
      in
      stmts @ body
    else body
  in
  let base_name = fresh_func st in
  st.helpers <-
    {
      f_name = base_name;
      f_params = [];
      f_ret = Some Tint;
      f_body = pad [ Sreturn (Some (Int const)) ];
      f_static = true;
    }
    :: st.helpers;
  let rec chain name k =
    if k = 0 then name
    else begin
      let next = fresh_func st in
      st.helpers <-
        {
          f_name = next;
          f_params = [];
          f_ret = Some Tint;
          f_body = pad [ Sreturn (Some (Binary (Ops.Add, Call (name, []), Int 1))) ];
          f_static = true;
        }
        :: st.helpers;
      chain next (k - 1)
    end
  in
  let top = chain base_name depth in
  [ Sif (Binary (Ops.Ne, Call (top, []), Int (const + depth)), region_body st nest vars, []) ]

let site_loop_sum st nest vars =
  (* trips beyond 16 need the -O3 unroll budget: an O3-only win *)
  let n = if Rng.chance st.rng 0.08 then Rng.int_in st.rng 17 30 else Rng.int_in st.rng 3 14 in
  let s = fresh_local st in
  let i = fresh_local st in
  let expected = n * (n - 1) / 2 in
  [
    Sdecl (s, Tint, Some (Int 0));
    Sdecl (i, Tint, None);
    Sfor
      ( Some (Sassign (Lvar i, Int 0)),
        Some (Binary (Ops.Lt, Var i, Int n)),
        Some (Sassign (Lvar i, Binary (Ops.Add, Var i, Int 1))),
        [ Sassign (Lvar s, Binary (Ops.Add, Var s, Var i)) ] );
    Sif (Binary (Ops.Ne, Var s, Int expected), region_body st nest vars, []);
  ]

let site_range st nest vars =
  let t = fresh_local st in
  let mask = Rng.choose st.rng [ 7; 15; 31 ] in
  if Rng.chance st.rng 0.25 then begin
    (* mod-singleton variant: needs Eq-refinement plus the mod range rule *)
    let m = Rng.int_in st.rng 5 9 in
    let k = Rng.int_in st.rng 0 (min 4 (m - 1)) in
    [
      Sdecl (t, Tint, Some (opaque st ~mask ()));
      Sif
        ( Binary (Ops.Eq, Var t, Int k),
          [ Sif (Binary (Ops.Ne, Binary (Ops.Mod, Var t, Int m), Int k), region_body st nest vars, []) ],
          [] );
    ]
  end
  else
    [
      Sdecl (t, Tint, Some (opaque st ~mask ()));
      Sif (Binary (Ops.Gt, Var t, Int (mask + Rng.int_in st.rng 1 20)), region_body st nest vars, []);
    ]

let site_shift_range st nest vars =
  (* t = opaque&m | 1 (nonzero); if (t << k) { if (t == 0) DEAD } *)
  let t = fresh_local st in
  let k = Rng.int_in st.rng 1 4 in
  [
    Sdecl (t, Tint, Some (Binary (Ops.Bor, opaque st ~mask:7 (), Int 1)));
    Sif
      ( Binary (Ops.Shl, Var t, Int k),
        [ Sif (Binary (Ops.Eq, Var t, Int 0), region_body st nest vars, []) ],
        [] );
  ]

let site_alias_table st nest vars =
  (* a store through a pointer loaded from a table sits between a constant
     store to a non-escaping static and its re-read: proving the check dead
     requires knowing the unknown pointer cannot target the static *)
  let x = add_global st ~init:(Gint 0) () in
  let y = add_global st ~static:false () in
  let z = add_global st ~static:false () in
  let tab = add_global st ~static:true ~typ:(Tarr 2) () in
  let p = fresh_local st in
  let v = Rng.int_in st.rng 2 9 in
  let idx = Binary (Ops.Band, opaque st (), Int 1) in
  [
    Sassign (Lvar x, Int v);
    Sassign (Lindex (tab, Int 0), Addr_of (Lvar y));
    Sassign (Lindex (tab, Int 1), Addr_of (Lvar z));
    Sdecl (p, Tptr, Some (Index (tab, idx)));
    Sassign (Lderef (Var p), Int (Rng.int_in st.rng 1 9));
    Sif (Binary (Ops.Ne, Var x, Int v), region_body st nest vars, []);
  ]

let site_loop_guard st nest vars =
  let g = add_global st ~static:false ~init:(Gint 0) () in
  [
    Sassign (Lvar g, Int 0);
    Swhile (Var g, region_body st nest vars);
  ]

let site_switch st nest vars =
  let t = fresh_local st in
  let taken = Rng.int_in st.rng 0 2 in
  let a = Rng.int_in st.rng 1 9 in
  let cases =
    List.init 3 (fun k ->
        (k, region_body st (if k = taken then 0 else nest) vars))
  in
  [
    (* constant scrutinee behind one arithmetic step: folds at -O1, not -O0 *)
    Sdecl (t, Tint, Some (Binary (Ops.Sub, Int (taken + a), Int a)));
    Sswitch (Var t, cases, region_body st nest vars);
  ]

let site_func_dead st nest vars =
  (* a static function reachable only from a foldable-false branch *)
  let dead_fn = fresh_func st in
  st.helpers <-
    {
      f_name = dead_fn;
      f_params = [];
      f_ret = Some Tint;
      f_body =
        (* the paper's Listing 9b shape: the dead function never returns, so
           the inliner leaves it alone and only unreachable-node removal can
           eliminate its markers *)
        (let g = add_global st () in
         (Sassign (Lvar g, Int 7) :: region_body st nest [ g ])
         @ [ Swhile (Int 1, [ Sassign (Lvar g, Binary (Ops.Add, Var g, Int 1)) ]);
             Sreturn (Some (Int 0)) ]);
      f_static = true;
    }
    :: st.helpers;
  let t = fresh_local st in
  ignore vars;
  [
    Sdecl (t, Tint, Some (Int (Rng.int_in st.rng 1 5)));
    Sif (Binary (Ops.Eq, Var t, Int 0), [ Sexpr (Call (dead_fn, [])) ], []);
  ]

let site_ptr_loop st nest vars =
  let size = Rng.choose st.rng [ 2; 4 ] in
  let a = add_global st ~typ:(Tarr 2) () in
  let b = add_global st ~init:(Gint 0) () in
  let c = add_global st ~typ:(Tarr size) () in
  [
    Sfor
      ( Some (Sassign (Lvar b, Int 0)),
        Some (Binary (Ops.Lt, Var b, Int size)),
        Some (Sassign (Lvar b, Binary (Ops.Add, Var b, Int 1))),
        [ Sassign (Lindex (c, Var b), Addr_of (Lindex (a, Int 1))) ] );
    Sif (Unary (Ops.Lnot, Index (c, Int 0)), region_body st nest vars, []);
  ]

let site_ipa_arg st nest vars =
  (* a static helper too large for any inline threshold, whose dead branch is
     gated by its parameter; every call site passes the same constant, so only
     interprocedural constant propagation proves the branch dead *)
  let helper = fresh_func st in
  let const = Rng.int_in st.rng 2 40 in
  let pad =
    (* ~90 statements of busywork keep the body above the -O3 inline limit *)
    List.concat
      (List.init 30 (fun i ->
           let t = fresh_local st in
           let g = add_global st () in
           [
             Sdecl (t, Tint, Some (Binary (Ops.Add, Var "x", Int i)));
             Sassign (Lvar g, Binary (Ops.Mul, Var t, Int (i + 1)));
             Sexpr (Call ("use", [ Binary (Ops.Bxor, Var t, Var g) ]));
           ]))
  in
  st.helpers <-
    {
      f_name = helper;
      f_params = [ { p_name = "x"; p_typ = Tint } ];
      f_ret = Some Tint;
      f_body =
        pad
        @ [
            Sif (Binary (Ops.Ne, Var "x", Int const), region_body st nest vars, []);
            Sreturn (Some (Binary (Ops.Add, Var "x", Int 1)));
          ];
      f_static = true;
    }
    :: st.helpers;
  [ Sexpr (Call ("use", [ Call (helper, [ Int const ]) ])) ]

let site_peep_eq st nest vars =
  (* (t + c1) == (t + c2) with c1 <> c2: always false, opaque to range
     analysis (t unbounded), decidable only by the offset-compare
     instcombine pattern (peephole level 3) *)
  let t = fresh_local st in
  let c1 = Rng.int_in st.rng 1 30 in
  let c2 = c1 + Rng.int_in st.rng 1 20 in
  [
    Sdecl (t, Tint, Some (Call ("ext", [ Int (Rng.int st.rng 1000) ])));
    Sif
      ( Binary (Ops.Eq, Binary (Ops.Add, Var t, Int c1), Binary (Ops.Add, Var t, Int c2)),
        region_body st nest vars,
        [] );
  ]

let site_alive st nest vars =
  match Rng.int st.rng 3 with
  | 0 ->
    (* always-true masked comparison *)
    let t = fresh_local st in
    [
      Sdecl (t, Tint, Some (opaque st ~mask:15 ()));
      Sif (Binary (Ops.Le, Var t, Int 100), region_body st nest vars, []);
    ]
  | 1 ->
    (* executed loop *)
    let i = fresh_local st in
    let trips = Rng.int_in st.rng 1 5 in
    let g = add_global st () in
    [
      Sdecl (i, Tint, Some (Int 0));
      Swhile
        ( Binary (Ops.Lt, Var i, Int trips),
          (Sassign (Lvar g, Binary (Ops.Add, Var g, Var i))
           :: region_body st (max 0 (nest - 1)) (g :: vars))
          @ [ Sassign (Lvar i, Binary (Ops.Add, Var i, Int 1)) ] );
      Sexpr (Call ("use", [ Var g ]));
    ]
  | _ ->
    (* if/else where the else side is the one executed *)
    let t = fresh_local st in
    [
      Sdecl (t, Tint, Some (Binary (Ops.Bor, opaque st ~mask:7 (), Int 8)));
      Sif
        ( Binary (Ops.Lt, Var t, Int 8),
          region_body st nest vars,
          region_body st (max 0 (nest - 1)) vars );
    ]

let build_site st kind nest vars =
  bump st kind;
  let nest = match kind with K_alive -> 0 | _ -> nest in
  match kind with
  | K_literal -> site_literal st nest vars
  | K_const_local -> site_const_local st nest vars
  | K_global_nostore -> site_global_nostore st nest vars
  | K_global_samestore -> site_global_samestore st nest vars
  | K_global_diffstore -> site_global_diffstore st nest vars
  | K_addr_cmp -> site_addr_cmp st nest vars
  | K_uniform_array -> site_uniform_array st nest vars
  | K_inline_chain -> site_inline_chain st nest vars
  | K_loop_sum -> site_loop_sum st nest vars
  | K_range -> site_range st nest vars
  | K_shift_range -> site_shift_range st nest vars
  | K_alias_table -> site_alias_table st nest vars
  | K_loop_guard -> site_loop_guard st nest vars
  | K_switch -> site_switch st nest vars
  | K_func_dead -> site_func_dead st nest vars
  | K_ptr_loop -> site_ptr_loop st nest vars
  | K_ipa_arg -> site_ipa_arg st nest vars
  | K_peep_eq -> site_peep_eq st nest vars
  | K_alive -> site_alive st nest vars

(* generic helper functions: small pure computations over their argument *)
let generic_helper st =
  let name = fresh_func st in
  let body =
    [
      Sif
        ( Binary (Ops.Gt, Var "x", Int (Rng.int_in st.rng 10 60)),
          [ Sreturn (Some (Binary (Ops.Sub, Var "x", Int 1))) ],
          [] );
      Sreturn (Some (small_expr st 2 [ "x" ]));
    ]
  in
  st.helpers <-
    { f_name = name; f_params = [ { p_name = "x"; p_typ = Tint } ]; f_ret = Some Tint; f_body = body; f_static = true }
    :: st.helpers;
  name

let generate config =
  let st =
    {
      rng = Rng.make config.seed;
      globals = [];
      helpers = [];
      tail = [];
      gid = 0;
      fid = 0;
      lid = 0;
      counts = [];
      readable = [];
    }
  in
  (* a couple of always-available readable globals *)
  let base_globals =
    List.init 2 (fun _ -> add_global st ~init:(Gint (Rng.int_in st.rng 0 9)) ())
  in
  st.readable <- base_globals;
  let helper_names = List.init config.num_helpers (fun _ -> generic_helper st) in
  let main_sites =
    List.concat_map
      (fun _ ->
        let kind = Rng.weighted st.rng (List.map (fun (k, w) -> (w, k)) config.weights) in
        build_site st kind config.max_nest st.readable)
      (List.init config.num_sites (fun i -> i))
  in
  (* sprinkle a few helper calls so generic helpers are reachable *)
  let helper_calls =
    List.map
      (fun h -> Sexpr (Call ("use", [ Call (h, [ small_expr st 1 st.readable ]) ])))
      helper_names
  in
  let main_body = helper_calls @ main_sites @ List.rev st.tail @ [ Sreturn (Some (Int 0)) ] in
  let main =
    { f_name = "main"; f_params = []; f_ret = Some Tint; f_body = main_body; f_static = false }
  in
  let prog =
    {
      p_globals = List.rev st.globals;
      p_funcs = List.rev (main :: st.helpers);
      p_externs = [ ("use", 1); ("ext", 1) ];
    }
  in
  match Dce_minic.Typecheck.check prog with
  | Ok p -> (p, st.counts)
  | Error errs ->
    failwith
      (Printf.sprintf "Smith generated an ill-formed program (seed %d):\n%s\n%s" config.seed
         (String.concat "\n" errs)
         (Dce_minic.Pretty.program_to_string prog))

(* the per-program seed sequence behind [generate_corpus], exposed so a
   parallel campaign can regenerate any single corpus program from its index
   without drawing the whole corpus *)
let corpus_seeds ~seed ~count =
  let rng = Rng.make seed in
  List.init count (fun _ -> Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2))

let generate_corpus ~seed ~count =
  List.map (fun s -> generate (default_config s)) (corpus_seeds ~seed ~count)
