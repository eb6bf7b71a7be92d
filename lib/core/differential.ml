module Ir = Dce_ir.Ir
module C = Dce_compiler

type config = { compiler : C.Compiler.t; level : C.Level.t; version : int option }

let config_name cfg =
  let base = Printf.sprintf "%s %s" cfg.compiler.C.Compiler.name (C.Level.to_string cfg.level) in
  match cfg.version with
  | None -> base
  | Some v -> Printf.sprintf "%s @v%d" base v

let iset_of markers = List.fold_left (fun s n -> Ir.Iset.add n s) Ir.Iset.empty markers

let markers_in ir = iset_of (Dce_backend.Asm.surviving_markers (Dce_backend.Codegen.program ir))

let observe session cfg = C.Compiler.observe session cfg.compiler ?version:cfg.version cfg.level

let surviving ?validate cfg prog =
  iset_of (observe (C.Compiler.session ?validate prog) cfg).C.Compiler.obs_markers

let missed ~surviving ~dead = Ir.Iset.inter surviving dead

(* Semantic oracle for pass pipelines: two IR programs are equivalent when
   their executions agree on outcome and event sequence. *)
let semantics_preserved a b =
  Dce_interp.Interp.equivalent (Dce_exec.Exec.run a) (Dce_exec.Exec.run b)

let semantics_preserved_strict a b =
  Dce_interp.Interp.equivalent_strict (Dce_exec.Exec.run a) (Dce_exec.Exec.run b)

let missed_vs_other ~mine ~other = Ir.Iset.diff mine other

(* ------------------------------------------------------------------ *)
(* code-size oracle                                                    *)
(* ------------------------------------------------------------------ *)

let size_curve ~compilers prog =
  let session = C.Compiler.session ~cache:true prog in
  List.concat_map
    (fun (c : C.Compiler.t) ->
      List.map
        (fun level ->
          (c.C.Compiler.name, level, (C.Compiler.observe session c level).C.Compiler.obs_size))
        [ C.Level.Os; C.Level.O2 ])
    compilers

type size_finding =
  | Size_cross of {
      level : C.Level.t;
      larger : string;
      larger_size : int;
      smaller : string;
      smaller_size : int;
    }
  | Size_intra of { compiler : string; os_size : int; o2_size : int }

let size_ratio = function
  | Size_cross { larger_size; smaller_size; _ } ->
    float_of_int larger_size /. float_of_int (max 1 smaller_size)
  | Size_intra { os_size; o2_size; _ } -> float_of_int os_size /. float_of_int (max 1 o2_size)

(* The cross check fires at the threshold: [larger >= ratio * smaller] (and
   strictly larger, so ratio <= 1.0 cannot flag equal outputs).  The intra
   check is absolute — any [-Os] output strictly larger than the same
   compiler's [-O2] is a self-evident miss, no second compiler needed. *)
let size_findings_of ?(ratio = 1.25) curve =
  let names =
    List.fold_left (fun acc (n, _, _) -> if List.mem n acc then acc else n :: acc) [] curve
    |> List.rev
  in
  let at name level =
    List.find_map (fun (n, l, s) -> if n = name && l = level then Some s else None) curve
  in
  let exceeds a b = a > b && float_of_int a >= ratio *. float_of_int b in
  let cross =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a >= b then None
            else
              match (at a C.Level.Os, at b C.Level.Os) with
              | Some sa, Some sb when exceeds sa sb ->
                Some
                  (Size_cross
                     {
                       level = C.Level.Os;
                       larger = a;
                       larger_size = sa;
                       smaller = b;
                       smaller_size = sb;
                     })
              | Some sa, Some sb when exceeds sb sa ->
                Some
                  (Size_cross
                     {
                       level = C.Level.Os;
                       larger = b;
                       larger_size = sb;
                       smaller = a;
                       smaller_size = sa;
                     })
              | _ -> None)
          names)
      names
  in
  let intra =
    List.filter_map
      (fun n ->
        match (at n C.Level.Os, at n C.Level.O2) with
        | Some os, Some o2 when os > o2 -> Some (Size_intra { compiler = n; os_size = os; o2_size = o2 })
        | _ -> None)
      names
  in
  cross @ intra

(* ------------------------------------------------------------------ *)
(* level-inversion oracle                                              *)
(* ------------------------------------------------------------------ *)

type inversion = { iv_marker : int; iv_low : C.Level.t; iv_high : C.Level.t }

let inversions ~dead per_level =
  Ir.Iset.fold
    (fun m acc ->
      let eliminating = List.filter (fun (_, s) -> not (Ir.Iset.mem m s)) per_level in
      let keeping = List.filter (fun (_, s) -> Ir.Iset.mem m s) per_level in
      let weakest_eliminating =
        List.fold_left
          (fun best (l, _) ->
            match best with
            | None -> Some l
            | Some b -> if C.Level.rank l < C.Level.rank b then Some l else Some b)
          None eliminating
      in
      let strongest_keeping =
        List.fold_left
          (fun best (l, _) ->
            match best with
            | None -> Some l
            | Some b -> if C.Level.rank l > C.Level.rank b then Some l else Some b)
          None keeping
      in
      match (weakest_eliminating, strongest_keeping) with
      | Some lo, Some hi when C.Level.rank lo < C.Level.rank hi ->
        { iv_marker = m; iv_low = lo; iv_high = hi } :: acc
      | _ -> acc)
    dead []
  |> List.sort (fun a b -> compare a.iv_marker b.iv_marker)
