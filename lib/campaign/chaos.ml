module Guard = Dce_support.Guard
module Ir = Dce_ir.Ir

type fault = Crash | Hang | Slow | Transient of int | Corrupt_ir

type injection = { inj_case : int; inj_stage : string; inj_fault : fault }
type plan = injection list

exception Injected_crash of string
exception Injected_transient of string

let () =
  Printexc.register_printer (function
    | Injected_crash msg | Injected_transient msg -> Some msg
    | _ -> None)

let is_transient = function Injected_transient _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* armed state                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-domain: campaign workers arm their own case independently, and the
   firing log is the only cross-domain state. *)
type armed = {
  a_case : int;
  a_attempt : int;  (* 0-based attempt within the retry loop *)
  a_injections : injection list;  (* this case's entries only *)
  mutable a_corrupted : bool;  (* the one-shot corrupt-IR fuse *)
}

let armed_key : armed option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* every firing, newest first: a run reads the entries added since its
   mark, so it can tell how many faults fired and which injections did *)
type mark = injection list

let log : injection list Atomic.t = Atomic.make []

let rec note i =
  let l = Atomic.get log in
  if not (Atomic.compare_and_set log l (i :: l)) then note i

let mark () = Atomic.get log

let fired_since m =
  let rec take = function l when l == m -> [] | [] -> [] | i :: rest -> i :: take rest in
  take (Atomic.get log)

(* An invalid instruction by construction: defines a fresh register from a
   register nothing defines, which SSA validation rejects as "use of
   undefined register".  The huge ids keep it clear of any real program. *)
let corrupt_program (prog : Ir.program) =
  let bomb = Ir.Def (999_999_983, Ir.Op (Ir.Reg 999_999_989)) in
  let first = ref true in
  Ir.map_func
    (fun fn ->
      if !first then begin
        first := false;
        match Ir.Imap.find_opt fn.Ir.fn_entry fn.Ir.fn_blocks with
        | None -> fn
        | Some blk ->
          let blk = { blk with Ir.b_instrs = blk.Ir.b_instrs @ [ bomb ] } in
          { fn with Ir.fn_blocks = Ir.Imap.add fn.Ir.fn_entry blk fn.Ir.fn_blocks }
      end
      else fn)
    prog

let ir_hook label prog =
  match Domain.DLS.get armed_key with
  | None -> prog
  | Some a ->
    match
      List.find_opt (fun i -> i.inj_fault = Corrupt_ir && i.inj_stage = label) a.a_injections
    with
    | Some i when not a.a_corrupted ->
      a.a_corrupted <- true;
      note i;
      corrupt_program prog
    | Some _ | None -> prog

let arm plan ~case ~attempt =
  let mine = List.filter (fun i -> i.inj_case = case) plan in
  if mine = [] then begin
    Domain.DLS.set armed_key None;
    Dce_compiler.Passmgr.set_ir_hook None
  end
  else begin
    Domain.DLS.set armed_key
      (Some { a_case = case; a_attempt = attempt; a_injections = mine; a_corrupted = false });
    if List.exists (fun i -> i.inj_fault = Corrupt_ir) mine then
      Dce_compiler.Passmgr.set_ir_hook (Some ir_hook)
    else Dce_compiler.Passmgr.set_ir_hook None
  end

let disarm () =
  Domain.DLS.set armed_key None;
  Dce_compiler.Passmgr.set_ir_hook None

(* ------------------------------------------------------------------ *)
(* firing                                                              *)
(* ------------------------------------------------------------------ *)

let slow_polls = 20_000

let fire stage =
  match Domain.DLS.get armed_key with
  | None -> ()
  | Some a ->
    List.iter
      (fun i ->
        if i.inj_stage = stage then
          match i.inj_fault with
          | Corrupt_ir -> () (* handled by the Passmgr IR hook *)
          | Crash ->
            note i;
            raise (Injected_crash (Printf.sprintf "injected crash (case %d)" a.a_case))
          | Transient n ->
            if a.a_attempt < n then begin
              note i;
              raise
                (Injected_transient
                   (Printf.sprintf "injected transient fault (case %d, attempt %d)" a.a_case
                      a.a_attempt))
            end
          | Slow ->
            note i;
            for _ = 1 to slow_polls do
              Guard.poll ~site:("chaos-slow:" ^ stage)
            done
          | Hang ->
            (* a hang is only survivable under an armed guard; without one it
               would stall the worker forever, which is exactly the failure
               mode the supervision layer exists to prevent *)
            if not (Guard.active ()) then
              failwith
                (Printf.sprintf
                   "chaos: refusing to inject hang at %s (case %d) without an active guard \
                    — pass --deadline or a step budget"
                   stage a.a_case);
            note i;
            while true do
              Guard.poll ~site:("chaos-hang:" ^ stage)
            done)
      a.a_injections

(* ------------------------------------------------------------------ *)
(* plans                                                               *)
(* ------------------------------------------------------------------ *)

let has_corrupt plan = List.exists (fun i -> i.inj_fault = Corrupt_ir) plan

let fault_to_string = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Slow -> "slow"
  | Corrupt_ir -> "corrupt"
  | Transient n -> if n = 1 then "transient" else Printf.sprintf "transient%d" n

let injection_to_string i =
  Printf.sprintf "%s@%d:%s" (fault_to_string i.inj_fault) i.inj_case i.inj_stage

let to_string plan = String.concat "," (List.map injection_to_string plan)
let signature = to_string

let parse_entry s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt s '@' with
  | None -> fail "chaos entry %S: expected KIND@CASE[:STAGE]" s
  | Some at -> (
    let kind = String.sub s 0 at in
    let rest = String.sub s (at + 1) (String.length s - at - 1) in
    let case_s, stage =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some c ->
        (String.sub rest 0 c, Some (String.sub rest (c + 1) (String.length rest - c - 1)))
    in
    match int_of_string_opt case_s with
    | None -> fail "chaos entry %S: case %S is not an integer" s case_s
    | Some case when case < 0 -> fail "chaos entry %S: negative case index" s
    | Some case -> (
      let mk fault default_stage =
        Ok
          {
            inj_case = case;
            inj_stage = Option.value ~default:default_stage stage;
            inj_fault = fault;
          }
      in
      match kind with
      | "crash" -> mk Crash "generate"
      | "hang" -> mk Hang "generate"
      | "slow" -> mk Slow "generate"
      | "corrupt" -> mk Corrupt_ir "dce"
      | _ ->
        if String.length kind >= 9 && String.sub kind 0 9 = "transient" then
          let n_s = String.sub kind 9 (String.length kind - 9) in
          if n_s = "" then mk (Transient 1) "generate"
          else
            match int_of_string_opt n_s with
            | Some n when n > 0 -> mk (Transient n) "generate"
            | _ -> fail "chaos entry %S: bad transient count %S" s n_s
        else fail "chaos entry %S: unknown fault kind %S" s kind))

let of_string spec =
  let entries = String.split_on_char ',' (String.trim spec) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | e :: rest -> (
      match parse_entry (String.trim e) with
      | Error _ as err -> err
      | Ok i -> go (i :: acc) rest)
  in
  go [] entries
