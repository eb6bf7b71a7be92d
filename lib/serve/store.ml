module Json = Dce_campaign.Json
module Fsx = Dce_support.Fsx

(* The on-disk spool: <spool>/jobs/job-NNNNNN/ holding spec.json (atomic,
   written once), state.jsonl (append-only lifecycle journal, fsync per
   event), and the child-written outcome.json / error.json.  The daemon is
   the only writer of spec/state; the job child is the only writer of
   outcome/error — no file has two writers, so crash recovery never has to
   reconcile. *)

type t = { root : string; jobs : string }

let open_spool root =
  let jobs = Filename.concat root "jobs" in
  Fsx.mkdir_p jobs;
  { root; jobs }

let root t = t.root
let runs_root t = Filename.concat t.root "runs"
let job_dir t id = Filename.concat t.jobs id
let spec_path t id = Filename.concat (job_dir t id) "spec.json"
let state_path t id = Filename.concat (job_dir t id) "state.jsonl"
let outcome_path t id = Filename.concat (job_dir t id) "outcome.json"
let error_path t id = Filename.concat (job_dir t id) "error.txt"
let log_path t id = Filename.concat (job_dir t id) "log.txt"

let seq_of_id id =
  if String.length id > 4 && String.sub id 0 4 = "job-" then
    int_of_string_opt (String.sub id 4 (String.length id - 4))
  else None

let id_of_seq n = Printf.sprintf "job-%06d" n

let ids t =
  (match Sys.readdir t.jobs with exception Sys_error _ -> [||] | a -> a)
  |> Array.to_list
  |> List.filter_map (fun id -> Option.map (fun n -> (n, id)) (seq_of_id id))
  |> List.sort compare
  |> List.map snd

(* append one event line; a single O_APPEND write syscall plus fsync, so a
   crash can lose at most the event being written, never corrupt earlier
   ones — and the loader drops an unparsable tail line anyway *)
let append t id ~time ev =
  let line = Json.to_string (Job.event_to_json ~time ev) ^ "\n" in
  let fd =
    Unix.openfile (state_path t id) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Fsx.write_all fd line;
      try Unix.fsync fd with Unix.Unix_error _ -> ())

let submit t ~time spec =
  let next =
    List.fold_left (fun m id -> match seq_of_id id with Some n -> max m n | None -> m) 0 (ids t)
    + 1
  in
  let id = id_of_seq next in
  Fsx.mkdir_p (job_dir t id);
  Fsx.write_atomic (spec_path t id) (Json.to_string (Job.spec_to_json spec) ^ "\n");
  append t id ~time Job.Queued;
  id

let load_events t id =
  match Fsx.read_file (state_path t id) with
  | exception Sys_error _ -> []
  | s ->
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match Json.of_string line with
             | Ok j -> Job.event_of_json j
             | Error _ -> None (* torn tail or garbage: skip, never fatal *))

let load t id =
  match Fsx.read_file (spec_path t id) with
  | exception Sys_error _ -> None
  | s -> (
    match Json.of_string (String.trim s) with
    | Error _ -> None
    | Ok j -> (
      match Job.spec_of_json j with
      | spec -> Some (spec, load_events t id)
      | exception Failure _ -> None))

let load_all t = List.filter_map (fun id -> Option.map (fun (s, e) -> (id, s, e)) (load t id)) (ids t)
