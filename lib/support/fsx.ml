(* mkdir -p that tolerates concurrent creators.  Two fabric workers (separate
   processes) may race to create the same bundle/artifact directory; checking
   [Sys.file_exists] before [mkdir] is a TOCTOU hole — the component can
   appear between the check and the call, or the check can pass while another
   worker is still mid-create.  The only race-free protocol is to always
   attempt the mkdir and treat EEXIST as success at every component. *)
let rec mkdir_p path =
  if path = "" || path = "." || path = "/" then ()
  else
    match Unix.mkdir path 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      (* someone (possibly a sibling worker) got there first — but a regular
         file squatting on the path is a genuine failure *)
      if not (try Sys.is_directory path with Sys_error _ -> false) then
        raise (Sys_error (Printf.sprintf "%s: file exists and is not a directory" path))
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      mkdir_p (Filename.dirname path);
      (match Unix.mkdir path 0o755 with
       | () -> ()
       | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
         if not (try Sys.is_directory path with Sys_error _ -> false) then
           raise (Sys_error (Printf.sprintf "%s: file exists and is not a directory" path))
       | exception Unix.Unix_error (e, _, _) ->
         raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e))))
    | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

(* Crash-safe file replacement: write the full content to a temp file in the
   *same directory* (rename is only atomic within a filesystem), fsync it,
   then rename over the destination.  Readers see either the old bytes or
   the new bytes, never a prefix — a SIGKILL between any two steps leaves at
   worst an orphaned [.tmp.*] file, which later writers reuse-by-overwrite
   never trip on because every writer gets a fresh name (pid + counter; two
   processes can race on the same destination without sharing a temp). *)
let tmp_counter = ref 0

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let write_atomic path content =
  let dir = Filename.dirname path in
  incr tmp_counter;
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp.%s.%d.%d" (Filename.basename path) (Unix.getpid ()) !tmp_counter)
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let cleanup_on_error f =
    try f ()
    with e ->
      (try Unix.close fd with _ -> ());
      (try Sys.remove tmp with _ -> ());
      raise e
  in
  cleanup_on_error (fun () ->
      write_all fd content;
      (* fsync before rename: without it the rename can hit the disk before
         the data, and a power cut yields a *complete-looking* empty file *)
      Unix.fsync fd);
  Unix.close fd;
  try Unix.rename tmp path
  with e ->
    (try Sys.remove tmp with _ -> ());
    raise e

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Recursive delete.  Tolerates concurrent removers (ENOENT at any step is
   success — the goal state is "gone").  Does not follow symlinks: a link is
   unlinked, never descended into. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    (match Sys.readdir path with
     | entries -> Array.iter (fun e -> rm_rf (Filename.concat path e)) entries
     | exception Sys_error _ -> ());
    (try Unix.rmdir path with Unix.Unix_error ((Unix.ENOENT | Unix.ENOTEMPTY), _, _) -> ())
  | _ -> (
    try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
