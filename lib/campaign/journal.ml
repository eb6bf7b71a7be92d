type header = {
  h_campaign : string;
  h_seed : int;
  h_count : int;
}

type t = {
  oc : out_channel;
  lock : Mutex.t;
  path_key : string;  (* registry key held until close *)
}

(* Two campaigns appending to one journal interleave half-records and tear
   the file, so opening is exclusive.  [Unix.lockf] covers cross-process
   exclusion but deliberately does not conflict with the same process (POSIX
   record locks are per-process), hence the in-process registry next to it:
   a second [open_append] on the same file fails fast either way. *)
let open_paths : (string, unit) Hashtbl.t = Hashtbl.create 4
let open_paths_mutex = Mutex.create ()

let locked_failure path =
  failwith
    (Printf.sprintf
       "journal %s is locked by another campaign — wait for it to finish or use a different \
        journal path"
       path)

let header_to_json h =
  Json.Obj
    [
      ("journal", Json.String "dce-campaign");
      ("version", Json.Int 1);
      ("campaign", Json.String h.h_campaign);
      ("seed", Json.Int h.h_seed);
      ("count", Json.Int h.h_count);
    ]

(* a first line that is not a complete header is no header at all: [load]
   answers [None] rather than raising on a foreign or mangled file *)
let header_of_json j =
  let field key = Json.member key j in
  match (field "journal", field "campaign", field "seed", field "count") with
  | Some (Json.String "dce-campaign"), Some (Json.String c), Some (Json.Int s), Some (Json.Int n) ->
    Some { h_campaign = c; h_seed = s; h_count = n }
  | _ -> None

(* read all complete (newline-terminated) lines; an unterminated tail is the
   in-flight write of an interrupted campaign and is ignored *)
let read_complete_lines path =
  let content = Dce_support.Fsx.read_file path in
  let lines = String.split_on_char '\n' content in
  match List.rev lines with
  | last :: rest when last <> "" ->
    ignore rest;
    (* no trailing newline: the final line may be half-written.  The length
       is hoisted out of the predicate — recomputing it per line made large-
       journal resume quadratic. *)
    let n = List.length lines in
    List.filteri (fun i _ -> i < n - 1) lines
  | _ -> lines

let load ~path =
  if not (Sys.file_exists path) then None
  else begin
    let lines = List.filter (fun l -> l <> "") (read_complete_lines path) in
    match lines with
    | [] -> None
    | first :: rest -> (
      match Json.of_string first with
      | Error _ -> None
      | Ok j -> (
        match header_of_json j with
        | None -> None
        | Some h ->
          (* drop any line that does not parse — the truncation point — and
             everything after it: later lines could depend on the campaign
             state the lost line recorded.  The dropped-line count is
             reported so a resume can say how much it discarded (e.g. a
             journal poisoned by a bare [nan] from a pre-fix build). *)
          let rec take acc = function
            | [] -> (List.rev acc, 0)
            | l :: ls -> (
              match Json.of_string l with
              | Ok v -> take (v :: acc) ls
              | Error _ -> (List.rev acc, 1 + List.length ls))
          in
          let records, dropped = take [] rest in
          Some (h, records, dropped)))
  end

(* reads no further than the first newline *)
let has_complete_line fd =
  let buf = Bytes.create 4096 in
  let rec scan () =
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    n > 0 && (Bytes.contains (Bytes.sub buf 0 n) '\n' || scan ())
  in
  scan ()

let open_append ?existing ~path header =
  Dce_support.Fsx.mkdir_p (Filename.dirname path);
  (* [?existing] lets a caller that already called {!load} (to prefill its
     outcome slots) hand the parse through instead of paying for a second
     full read of the journal *)
  let existing = match existing with Some e -> e | None -> load ~path in
  (match existing with
   | None -> ()
   | Some (h, _, _) ->
     if h <> header then
       failwith
         (Printf.sprintf
            "journal %s belongs to campaign %s seed=%d count=%d, not %s seed=%d count=%d — \
             delete it or change parameters"
            path h.h_campaign h.h_seed h.h_count header.h_campaign header.h_seed header.h_count));
  (* acquire the lock before truncating anything: a second opener must fail
     with the live journal intact, not after having destroyed it *)
  let fd = Unix.openfile path [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 in
  let path_key = try Unix.realpath path with Unix.Unix_error _ -> path in
  Mutex.protect open_paths_mutex (fun () ->
      if Hashtbl.mem open_paths path_key then begin
        Unix.close fd;
        locked_failure path
      end;
      Hashtbl.replace open_paths path_key ());
  let release () =
    Mutex.protect open_paths_mutex (fun () -> Hashtbl.remove open_paths path_key);
    Unix.close fd
  in
  (match Unix.lockf fd Unix.F_TLOCK 0 with
   | () -> ()
   | exception Unix.Unix_error _ ->
     release ();
     locked_failure path);
  (* no header: start over only on what a crash before the first newline
     leaves — an empty file or a torn first line.  A complete first line
     that is not a header is someone else's file.  Checked under the lock,
     so a live campaign's opener gets the lock error instead, and through
     [fd]: closing any other descriptor of the file would drop the lock. *)
  if Option.is_none existing && has_complete_line fd then begin
    release ();
    failwith
      (Printf.sprintf
         "%s is not a dce-campaign journal (its first line is no journal header) — refusing to \
          overwrite it; delete it or choose another journal path"
         path)
  end;
  (* rewrite the valid prefix and append from there: a truncated trailing
     line must not be glued to the next record, and a file with no valid
     header (fresh, or truncated before the first newline) starts over *)
  Unix.ftruncate fd 0;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  let t = { oc; lock = Mutex.create (); path_key } in
  output_string oc (Json.to_string (header_to_json header));
  output_char oc '\n';
  (match existing with
   | None -> ()
   | Some (_, cases, _) ->
     List.iter
       (fun case ->
         output_string oc (Json.to_string case);
         output_char oc '\n')
       cases);
  flush oc;
  t

let append t v =
  let line = Json.to_string v in
  Mutex.protect t.lock (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)

let close t =
  Mutex.protect t.lock (fun () -> close_out t.oc);
  (* closing the descriptor released the lockf lock with it *)
  Mutex.protect open_paths_mutex (fun () -> Hashtbl.remove open_paths t.path_key)
