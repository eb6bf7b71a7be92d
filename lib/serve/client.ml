module Json = Dce_campaign.Json
module Wire = Dce_campaign.Wire

(* One-shot client calls: each request opens a fresh connection, sends one
   line, reads the response line(s), and closes.  Fresh connections make
   the pollers (wait) tolerant of daemon restarts — a refused connect just
   means "try again", which is exactly the crash-recovery story. *)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "cannot reach daemon at %s: %s" socket (Unix.error_message e))

(* one connection: send [req], hand the response reader to [k], and close
   the connection on every path *)
let exchange ~socket req k =
  match connect socket with
  | Error e -> Error e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> if not (Wire.send fd req) then Error "daemon hung up" else k (Wire.reader fd))

let request ~socket req =
  exchange ~socket req (fun input ->
      match Wire.line input with
      | None -> Error "daemon hung up"
      | Some line -> (
        match Json.of_string line with
        | Error e -> Error ("unparseable response: " ^ e)
        | Ok j -> if Proto.is_ok j then Ok j else Error (Proto.error_of j)))

let submit ~socket spec =
  match request ~socket (Proto.request "submit" [ ("spec", Job.spec_to_json spec) ]) with
  | Error e -> Error e
  | Ok j -> (
    match Option.bind (Json.member "job" j) Json.to_str with
    | Some id -> Ok id
    | None -> Error "daemon accepted the job but returned no id")

let status ?job ~socket () =
  let fields = match job with Some id -> [ ("job", Json.String id) ] | None -> [] in
  request ~socket (Proto.request "status" fields)

let cancel ~socket ~job = request ~socket (Proto.request "cancel" [ ("job", Json.String job) ])
let result_ ~socket ~job = request ~socket (Proto.request "result" [ ("job", Json.String job) ])
let ping ~socket = request ~socket (Proto.request "ping" [])
let shutdown ~socket = request ~socket (Proto.request "shutdown" [])

(* watch holds its connection open and forwards event lines until the
   terminal ok/err line arrives *)
let watch ~socket ~job ~on_event =
  exchange ~socket
    (Proto.request "watch" [ ("job", Json.String job) ])
    (fun input ->
      let rec loop () =
        match Wire.line input with
        | None -> Error "daemon hung up mid-watch"
        | Some line -> (
          match Json.of_string line with
          | Error e -> Error ("unparseable stream line: " ^ e)
          | Ok j ->
            if Proto.is_event j then begin
              on_event j;
              loop ()
            end
            else if Proto.is_ok j then Ok j
            else Error (Proto.error_of j))
      in
      loop ())

let state_of_status j =
  Option.bind (Json.member "job_status" j) (fun js ->
      Option.bind (Json.member "state" js) Json.to_str)

(* Poll until the job reaches a terminal state.  Connection failures are
   retried until the timeout — the daemon may be mid-restart, which is a
   scenario we explicitly support, not an error. *)
let wait ?(timeout = 300.) ?(poll = 0.1) ~socket ~job () =
  let deadline = Dce_support.Clock.now () +. timeout in
  let rec loop () =
    if Dce_support.Clock.now () > deadline then
      Error (Printf.sprintf "timed out after %gs waiting for %s" timeout job)
    else
      let next () =
        ignore (Wire.select [] poll);
        loop ()
      in
      match status ~job ~socket () with
      | Error _ -> next ()
      | Ok j -> (
        match state_of_status j with
        | Some ("done" | "failed" | "cancelled") -> Ok j
        | _ -> next ())
  in
  loop ()
