module Json = Dce_campaign.Json

(* The client/daemon wire protocol: one JSON object per line over a
   Unix-domain stream socket, sent and read with {!Dce_campaign.Wire} like
   the engine's coordinator/worker protocol.

   Requests:   {"op":"submit","spec":{...}}
               {"op":"status"} | {"op":"status","job":ID}
               {"op":"watch","job":ID}
               {"op":"cancel","job":ID}
               {"op":"result","job":ID}
               {"op":"ping"}
               {"op":"shutdown"}
   Responses:  {"ok":true, ...} | {"ok":false,"error":MSG}
   Watch additionally streams {"event":"progress"|"heartbeat"|...} lines
   before its final {"ok":true,"state":...} line. *)

let request name fields = Json.Obj (("op", Json.String name) :: fields)

let op_of j = Option.bind (Json.member "op" j) Json.to_str

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let err msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let is_ok j = match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let error_of j =
  match Option.bind (Json.member "error" j) Json.to_str with
  | Some e -> e
  | None -> "daemon error"

(* a response line is final; event lines carry "event" and keep streaming *)
let is_event j = Json.member "event" j <> None
