(** The client/daemon wire protocol: one JSON object per line over a
    Unix-domain stream socket, sent and read with {!Dce_campaign.Wire}.

    Requests are [{"op":NAME, ...}]; terminal responses are
    [{"ok":true, ...}] or [{"ok":false,"error":MSG}]; a [watch] streams
    [{"event":...}] lines before its terminal response. *)

val request : string -> (string * Dce_campaign.Json.t) list -> Dce_campaign.Json.t
val op_of : Dce_campaign.Json.t -> string option

val ok : (string * Dce_campaign.Json.t) list -> Dce_campaign.Json.t
val err : string -> Dce_campaign.Json.t
val is_ok : Dce_campaign.Json.t -> bool
val error_of : Dce_campaign.Json.t -> string
val is_event : Dce_campaign.Json.t -> bool
