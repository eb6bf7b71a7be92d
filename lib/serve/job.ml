module Json = Dce_campaign.Json

(* A job is a campaign request plus its crash-safe lifecycle.  The spec is
   immutable (spec.json, written once at submission); the lifecycle is an
   append-only JSONL state journal (state.jsonl) whose fold is the job's
   current state — the same torn-tail-tolerant discipline as the campaign
   journal, applied to the queue itself.  The daemon is the only writer. *)

(* A campaign job names a {!Dce_campaign.Mode} entry; [reduce] is the one
   job that is no corpus mode. *)
type kind = Mode of string | Reduce

let kind_names = List.map (fun m -> m.Dce_campaign.Mode.name) Dce_campaign.Mode.all @ [ "reduce" ]

let kind_to_string = function Mode name -> name | Reduce -> "reduce"

let kind_of_string = function
  | "reduce" -> Reduce
  | name when Option.is_some (Dce_campaign.Mode.find name) -> Mode name
  | name ->
    failwith (Printf.sprintf "unknown kind %S (use %s)" name (String.concat ", " kind_names))

type spec = {
  sp_kind : kind;
  sp_seed : int;
  sp_count : int;
  sp_lane : string;
  sp_deadline : float option;
  sp_case_deadline : float option;
  sp_step_budget : int option;
  sp_retries : int;
  sp_strikes : int;
  sp_chaos : string option;
  sp_source : string option;
  sp_marker : int option;
}

let default_spec =
  {
    sp_kind = Mode "hunt";
    sp_seed = 20220228;
    sp_count = 50;
    sp_lane = "default";
    sp_deadline = None;
    sp_case_deadline = None;
    sp_step_budget = None;
    sp_retries = 0;
    sp_strikes = 2;
    sp_chaos = None;
    sp_source = None;
    sp_marker = None;
  }

let spec_to_json s =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("kind", Json.String (kind_to_string s.sp_kind));
      ("seed", Json.Int s.sp_seed);
      ("count", Json.Int s.sp_count);
      ("lane", Json.String s.sp_lane);
      ("deadline", opt (fun d -> Json.Float d) s.sp_deadline);
      ("case_deadline", opt (fun d -> Json.Float d) s.sp_case_deadline);
      ("step_budget", opt (fun n -> Json.Int n) s.sp_step_budget);
      ("retries", Json.Int s.sp_retries);
      ("strikes", Json.Int s.sp_strikes);
      ("chaos", opt (fun c -> Json.String c) s.sp_chaos);
      ("source", opt (fun c -> Json.String c) s.sp_source);
      ("marker", opt (fun m -> Json.Int m) s.sp_marker);
    ]

let float_member key j =
  match Json.member key j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* without a case budget the whole-job deadline doubles as the per-case
   bound, tripping cooperatively before the daemon's SIGKILL backstop *)
let settings ?workers s =
  let deadline = match s.sp_case_deadline with Some _ as d -> d | None -> s.sp_deadline in
  Dce_campaign.Settings.v ?deadline ?step_budget:s.sp_step_budget ~retries:s.sp_retries
    ?chaos:s.sp_chaos ?workers ()

let spec_of_json j =
  let kind =
    match Option.bind (Json.member "kind" j) Json.to_str with
    | Some k -> ( try kind_of_string k with Failure msg -> failwith ("job spec: " ^ msg))
    | None -> failwith "job spec: missing kind"
  in
  let int_or key d = Option.value ~default:d (Option.bind (Json.member key j) Json.to_int) in
  let str key = Option.bind (Json.member key j) Json.to_str in
  let spec =
    {
      sp_kind = kind;
      sp_seed = int_or "seed" default_spec.sp_seed;
      sp_count = int_or "count" default_spec.sp_count;
      sp_lane = Option.value ~default:default_spec.sp_lane (str "lane");
      sp_deadline = float_member "deadline" j;
      sp_case_deadline = float_member "case_deadline" j;
      sp_step_budget = Option.bind (Json.member "step_budget" j) Json.to_int;
      sp_retries = int_or "retries" default_spec.sp_retries;
      sp_strikes = int_or "strikes" default_spec.sp_strikes;
      sp_chaos = str "chaos";
      sp_source = str "source";
      sp_marker = Option.bind (Json.member "marker" j) Json.to_int;
    }
  in
  (* refuse, rather than queue, out-of-range settings; the whole-job
     deadline is checked even when a case deadline overrides it *)
  (try
     List.iter (fun s -> ignore (settings s)) [ spec; { spec with sp_case_deadline = None } ];
     (* every kind but reduce runs a corpus of [count] cases *)
     if spec.sp_kind <> Reduce then
       Dce_campaign.Settings.check_cases ~count:spec.sp_count (settings spec)
   with Failure msg -> failwith ("job spec: " ^ msg));
  spec

(* ------------------------------------------------------------------ *)
(* lifecycle events (one JSONL line each) and their fold               *)
(* ------------------------------------------------------------------ *)

type event =
  | Queued
  | Running of int  (* child pid (= its process group after setsid) *)
  | Requeued of { rq_reason : string; rq_strike : bool; rq_not_before : float }
  | Done
  | Failed of string
  | Cancelled

let event_to_json ~time ev =
  let fields =
    match ev with
    | Queued -> [ ("ev", Json.String "queued") ]
    | Running pid -> [ ("ev", Json.String "running"); ("pid", Json.Int pid) ]
    | Requeued r ->
      [
        ("ev", Json.String "requeued");
        ("reason", Json.String r.rq_reason);
        ("strike", Json.Bool r.rq_strike);
        ("not_before", Json.Float r.rq_not_before);
      ]
    | Done -> [ ("ev", Json.String "done") ]
    | Failed reason -> [ ("ev", Json.String "failed"); ("reason", Json.String reason) ]
    | Cancelled -> [ ("ev", Json.String "cancelled") ]
  in
  Json.Obj (("t", Json.Float time) :: fields)

let event_of_json j =
  match Option.bind (Json.member "ev" j) Json.to_str with
  | Some "queued" -> Some Queued
  | Some "running" ->
    Some (Running (Option.value ~default:0 (Option.bind (Json.member "pid" j) Json.to_int)))
  | Some "requeued" ->
    Some
      (Requeued
         {
           rq_reason = Option.value ~default:"" (Option.bind (Json.member "reason" j) Json.to_str);
           rq_strike =
             (match Json.member "strike" j with Some (Json.Bool b) -> b | _ -> false);
           rq_not_before = Option.value ~default:0. (float_member "not_before" j);
         })
  | Some "done" -> Some Done
  | Some "failed" ->
    Some (Failed (Option.value ~default:"" (Option.bind (Json.member "reason" j) Json.to_str)))
  | Some "cancelled" -> Some Cancelled
  | _ -> None

type state =
  | S_queued
  | S_running of int
  | S_done
  | S_failed of string
  | S_cancelled

let state_to_string = function
  | S_queued -> "queued"
  | S_running _ -> "running"
  | S_done -> "done"
  | S_failed _ -> "failed"
  | S_cancelled -> "cancelled"

let terminal = function S_done | S_failed _ | S_cancelled -> true | S_queued | S_running _ -> false

type view = { v_state : state; v_strikes : int; v_not_before : float }

(* last event wins for the state; strikes accumulate over the whole
   history so the two-strikes quarantine survives daemon restarts *)
let view_of_events events =
  List.fold_left
    (fun v ev ->
      match ev with
      | Queued -> { v with v_state = S_queued; v_not_before = 0. }
      | Running pid -> { v with v_state = S_running pid }
      | Requeued r ->
        {
          v_state = S_queued;
          v_strikes = (v.v_strikes + if r.rq_strike then 1 else 0);
          v_not_before = r.rq_not_before;
        }
      | Done -> { v with v_state = S_done }
      | Failed reason -> { v with v_state = S_failed reason }
      | Cancelled -> { v with v_state = S_cancelled })
    { v_state = S_queued; v_strikes = 0; v_not_before = 0. }
    events
