module Passmgr = Dce_compiler.Passmgr
module Guard = Dce_support.Guard

type ctx = {
  c_worker : int;
  mutable c_stage : string;
  c_metrics : Metrics.t;
}

let worker ctx = ctx.c_worker

(* OCaml's Unix.fork refuses to run once any domain has ever been created in
   the process, so the fabric must fork its workers first.  This flag lets it
   fail with a diagnosis instead of the runtime's bare Failure. *)
let domains_spawned = ref false
let domains_ever_spawned () = !domains_spawned

let stage ctx name f =
  let prev = ctx.c_stage in
  ctx.c_stage <- name;
  (* supervision poll + chaos injection point: both run with the stage
     already recorded as current, so a budget trip or injected fault here is
     attributed to [name], not to the enclosing stage *)
  Guard.poll ~site:name;
  Chaos.fire name;
  let t0 = Dce_support.Clock.now () in
  match f () with
  | v ->
    Metrics.record ctx.c_metrics name (Dce_support.Clock.now () -. t0);
    (* deliberately not restored on the exception path: the quarantine reads
       the innermost stage that was active at the throw point *)
    ctx.c_stage <- prev;
    v

type fault_kind = Crash | Timeout | Ir_invalid

let fault_kind_name = function
  | Crash -> "crash"
  | Timeout -> "timeout"
  | Ir_invalid -> "ir-invalid"

let fault_kind_of_name = function
  | "timeout" -> Timeout
  | "ir-invalid" -> Ir_invalid
  | _ -> Crash

let classify = function
  | Guard.Budget_exceeded _ -> Timeout
  | Passmgr.Ir_invalid _ -> Ir_invalid
  | _ -> Crash

type quarantined = {
  q_case : int;
  q_stage : string;
  q_error : string;
  q_kind : fault_kind;
  q_backtrace : string;
  q_retries : int;
}

type 'a case_outcome =
  | Done of 'a
  | Crashed of quarantined

type 'a codec = {
  encode : 'a -> Json.t;
  decode : Json.t -> 'a;
}

type 'a result = {
  outcomes : 'a case_outcome array;
  quarantine : quarantined list;
  metrics : Metrics.summary;
  resumed : int;
}

type 'a seeded = { seeds : int array; result : 'a result }

let quarantine_to_string ~seeds qs =
  String.concat ""
    (List.map
       (fun q ->
         let verb =
           match q.q_kind with
           | Crash -> "crashed"
           | Timeout -> "timed out"
           | Ir_invalid -> "produced invalid IR"
         in
         Printf.sprintf "  case %d (seed %d): %s in stage %s%s: %s\n" q.q_case seeds.(q.q_case)
           verb q.q_stage
           (if q.q_retries > 0 then Printf.sprintf " (after %d retries)" q.q_retries else "")
           q.q_error)
       qs)

(* ------------------------------------------------------------------ *)
(* journal record codec                                                *)
(* ------------------------------------------------------------------ *)

let case_to_json codec i = function
  | Done v ->
    Json.Obj [ ("case", Json.Int i); ("status", Json.String "done"); ("data", codec.encode v) ]
  | Crashed q ->
    Json.Obj
      [
        ("case", Json.Int i);
        ("status", Json.String "crashed");
        ("stage", Json.String q.q_stage);
        ("error", Json.String q.q_error);
        ("kind", Json.String (fault_kind_name q.q_kind));
        ("backtrace", Json.String q.q_backtrace);
        ("retries", Json.Int q.q_retries);
      ]

(* member lookups with defaults: "crashed" records written by a pre-
   supervision build lack kind/backtrace/retries, and must still resume *)
let member_str j key default =
  match Json.member key j with Some (Json.String s) -> s | _ -> default

let member_int j key default =
  match Json.member key j with Some (Json.Int n) -> n | _ -> default

let case_of_json codec j =
  let i = Json.get_int j "case" in
  match Json.get_str j "status" with
  | "done" -> Some (i, Done (codec.decode (Json.get j "data")))
  | "crashed" ->
    Some
      ( i,
        Crashed
          {
            q_case = i;
            q_stage = Json.get_str j "stage";
            q_error = Json.get_str j "error";
            q_kind = fault_kind_of_name (member_str j "kind" "crash");
            q_backtrace = member_str j "backtrace" "";
            q_retries = member_int j "retries" 0;
          } )
  | _ -> None


(* ------------------------------------------------------------------ *)
(* the per-case attempt machinery                                      *)
(* ------------------------------------------------------------------ *)

let attempt_case (settings : Settings.t) ctx runner i =
  (* one guard per attempt: a retry restarts the deadline and the step
     budget, otherwise a slow-but-recoverable case would inherit an
     already-spent budget and time out spuriously *)
  let rec attempt n =
    ctx.c_stage <- "setup";
    Chaos.arm (Settings.plan settings) ~case:i ~attempt:n;
    let guard = Guard.create ?deadline:settings.deadline ?steps:settings.step_budget () in
    match Guard.with_guard guard (fun () -> stage ctx "case" (fun () -> runner ctx i)) with
    | v ->
      if n > 0 then Metrics.recovered ctx.c_metrics;
      Done v
    | exception e ->
      (* capture before anything else can run and clobber it *)
      let bt = Printexc.get_backtrace () in
      if n < settings.retries && Chaos.is_transient e then begin
        Metrics.retried ctx.c_metrics;
        attempt (n + 1)
      end
      else
        Crashed
          {
            q_case = i;
            q_stage = ctx.c_stage;
            q_error = Printexc.to_string e;
            q_kind = classify e;
            q_backtrace = bt;
            q_retries = n;
          }
  in
  let outcome = attempt 0 in
  Chaos.disarm ();
  outcome

(* ------------------------------------------------------------------ *)
(* cache-counter arithmetic                                            *)
(* ------------------------------------------------------------------ *)

let counters_map2 f (a : Passmgr.counters) (b : Passmgr.counters) : Passmgr.counters =
  {
    meminfo_hits = f a.meminfo_hits b.meminfo_hits;
    meminfo_misses = f a.meminfo_misses b.meminfo_misses;
    cfg_hits = f a.cfg_hits b.cfg_hits;
    cfg_misses = f a.cfg_misses b.cfg_misses;
    dom_hits = f a.dom_hits b.dom_hits;
    dom_misses = f a.dom_misses b.dom_misses;
    memo_hits = f a.memo_hits b.memo_hits;
    memo_misses = f a.memo_misses b.memo_misses;
  }

let counters_delta a b = counters_map2 (fun x y -> y - x) a b

(* ------------------------------------------------------------------ *)
(* the pool                                                            *)
(* ------------------------------------------------------------------ *)

(* Work stealing over one shared counter: each domain claims the next
   unclaimed position, so a slow case holds up only its own domain while
   the others drain the rest of the array.  Outcomes are handed back by
   case index, so which domain ran a case never shows in the output. *)
let pool ?(settings = Settings.default) ~jobs cases runner on_outcome =
  let n = Array.length cases in
  let next = Atomic.make 0 in
  let work w =
    Printexc.record_backtrace true;
    let ctx = { c_worker = w; c_stage = "setup"; c_metrics = Metrics.create () } in
    let rec loop () =
      let p = Atomic.fetch_and_add next 1 in
      if p < n then begin
        let i = cases.(p) in
        on_outcome i (attempt_case settings ctx runner i);
        loop ()
      end
    in
    loop ();
    ctx.c_metrics
  in
  if jobs = 1 || n <= 1 then work 0
  else begin
    domains_spawned := true;
    (* join every domain before re-raising, so no completion is still being
       recorded when the caller closes the journal *)
    Array.init (min jobs n) (fun w -> Domain.spawn (fun () -> work w))
    |> Array.map (fun d -> match Domain.join d with m -> Ok m | exception e -> Error e)
    |> Array.fold_left
         (fun acc r -> match r with Ok m -> Metrics.merge acc m | Error e -> raise e)
         (Metrics.create ())
  end

(* ------------------------------------------------------------------ *)
(* the journal session                                                 *)
(* ------------------------------------------------------------------ *)

type 'a session = {
  s_journal : (Journal.t * 'a codec) option;
  s_outcomes : 'a case_outcome option array;  (* None = still to run *)
  s_resumed : int;
  s_skipped : int;
  s_t0 : float;
  s_cache0 : Passmgr.counters;
  s_chaos0 : int;
}

(* records ignored during replay: unreadable lines, unknown record kinds (a
   journal written by a different build), out-of-range case indices.  Each
   such case re-executes — skipping is forward-compatibility, never data
   loss — but the count is surfaced so the user knows the journal and the
   binary disagree. *)
let replay codec ~count (outcomes : 'a case_outcome option array) records =
  let resumed = ref 0 and skipped = ref 0 in
  List.iter
    (fun record ->
      match case_of_json codec record with
      | Some (i, outcome) when i >= 0 && i < count ->
        if outcomes.(i) = None then incr resumed;
        outcomes.(i) <- Some outcome
      | Some _ | None -> incr skipped
      | exception _ -> incr skipped)
    records;
  (!resumed, !skipped)

let with_session ?journal ?codec ?(campaign = "campaign") ?(seed = 0)
    ?(settings = Settings.default) ~count f =
  let chaos = Settings.plan settings in
  (* the fault plan is part of the campaign identity: resuming a chaos run
     under a different plan (or none) would replay cases whose recorded
     outcomes the new plan contradicts *)
  let campaign =
    if chaos = [] then campaign else campaign ^ "+chaos[" ^ Chaos.signature chaos ^ "]"
  in
  let t0 = Dce_support.Clock.now () in
  let cache0 = Passmgr.counters () in
  let chaos0 = Chaos.fired_count () in
  let outcomes = Array.make count None in
  let resumed, skipped, jnl =
    match (journal, codec) with
    | Some path, Some codec ->
      let header = { Journal.h_campaign = campaign; h_seed = seed; h_count = count } in
      let existing = Journal.load ~path in
      let resumed, skipped =
        match existing with
        | Some (h, cases, dropped) when h = header ->
          let r, s = replay codec ~count outcomes cases in
          (r, dropped + s)
        | Some _ | None -> (0, 0)
      in
      (* open_append locks the file, validates the header, and rewrites the
         valid prefix — reusing the parse just performed *)
      (resumed, skipped, Some (Journal.open_append ~existing ~path header, codec))
    | _ -> (0, 0, None)
  in
  let s =
    {
      s_journal = jnl;
      s_outcomes = outcomes;
      s_resumed = resumed;
      s_skipped = skipped;
      s_t0 = t0;
      s_cache0 = cache0;
      s_chaos0 = chaos0;
    }
  in
  (* the journal lock is released on every exit path, an exception from
     the codec or the journal's own writes included *)
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun (j, _) -> try Journal.close j with Sys_error _ -> ()) s.s_journal)
    (fun () -> f s)

let completed s i = Option.is_some s.s_outcomes.(i)

let pending s =
  List.init (Array.length s.s_outcomes) Fun.id
  |> List.filter (fun i -> not (completed s i))
  |> Array.of_list

let record s ?json i outcome =
  if not (completed s i) then begin
    (match s.s_journal with
     | Some (j, codec) ->
       Journal.append j (match json with Some r -> r | None -> case_to_json codec i outcome)
     | None -> ());
    s.s_outcomes.(i) <- Some outcome
  end

let finish ?fabric ?(cache = []) ?(chaos_fired = 0) ~stage s metrics =
  let outcomes =
    Array.mapi
      (fun i slot ->
        match slot with
        | Some o -> o
        | None ->
          Crashed
            {
              q_case = i;
              q_stage = stage;
              q_error = "case never completed";
              q_kind = Crash;
              q_backtrace = "";
              q_retries = 0;
            })
      s.s_outcomes
  in
  let quarantine =
    Array.to_list outcomes |> List.filter_map (function Crashed q -> Some q | Done _ -> None)
  in
  let count_kind k = List.length (List.filter (fun q -> q.q_kind = k) quarantine) in
  let wall = Dce_support.Clock.now () -. s.s_t0 in
  let cache =
    List.fold_left (counters_map2 ( + )) (counters_delta s.s_cache0 (Passmgr.counters ())) cache
  in
  {
    outcomes;
    quarantine;
    metrics =
      Metrics.summarize ~journal_skipped:s.s_skipped ~crashed:(count_kind Crash)
        ~timeouts:(count_kind Timeout) ~ir_invalid:(count_kind Ir_invalid)
        ~chaos_fired:(Chaos.fired_count () - s.s_chaos0 + chaos_fired)
        ?fabric ~cases:(Array.length outcomes - s.s_resumed) ~wall ~cache metrics;
    resumed = s.s_resumed;
  }

(* ------------------------------------------------------------------ *)
(* the in-process campaign                                             *)
(* ------------------------------------------------------------------ *)

let run ?journal ?codec ?campaign ?seed ?settings ~jobs ~count runner =
  if jobs < 1 then invalid_arg "Engine.run: jobs must be >= 1";
  if count < 0 then invalid_arg "Engine.run: count must be >= 0";
  if journal <> None && codec = None then
    invalid_arg "Engine.run: journaling requires a codec";
  Printexc.record_backtrace true;
  with_session ?journal ?codec ?campaign ?seed ?settings ~count (fun s ->
      pool ?settings ~jobs (pending s) runner (record s)
      |> finish ~stage:"engine" s)
