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
   case index, so which domain ran a case never shows in the output.

   The calling domain is worker 0.  Left idle in [Domain.join] it would
   still take part in every stop-the-world minor collection the workers
   trigger (DESIGN.md, campaign engine), so it works instead, and [jobs]
   workers cost [jobs - 1] spawns. *)
let pool ~settings ~jobs cases runner on_outcome =
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
    let result f = match f () with m -> Ok m | exception e -> Error e in
    (* join every domain before re-raising, so no completion is still being
       recorded when the caller closes the journal — also when a spawn
       fails after others succeeded *)
    let rec spawn w spawned =
      if w = min jobs n then List.rev spawned
      else
        match Domain.spawn (fun () -> work w) with
        | d -> spawn (w + 1) (d :: spawned)
        | exception e ->
          List.iter (fun d -> ignore (result (fun () -> Domain.join d))) spawned;
          raise e
    in
    let spawned = spawn 1 [] in
    let own = result (fun () -> work 0) in
    own :: List.map (fun d -> result (fun () -> Domain.join d)) spawned
    |> List.fold_left
         (fun acc r -> match r with Ok m -> Metrics.merge acc m | Error e -> raise e)
         (Metrics.create ())
  end

(* ------------------------------------------------------------------ *)
(* the journal session                                                 *)
(* ------------------------------------------------------------------ *)

(* One campaign's journal lifecycle, shared by the in-process run and the
   worker-process grid: the case-indexed outcome slots, the open journal
   (if any), and the counter snapshots the summary is computed against. *)
type 'a session = {
  s_journal : (Journal.t * 'a codec) option;
  s_outcomes : 'a case_outcome option array;  (* None = still to run *)
  s_resumed : int;
  s_skipped : int;
  s_t0 : float;
  s_cache0 : Passmgr.counters;
  s_chaos0 : Chaos.mark;
  s_planned : Chaos.injection list;  (* the plan's entries whose case is to run *)
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

(* Open the session, run the body, and close the journal on every exit
   path.  A journal whose header matches is replayed into the slots, then
   reopened for appending (locked; a mismatched header raises Failure). *)
let with_session ?journal ?codec ?(campaign = "campaign") ?(seed = 0) ~settings ~count f =
  let chaos = Settings.plan settings in
  (* the fault plan is part of the campaign identity: resuming a chaos run
     under a different plan (or none) would replay cases whose recorded
     outcomes the new plan contradicts *)
  let campaign =
    if chaos = [] then campaign else campaign ^ "+chaos[" ^ Chaos.signature chaos ^ "]"
  in
  let t0 = Dce_support.Clock.now () in
  let cache0 = Passmgr.counters () in
  let chaos0 = Chaos.mark () in
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
      s_planned =
        List.filter
          (fun (i : Chaos.injection) -> i.inj_case < count && Option.is_none outcomes.(i.inj_case))
          chaos;
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

(* Record case [i] and append its journal record: [json] when given (a
   worker process's record, passed through verbatim), otherwise the codec's.
   A no-op for a case already recorded; safe from several domains for
   distinct cases. *)
let record s ?json i outcome =
  if not (completed s i) then begin
    (match s.s_journal with
     | Some (j, codec) ->
       Journal.append j (match json with Some r -> r | None -> case_to_json codec i outcome)
     | None -> ());
    s.s_outcomes.(i) <- Some outcome
  end

(* The campaign result: slots never recorded are quarantined as "case never
   completed" blamed on [stage]; the metrics fold in this process's cache
   delta and chaos firings plus the worker processes' [cache] and [fired]
   injections. *)
let finish ?fabric ?(cache = []) ?(fired = []) ~stage s metrics =
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
  let fired = Chaos.fired_since s.s_chaos0 @ fired in
  {
    outcomes;
    quarantine;
    metrics =
      Metrics.summarize ~journal_skipped:s.s_skipped ~crashed:(count_kind Crash)
        ~timeouts:(count_kind Timeout) ~ir_invalid:(count_kind Ir_invalid)
        ~chaos_fired:(List.length fired)
        ~chaos_unfired:(List.filter (fun i -> not (List.mem i fired)) s.s_planned)
        ?fabric ~cases:(Array.length outcomes - s.s_resumed) ~wall ~cache metrics;
    resumed = s.s_resumed;
  }

(* ------------------------------------------------------------------ *)
(* the worker-process grid: wire messages                              *)
(* ------------------------------------------------------------------ *)

(* With [settings.workers > 1] the run forks persistent worker processes
   over Unix-domain socketpairs and hands out case chunks on demand (work
   stealing: a worker that finishes early pulls the next chunk).  Workers
   run each chunk on [pool] and stream back the exact [case_to_json]
   records; the coordinator records them into the same session the
   in-process run uses, so the output depends only on the case set.

   Fork happens before any domain is spawned (the coordinator never spawns
   domains; workers spawn their [jobs] domains after the fork), which is
   the OCaml 5 runtime's fork-safety requirement.  Fork inheritance is also
   what keeps the grid generic: the runner and codec closures cross into
   the worker by inheritance, not serialization. *)

let in_worker_flag = ref false
let in_worker () = !in_worker_flag

exception Interrupted of int

let op name fields = Json.Obj (("op", Json.String name) :: fields)

let counters_to_json (c : Passmgr.counters) =
  Json.Obj
    [
      ("meminfo_hits", Json.Int c.meminfo_hits);
      ("meminfo_misses", Json.Int c.meminfo_misses);
      ("cfg_hits", Json.Int c.cfg_hits);
      ("cfg_misses", Json.Int c.cfg_misses);
      ("dom_hits", Json.Int c.dom_hits);
      ("dom_misses", Json.Int c.dom_misses);
      ("memo_hits", Json.Int c.memo_hits);
      ("memo_misses", Json.Int c.memo_misses);
    ]

let counters_of_json j : Passmgr.counters =
  {
    meminfo_hits = Json.get_int j "meminfo_hits";
    meminfo_misses = Json.get_int j "meminfo_misses";
    cfg_hits = Json.get_int j "cfg_hits";
    cfg_misses = Json.get_int j "cfg_misses";
    dom_hits = Json.get_int j "dom_hits";
    dom_misses = Json.get_int j "dom_misses";
    memo_hits = Json.get_int j "memo_hits";
    memo_misses = Json.get_int j "memo_misses";
  }

(* ------------------------------------------------------------------ *)
(* the worker-process grid: worker side                                *)
(* ------------------------------------------------------------------ *)

(* A worker is a plain loop: read a chunk, run its cases on the pool over
   [jobs] domains, stream one "case" record per completed case, send
   "chunk-done", repeat until "quit".  The process stays alive across
   chunks, which keeps the content-addressed compile cache and the
   pass-manager analysis caches warm — chunk 7 reuses entries populated by
   chunk 2. *)
let worker_main ~sock ~slot ~jobs ~settings ~codec runner =
  (* the pool's domains report concurrently: one line at a time; a
     coordinator that is gone leaves nothing to report to *)
  let send_lock = Mutex.create () in
  let send j = Mutex.protect send_lock (fun () -> if not (Wire.send sock j) then Unix._exit 0) in
  let acc = ref (Metrics.create ()) in
  let cache0 = Passmgr.counters () in
  let chaos0 = Chaos.mark () in
  let run_chunk cases =
    let m =
      pool ~settings ~jobs (Array.of_list cases) runner (fun case outcome ->
          send (op "case" [ ("record", case_to_json codec case outcome) ]))
    in
    acc := Metrics.merge !acc m
  in
  send (op "hello" [ ("worker", Json.Int slot); ("pid", Json.Int (Unix.getpid ())) ]);
  let input = Wire.reader sock in
  let rec loop () =
    match Option.map Json.of_string (Wire.line input) with
    | None | Some (Error _) -> () (* the coordinator is gone *)
    | Some (Ok msg) -> (
      match Json.member "op" msg with
      | Some (Json.String "chunk") ->
        let id = Json.get_int msg "chunk" in
        run_chunk (List.map Json.int_exn (Json.get_list msg "cases"));
        send (op "chunk-done" [ ("chunk", Json.Int id) ]);
        loop ()
      | Some (Json.String "quit") ->
        send
          (op "bye"
             [
               ("worker", Json.Int slot);
               ("metrics", Metrics.to_json !acc);
               ("cache", counters_to_json (counters_delta cache0 (Passmgr.counters ())));
               ("fired", Json.String (Chaos.to_string (Chaos.fired_since chaos0)));
             ])
      | _ -> loop () (* unknown op: skip, forward compatibility *))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* the worker-process grid: coordinator side                           *)
(* ------------------------------------------------------------------ *)

type wstate = {
  ws_slot : int;
  ws_pid : int;
  ws_fd : Unix.file_descr;
  ws_input : Wire.reader;
  mutable ws_pending : int list;  (* in-flight chunk cases not yet reported *)
  mutable ws_retiring : bool;     (* quit sent, no more work for this one *)
  mutable ws_bye : bool;          (* farewell (metrics) received *)
  mutable ws_cases : int;         (* cases completed over the worker's lifetime *)
}

(* Crash containment: a dead socket quarantines nothing by itself.  The
   dead worker's unfinished in-flight cases are re-queued once; a case whose
   worker dies twice is the poison pill and is quarantined (stage
   "fabric"), so the campaign always terminates.  Signals: the first
   SIGINT/SIGTERM drains (in-flight chunks finish, nothing new is
   dispatched), a second kills the fleet; either way the run raises
   [Interrupted] once the fleet is dead and the journal closed. *)
let grid ~settings ~jobs ~codec ~count session runner =
  let workers = settings.Settings.workers in
  let max_respawns = 2 * workers in
  let pending = Array.to_list (pending session) in
  let npending = List.length pending in
  (* several chunks per worker so stealing has slack, bounded so the
     per-chunk protocol overhead stays negligible *)
  let chunk_size = max 1 (min 32 (npending / (workers * 4))) in
  (* the work plan: the pending cases sliced into a shared chunk queue any
     worker pulls from *)
  let queue : int list Queue.t = Queue.create () in
  let rec slice = function
    | [] -> ()
    | l ->
      let chunk, rest = Dce_support.Listx.split_at chunk_size l in
      Queue.add chunk queue;
      slice rest
  in
  slice pending;
  let live : wstate list ref = ref [] in
  (* set from the SIGINT/SIGTERM handler; checked at every dispatch and
     select round *)
  let interrupt : int option ref = ref None in
  let interrupt_count = ref 0 in
  let death_count = Array.make (max count 1) 0 in
  let deaths = ref 0 in
  let respawns = ref 0 in
  let reassigned = ref 0 in
  let chunks_dispatched = ref 0 in
  let next_slot = ref 0 in
  let cases_by_slot : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let worker_metrics = ref (Metrics.create ()) in
  let worker_cache = ref [] in
  let worker_fired = ref [] in
  let spawn_worker () =
    let slot = !next_slot in
    incr next_slot;
    let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* a worker keeps the coordinator's flag-setting signal handlers, so a
       first Ctrl-C to the process group lets its in-flight chunk finish *)
    let pid =
      Wire.fork ~close:[ parent_fd ] (fun () ->
          in_worker_flag := true;
          worker_main ~sock:child_fd ~slot ~jobs ~settings ~codec runner;
          0)
    in
    Unix.close child_fd;
    live :=
      {
        ws_slot = slot;
        ws_pid = pid;
        ws_fd = parent_fd;
        ws_input = Wire.reader parent_fd;
        ws_pending = [];
        ws_retiring = false;
        ws_bye = false;
        ws_cases = 0;
      }
      :: !live
  in
  (* a failed send means the worker is dying; its EOF triggers the death
     path, which requeues whatever we just tried to assign *)
  let send_to w j = ignore (Wire.send w.ws_fd j) in
  let dispatch w =
    (* draining on SIGINT/SIGTERM: in-flight chunks finish (their records
       are already streaming into the journal), but no new chunk leaves the
       queue — the journal is the persisted queue *)
    match if !interrupt <> None then None else Queue.take_opt queue with
    | Some cases ->
      let id = !chunks_dispatched in
      incr chunks_dispatched;
      w.ws_pending <- cases;
      send_to w
        (op "chunk"
           [ ("chunk", Json.Int id); ("cases", Json.List (List.map (fun i -> Json.Int i) cases)) ])
    | None ->
      w.ws_retiring <- true;
      send_to w (op "quit" [])
  in
  let quarantine_case i =
    record session i
      (Crashed
         {
           q_case = i;
           q_stage = "fabric";
           q_error = "worker process died before completing the case";
           q_kind = Crash;
           q_backtrace = "";
           q_retries = 0;
         })
  in
  let handle_msg w msg =
    match Json.member "op" msg with
    | Some (Json.String "hello") -> dispatch w
    | Some (Json.String "case") -> (
      let json = try Json.get msg "record" with Failure _ -> Json.Null in
      match case_of_json codec json with
      | Some (i, outcome) when i >= 0 && i < count ->
        w.ws_pending <- List.filter (fun c -> c <> i) w.ws_pending;
        w.ws_cases <- w.ws_cases + 1;
        (* the worker computed this exact record with case_to_json;
           appending the parse re-serializes it byte-identically, so the
           journal is indistinguishable from an in-process run's *)
        record session ~json i outcome
      | Some _ | None -> ()
      | exception _ -> ()
      (* an undecodable or out-of-range record is dropped: the slot stays
         open and the case re-runs or is quarantined — never fatal *))
    | Some (Json.String "chunk-done") ->
      w.ws_pending <- [];
      dispatch w
    | Some (Json.String "bye") ->
      w.ws_bye <- true;
      (try
         worker_metrics := Metrics.merge !worker_metrics (Metrics.of_json (Json.get msg "metrics"))
       with _ -> ());
      (try worker_cache := counters_of_json (Json.get msg "cache") :: !worker_cache with _ -> ());
      Option.bind (Json.member "fired" msg) Json.to_str
      |> Option.iter (fun spec ->
             Result.iter (fun fired -> worker_fired := fired @ !worker_fired) (Chaos.of_string spec))
    | _ -> ()
  in
  let bury w =
    live := List.filter (fun x -> x != w) !live;
    Hashtbl.replace cases_by_slot w.ws_slot w.ws_cases;
    (try Unix.close w.ws_fd with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] w.ws_pid) with Unix.Unix_error _ -> ()
  in
  let on_death w =
    bury w;
    (* draining: no requeue, no quarantine, no respawn — unfinished cases
       stay absent from the journal and re-run on resume *)
    if !interrupt = None && not w.ws_bye then begin
      incr deaths;
      let unfinished = List.filter (fun i -> not (completed session i)) w.ws_pending in
      let requeue, poison = List.partition (fun i -> death_count.(i) < 1) unfinished in
      List.iter (fun i -> death_count.(i) <- death_count.(i) + 1) unfinished;
      List.iter quarantine_case poison;
      if requeue <> [] then begin
        reassigned := !reassigned + List.length requeue;
        Queue.add requeue queue
      end
    end;
    (* forward progress: when work remains but every surviving worker has
       already been told to quit (or none survives), fork a replacement —
       within a budget, beyond which the leftovers are quarantined rather
       than looping on a fault that kills every process we throw at it *)
    let work_remains = !interrupt = None && not (Queue.is_empty queue) in
    let someone_will_ask = List.exists (fun x -> not x.ws_retiring) !live in
    if work_remains && not someone_will_ask then
      if !respawns < max_respawns then begin
        incr respawns;
        spawn_worker ()
      end
      else begin
        Queue.iter (List.iter quarantine_case) queue;
        Queue.clear queue
      end
  in
  let kill w = try Unix.kill w.ws_pid Sys.sigkill with Unix.Unix_error _ -> () in
  let handle_readable w =
    match Wire.input w.ws_input with
    | None -> on_death w
    | Some lines ->
      List.iter
        (fun line -> match Json.of_string line with Ok msg -> handle_msg w msg | Error _ -> ())
        lines
  in
  (* the handler only sets a flag (select wakes with EINTR); the loop
     drains, and on an abnormal exit the fleet is killed before the signal
     dispositions are restored *)
  let finished = ref false in
  Wire.with_stop_signals
    (fun s ->
      incr interrupt_count;
      interrupt := Some s)
    (fun () ->
      Fun.protect
        ~finally:(fun () ->
          if not !finished then
            List.iter
              (fun w ->
                kill w;
                bury w)
              !live)
        (fun () ->
          for _ = 1 to min workers npending do
            spawn_worker ()
          done;
          while !live <> [] do
            (* impatient shutdown: a second signal stops waiting for
               in-flight chunks (the journal holds every record so far) *)
            if !interrupt_count >= 2 then
              List.iter
                (fun w ->
                  kill w;
                  on_death w)
                !live;
            if !live <> [] then
              List.iter
                (fun fd ->
                  match List.find_opt (fun w -> w.ws_fd = fd) !live with
                  | Some w -> handle_readable w
                  | None -> ())
                (Wire.select (List.map (fun w -> w.ws_fd) !live) (-1.0))
          done;
          finished := true));
  Option.iter (fun signo -> raise (Interrupted signo)) !interrupt;
  let fabric =
    {
      Metrics.f_workers = min workers npending;
      f_jobs = jobs;
      f_chunks = !chunks_dispatched;
      f_cases_per_worker =
        List.init !next_slot (fun s -> Option.value ~default:0 (Hashtbl.find_opt cases_by_slot s));
      f_reassigned = !reassigned;
      f_deaths = !deaths;
      f_respawns = !respawns;
    }
  in
  finish ~fabric ~cache:!worker_cache ~fired:!worker_fired
    ~stage:"fabric" session
    !worker_metrics

(* ------------------------------------------------------------------ *)
(* the campaign                                                        *)
(* ------------------------------------------------------------------ *)

let run ?journal ?codec ?campaign ?seed ?(settings = Settings.default) ~jobs ~count runner =
  if jobs < 1 then invalid_arg "Engine.run: jobs must be >= 1";
  if count < 0 then invalid_arg "Engine.run: count must be >= 0";
  if journal <> None && codec = None then
    invalid_arg "Engine.run: journaling requires a codec";
  Printexc.record_backtrace true;
  if settings.workers = 1 then
    with_session ?journal ?codec ?campaign ?seed ~settings ~count (fun s ->
        pool ~settings ~jobs (pending s) runner (record s) |> finish ~stage:"engine" s)
  else begin
    (* OCaml bans Unix.fork permanently once any domain has ever been
       created in the process (even after they are joined): fail with the
       diagnosis rather than the runtime's bare Failure *)
    if !domains_spawned then
      failwith
        "Engine.run: cannot fork worker processes after worker domains have been spawned in \
         this process (OCaml forbids fork once any domain has ever existed); run the \
         multi-process grid from a fresh process, or before any --jobs > 1 campaign";
    let codec =
      match codec with
      | Some c -> c
      | None ->
        invalid_arg
          "Engine.run: worker processes require a codec (case results cross a process boundary)"
    in
    with_session ?journal ~codec ?campaign ?seed ~settings ~count (fun s ->
        grid ~settings ~jobs ~codec ~count s runner)
  end
