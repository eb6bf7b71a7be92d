module Json = Dce_campaign.Json
module Fsx = Dce_support.Fsx
module Wire = Dce_campaign.Wire

(* The campaign service: a single-threaded select loop supervising forked
   job children over the crash-safe Store queue.

   Process model.  The daemon itself never spawns a domain, so it may fork
   freely (the OCaml 5 fork-after-domains ban).  Each job runs in a forked
   child that calls setsid() — the child and any fabric workers it forks
   form one process group, so the daemon's kill(-pid) reaches the whole
   tree (no leaked workers when a job is cancelled, deadlined, or drained).
   Children communicate results through atomically-written outcome.json /
   error.txt plus their exit status; the daemon is the sole writer of the
   job state journals.

   Crash safety.  Every queue transition is an fsynced JSONL event; on
   startup the daemon refolds each job's journal.  A job that was `running`
   when the previous daemon died is requeued (strike-free) after its
   recorded process group is killed — the campaign journal under the job's
   run directory carries the per-case progress, so the resumed attempt
   re-executes only what was never journaled and the final report is
   byte-identical to an uninterrupted run. *)

type chaos = {
  mutable kill_job_at : int option;  (* SIGKILL the job child once its progress reaches N *)
  mutable crash_daemon_at : int option;  (* _exit(70) once any job's progress reaches N *)
}

let parse_chaos s =
  let c = { kill_job_at = None; crash_daemon_at = None } in
  try
    String.split_on_char ',' s
    |> List.iter (fun entry ->
           let entry = String.trim entry in
           if entry <> "" then
             match String.index_opt entry '@' with
             | None -> failwith entry
             | Some i ->
               let kind = String.sub entry 0 i in
               let n = int_of_string (String.sub entry (i + 1) (String.length entry - i - 1)) in
               (match kind with
                | "kill-job" -> c.kill_job_at <- Some n
                | "crash-daemon" -> c.crash_daemon_at <- Some n
                | _ -> failwith entry));
    Ok c
  with _ ->
    Error
      (Printf.sprintf "bad chaos spec %S (use kill-job@N and/or crash-daemon@N, comma-separated)" s)

type config = {
  cf_spool : string;
  cf_socket : string option;  (* default <spool>/serve.sock *)
  cf_workers : int;
  cf_jobs : int;
  cf_slots : int;  (* concurrently running jobs *)
  cf_drain_grace : float;  (* seconds between SIGTERM and SIGKILL on drain *)
  cf_tick : float;  (* select timeout *)
  cf_backoff : float;  (* retry backoff base: base * 2^(strike-1) *)
  cf_chaos : chaos option;
  cf_quiet : bool;
}

let default ~spool =
  {
    cf_spool = spool;
    cf_socket = None;
    cf_workers = 1;
    cf_jobs = 1;
    cf_slots = 1;
    cf_drain_grace = 5.0;
    cf_tick = 0.05;
    cf_backoff = 0.5;
    cf_chaos = None;
    cf_quiet = false;
  }

let socket_path cf =
  match cf.cf_socket with Some p -> p | None -> Filename.concat cf.cf_spool "serve.sock"

let lock_path cf = Filename.concat cf.cf_spool "daemon.lock"

(* ------------------------------------------------------------------ *)
(* daemon state                                                        *)
(* ------------------------------------------------------------------ *)

type jrec = {
  j_id : string;
  j_seq : int;
  j_spec : Job.spec;
  mutable j_state : Job.state;
  mutable j_strikes : int;
  mutable j_not_before : float;
}

type running = {
  rn_job : jrec;
  rn_pid : int;
  rn_deadline : float;  (* absolute; infinity when unbounded *)
  mutable rn_progress : int;  (* campaign journal records observed *)
  mutable rn_jsize : int;  (* journal bytes read by the polls so far *)
  mutable rn_jlines : int;  (* newlines in those bytes *)
  mutable rn_cancelled : bool;
  mutable rn_deadlined : bool;
  mutable rn_chaos_killed : bool;
}

type client = {
  cl_fd : Unix.file_descr;
  cl_input : Wire.reader;
  mutable cl_watch : string option;
  mutable cl_last_sent : float;
  mutable cl_last_progress : int;
  mutable cl_last_state : string;
  mutable cl_closed : bool;
}

type st = {
  cf : config;
  store : Store.t;
  jobs : (string, jrec) Hashtbl.t;
  mutable running : running list;
  mutable clients : client list;
  mutable last_lane : string option;
  mutable draining : bool;
  mutable started : float;
  lock_fd : Unix.file_descr;
  listen_fd : Unix.file_descr;
}

let log st fmt =
  Printf.ksprintf
    (fun s ->
      if not st.cf.cf_quiet then begin
        Printf.printf "[serve] %s\n" s;
        flush stdout
      end)
    fmt

(* Wall time, only for what the spool persists — event stamps and the
   backoff not-before that must survive a daemon restart — and for checks
   against those.  In-memory deadlines and durations read the monotonic
   [Clock.now], which a wall-clock jump can neither trip nor extend. *)
let wall () = Unix.gettimeofday ()
let now = Dce_support.Clock.now

let append st jr ev =
  Store.append st.store jr.j_id ~time:(wall ()) ev;
  (match ev with
   | Job.Queued -> jr.j_state <- Job.S_queued
   | Job.Running pid -> jr.j_state <- Job.S_running pid
   | Job.Requeued { rq_strike; rq_not_before; _ } ->
     jr.j_state <- Job.S_queued;
     if rq_strike then jr.j_strikes <- jr.j_strikes + 1;
     jr.j_not_before <- rq_not_before
   | Job.Done -> jr.j_state <- Job.S_done
   | Job.Failed reason -> jr.j_state <- Job.S_failed reason
   | Job.Cancelled -> jr.j_state <- Job.S_cancelled)

(* ------------------------------------------------------------------ *)
(* startup: lock, socket, queue replay                                 *)
(* ------------------------------------------------------------------ *)

let acquire_lock cf =
  Fsx.mkdir_p cf.cf_spool;
  let fd = Unix.openfile (lock_path cf) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> fd
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "spool %s: another daemon is already serving (lock held on %s)" cf.cf_spool
         (lock_path cf))

let bind_socket cf =
  let path = socket_path cf in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  (match Unix.bind fd (Unix.ADDR_UNIX path) with
   | () -> ()
   | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
     (* we hold the daemon lock, so any existing socket file is a stale
        leftover of a killed daemon: unlink and rebind *)
     (try Unix.unlink path with Unix.Unix_error _ -> ());
     Unix.bind fd (Unix.ADDR_UNIX path));
  Unix.listen fd 16;
  fd

let kill_group pid signal = try Unix.kill (-pid) signal with Unix.Unix_error _ -> ()

let replay st =
  List.iter
    (fun (id, spec, events) ->
      let view = Job.view_of_events events in
      let seq = Option.value ~default:0 (Store.seq_of_id id) in
      let jr =
        {
          j_id = id;
          j_seq = seq;
          j_spec = spec;
          j_state = view.Job.v_state;
          j_strikes = view.Job.v_strikes;
          j_not_before = view.Job.v_not_before;
        }
      in
      Hashtbl.replace st.jobs id jr;
      match view.Job.v_state with
      | Job.S_running pid ->
        (* the previous daemon died mid-job: reap the stray process group
           (it may still be running as an orphan and would contend on the
           campaign journal lock), then requeue strike-free — the journal
           already holds its finished cases *)
        kill_group pid Sys.sigkill;
        append st jr
          (Job.Requeued { rq_reason = "daemon-restart"; rq_strike = false; rq_not_before = 0. });
        log st "%s: requeued after daemon restart" id
      | _ -> ())
    (Store.load_all st.store)

(* ------------------------------------------------------------------ *)
(* dispatch: fork one job child                                        *)
(* ------------------------------------------------------------------ *)

let job_child st jr () =
  (* runs in the forked child, the daemon's fds already closed: fresh
     session/process group so the daemon can kill the whole job tree;
     default signal dispositions restored (the daemon's flag-setting
     handlers make no sense here — a drain SIGTERM must actually terminate
     us) *)
  ignore (Unix.setsid ());
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  (* stray prints from campaign code land in the job log, not the daemon's
     stdout *)
  (try
     let logfd =
       Unix.openfile (Store.log_path st.store jr.j_id)
         [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
         0o644
     in
     Unix.dup2 logfd Unix.stdout;
     Unix.dup2 logfd Unix.stderr;
     Unix.close logfd
   with Unix.Unix_error _ -> ());
  try
    let outcome =
      Runjob.execute ~runs_root:(Store.runs_root st.store) ~workers:st.cf.cf_workers
        ~jobs:st.cf.cf_jobs jr.j_spec
    in
    Fsx.write_atomic
      (Store.outcome_path st.store jr.j_id)
      (Json.to_string (Runjob.outcome_to_json outcome) ^ "\n");
    0
  with
  | Dce_support.Guard.Budget_exceeded { site; steps; elapsed } ->
    Fsx.write_atomic
      (Store.error_path st.store jr.j_id)
      (Printf.sprintf "deadline exceeded at %s (%d steps, %.1fs elapsed)\n" site steps elapsed);
    4
  | e ->
    Fsx.write_atomic (Store.error_path st.store jr.j_id) (Printexc.to_string e ^ "\n");
    3

let start_job st jr =
  (* clear a previous attempt's verdict files so this attempt's are
     unambiguous *)
  (try Sys.remove (Store.outcome_path st.store jr.j_id) with Sys_error _ -> ());
  (try Sys.remove (Store.error_path st.store jr.j_id) with Sys_error _ -> ());
  let pid =
    Wire.fork
      ~close:(st.listen_fd :: st.lock_fd :: List.map (fun c -> c.cl_fd) st.clients)
      (job_child st jr)
  in
  append st jr (Job.Running pid);
  let deadline = match jr.j_spec.Job.sp_deadline with Some d -> now () +. d | None -> infinity in
  st.running <-
    {
      rn_job = jr;
      rn_pid = pid;
      rn_deadline = deadline;
      rn_progress = 0;
      rn_jsize = 0;
      rn_jlines = 0;
      rn_cancelled = false;
      rn_deadlined = false;
      rn_chaos_killed = false;
    }
    :: st.running;
  st.last_lane <- Some jr.j_spec.Job.sp_lane;
  log st "%s: started (pid %d, lane %s)" jr.j_id pid jr.j_spec.Job.sp_lane

let dispatch st =
  if not st.draining then begin
    let free = st.cf.cf_slots - List.length st.running in
    if free > 0 then begin
      let t = wall () in
      let ready =
        Hashtbl.fold
          (fun _ jr acc ->
            match jr.j_state with
            | Job.S_queued when jr.j_not_before <= t ->
              { Sched.cd_id = jr.j_id; cd_lane = jr.j_spec.Job.sp_lane; cd_seq = jr.j_seq } :: acc
            | _ -> acc)
          st.jobs []
      in
      match Sched.next ?last:st.last_lane ready with
      | Some c -> start_job st (Hashtbl.find st.jobs c.Sched.cd_id)
      | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* child reaping and supervision                                       *)
(* ------------------------------------------------------------------ *)

let read_error st id =
  match Fsx.read_file (Store.error_path st.store id) with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

let settle st rn status =
  st.running <- List.filter (fun r -> r != rn) st.running;
  let jr = rn.rn_job in
  let clean = status = Unix.WEXITED 0 && Sys.file_exists (Store.outcome_path st.store jr.j_id) in
  if clean then begin
    append st jr Job.Done;
    log st "%s: done" jr.j_id
  end
  else if rn.rn_cancelled then begin
    append st jr Job.Cancelled;
    log st "%s: cancelled" jr.j_id
  end
  else begin
    let reason =
      match read_error st jr.j_id with
      | Some e when e <> "" -> e
      | _ -> (
        if rn.rn_deadlined then
          Printf.sprintf "deadline exceeded (killed after %gs)"
            (Option.value ~default:0. jr.j_spec.Job.sp_deadline)
        else
          match status with
          | Unix.WEXITED n -> Printf.sprintf "job process exited with code %d" n
          | Unix.WSIGNALED s -> Printf.sprintf "job process killed by signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "job process stopped by signal %d" s)
    in
    if st.draining then begin
      (* a job cut down by the drain is requeued strike-free: stopping the
         service is not the job's fault *)
      append st jr (Job.Requeued { rq_reason = "drain"; rq_strike = false; rq_not_before = 0. });
      log st "%s: requeued by drain" jr.j_id
    end
    else if rn.rn_deadlined || status = Unix.WEXITED 4 then begin
      (* a deadline trip is deterministic — retrying would trip it again *)
      append st jr (Job.Failed reason);
      log st "%s: failed (%s)" jr.j_id reason
    end
    else begin
      let strikes = jr.j_strikes + 1 in
      if strikes >= jr.j_spec.Job.sp_strikes then begin
        (* two-strikes quarantine, mirroring the fabric's poison-pill
           policy at the job level *)
        append st jr
          (Job.Failed (Printf.sprintf "quarantined after %d strikes: %s" strikes reason));
        log st "%s: quarantined after %d strikes" jr.j_id strikes
      end
      else begin
        let backoff = st.cf.cf_backoff *. (2. ** float_of_int (strikes - 1)) in
        append st jr
          (Job.Requeued
             { rq_reason = reason; rq_strike = true; rq_not_before = wall () +. backoff });
        log st "%s: strike %d (%s), retrying in %.1fs" jr.j_id strikes reason backoff
      end
    end
  end;
  (* whatever remains of the job's process group dies with it *)
  kill_group rn.rn_pid Sys.sigkill

let reap st =
  List.iter
    (fun rn ->
      match Unix.waitpid [ Unix.WNOHANG ] rn.rn_pid with
      | 0, _ -> ()
      | _, status -> settle st rn status
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> settle st rn (Unix.WEXITED 127))
    st.running

let enforce_deadlines st =
  let t = now () in
  List.iter
    (fun rn ->
      if t > rn.rn_deadline && not rn.rn_deadlined then begin
        rn.rn_deadlined <- true;
        log st "%s: deadline exceeded, killing process group %d" rn.rn_job.j_id rn.rn_pid;
        kill_group rn.rn_pid Sys.sigkill
      end)
    st.running

(* progress = journal records past the header, polled by file size: an
   unchanged journal costs one stat, a grown one is read from where the last
   poll stopped, and a shrunk one is recounted from its start *)
let poll_progress st =
  List.iter
    (fun rn ->
      match Runjob.journal_of ~runs_root:(Store.runs_root st.store) rn.rn_job.j_spec with
      | None -> ()
      | Some path -> (
        match Unix.stat path with
        | exception Unix.Unix_error _ -> ()
        | stt ->
          if stt.Unix.st_size <> rn.rn_jsize then begin
            let from = if stt.Unix.st_size < rn.rn_jsize then 0 else rn.rn_jsize in
            match
              In_channel.with_open_bin path (fun ic ->
                  In_channel.seek ic (Int64.of_int from);
                  In_channel.input_all ic)
            with
            | exception Sys_error _ -> ()
            | s ->
              let lines = ref (if from = 0 then 0 else rn.rn_jlines) in
              String.iter (fun c -> if c = '\n' then incr lines) s;
              rn.rn_jsize <- from + String.length s;
              rn.rn_jlines <- !lines;
              rn.rn_progress <- max 0 (!lines - 1)
          end))
    st.running

let fire_chaos st =
  match st.cf.cf_chaos with
  | None -> ()
  | Some chaos ->
    (match chaos.kill_job_at with
     | Some n ->
       List.iter
         (fun rn ->
           if rn.rn_progress >= n && not rn.rn_chaos_killed then begin
             rn.rn_chaos_killed <- true;
             chaos.kill_job_at <- None;
             log st "%s: chaos kill-job@%d firing (pid %d)" rn.rn_job.j_id n rn.rn_pid;
             kill_group rn.rn_pid Sys.sigkill
           end)
         st.running
     | None -> ());
    (match chaos.crash_daemon_at with
     | Some n when List.exists (fun rn -> rn.rn_progress >= n) st.running ->
       (* simulate a daemon crash: no cleanup, no drain — children are
          orphaned exactly as SIGKILL would leave them; the restarted
          daemon's replay reaps and requeues *)
       log st "chaos crash-daemon@%d firing" n;
       flush stdout;
       Unix._exit 70
     | _ -> ())

(* ------------------------------------------------------------------ *)
(* client handling                                                     *)
(* ------------------------------------------------------------------ *)

let job_json st jr =
  let progress =
    List.find_opt (fun rn -> rn.rn_job == jr) st.running
    |> Option.map (fun rn -> rn.rn_progress)
  in
  Json.Obj
    ([
       ("job", Json.String jr.j_id);
       ("kind", Json.String (Job.kind_to_string jr.j_spec.Job.sp_kind));
       ("lane", Json.String jr.j_spec.Job.sp_lane);
       ("state", Json.String (Job.state_to_string jr.j_state));
       ("strikes", Json.Int jr.j_strikes);
       ("seed", Json.Int jr.j_spec.Job.sp_seed);
       ("count", Json.Int jr.j_spec.Job.sp_count);
     ]
    @ (match jr.j_state with
       | Job.S_failed reason -> [ ("reason", Json.String reason) ]
       | _ -> [])
    @ (match progress with Some p -> [ ("progress", Json.Int p) ] | None -> [])
    @
    match Runjob.run_id_of jr.j_spec with
    | Some id -> [ ("run_id", Json.String id) ]
    | None -> [])

let respond _st cl j = if not (Wire.send cl.cl_fd j) then cl.cl_closed <- true

let daemon_json st =
  Json.Obj
    [
      ("uptime", Json.Float (now () -. st.started));
      ("draining", Json.Bool st.draining);
      ("slots", Json.Int st.cf.cf_slots);
      ("workers", Json.Int st.cf.cf_workers);
      ("jobs", Json.Int st.cf.cf_jobs);
      ("running", Json.Int (List.length st.running));
      ( "queued",
        Json.Int
          (Hashtbl.fold
             (fun _ jr n -> match jr.j_state with Job.S_queued -> n + 1 | _ -> n)
             st.jobs 0) );
    ]

let handle_request st cl req =
  let find_job () =
    match Option.bind (Json.member "job" req) Json.to_str with
    | None -> Error "missing job id"
    | Some id -> (
      match Hashtbl.find_opt st.jobs id with
      | Some jr -> Ok jr
      | None -> Error (Printf.sprintf "unknown job %s" id))
  in
  match Proto.op_of req with
  | Some "ping" -> respond st cl (Proto.ok [ ("daemon", daemon_json st) ])
  | Some "submit" ->
    if st.draining then respond st cl (Proto.err "daemon is draining")
    else (
      match Json.member "spec" req with
      | None -> respond st cl (Proto.err "missing spec")
      | Some sj -> (
        match Job.spec_of_json sj with
        | exception Failure msg -> respond st cl (Proto.err msg)
        | spec ->
          let id = Store.submit st.store ~time:(wall ()) spec in
          let jr =
            {
              j_id = id;
              j_seq = Option.value ~default:0 (Store.seq_of_id id);
              j_spec = spec;
              j_state = Job.S_queued;
              j_strikes = 0;
              j_not_before = 0.;
            }
          in
          Hashtbl.replace st.jobs id jr;
          log st "%s: submitted (%s seed %d count %d)" id
            (Job.kind_to_string spec.Job.sp_kind) spec.Job.sp_seed spec.Job.sp_count;
          respond st cl (Proto.ok [ ("job", Json.String id) ])))
  | Some "status" -> (
    match Json.member "job" req with
    | None ->
      let jobs =
        Hashtbl.fold (fun _ jr acc -> jr :: acc) st.jobs []
        |> List.sort (fun a b -> compare a.j_seq b.j_seq)
        |> List.map (job_json st)
      in
      respond st cl (Proto.ok [ ("daemon", daemon_json st); ("jobs", Json.List jobs) ])
    | Some _ -> (
      match find_job () with
      | Error e -> respond st cl (Proto.err e)
      | Ok jr -> respond st cl (Proto.ok [ ("job_status", job_json st jr) ])))
  | Some "watch" -> (
    match find_job () with
    | Error e -> respond st cl (Proto.err e)
    | Ok jr ->
      if Job.terminal jr.j_state then
        respond st cl (Proto.ok [ ("state", Json.String (Job.state_to_string jr.j_state)) ])
      else begin
        cl.cl_watch <- Some jr.j_id;
        cl.cl_last_progress <- -1;
        cl.cl_last_state <- "";
        cl.cl_last_sent <- neg_infinity
      end)
  | Some "cancel" -> (
    match find_job () with
    | Error e -> respond st cl (Proto.err e)
    | Ok jr ->
      (match jr.j_state with
       | Job.S_queued ->
         append st jr Job.Cancelled;
         log st "%s: cancelled (was queued)" jr.j_id
       | Job.S_running _ ->
         List.iter
           (fun rn ->
             if rn.rn_job == jr && not rn.rn_cancelled then begin
               rn.rn_cancelled <- true;
               log st "%s: cancelling (SIGTERM to group %d)" jr.j_id rn.rn_pid;
               kill_group rn.rn_pid Sys.sigterm
             end)
           st.running
       | _ -> ());
      respond st cl (Proto.ok [ ("state", Json.String (Job.state_to_string jr.j_state)) ]))
  | Some "result" -> (
    match find_job () with
    | Error e -> respond st cl (Proto.err e)
    | Ok jr ->
      if not (Job.terminal jr.j_state) then
        respond st cl
          (Proto.err
             (Printf.sprintf "job %s is %s, not finished" jr.j_id
                (Job.state_to_string jr.j_state)))
      else
        let outcome =
          match Json.of_string (String.trim (Fsx.read_file (Store.outcome_path st.store jr.j_id))) with
          | Ok j -> j
          | Error _ | (exception Sys_error _) -> Json.Null
        in
        let report_text =
          match Option.bind (Json.member "run_dir" outcome) Json.to_str with
          | None -> Json.Null
          | Some dir -> (
            match Fsx.read_file (Filename.concat dir "report.txt") with
            | s -> Json.String s
            | exception Sys_error _ -> Json.Null)
        in
        respond st cl
          (Proto.ok
             [
               ("state", Json.String (Job.state_to_string jr.j_state));
               ("job_status", job_json st jr);
               ("outcome", outcome);
               ("report", report_text);
             ]))
  | Some "shutdown" ->
    respond st cl (Proto.ok [ ("draining", Json.Bool true) ]);
    st.draining <- true
  | Some op -> respond st cl (Proto.err (Printf.sprintf "unknown op %S" op))
  | None -> respond st cl (Proto.err "request carries no op")

let handle_client_data st cl =
  match Wire.input cl.cl_input with
  | None -> cl.cl_closed <- true
  | Some lines ->
    List.iter
      (fun line ->
        match Json.of_string line with
        | Ok req -> handle_request st cl req
        | Error _ -> respond st cl (Proto.err "unparseable request"))
      lines

(* watch streaming: progress events when the journal grows, heartbeats
   when idle, a terminal ok line when the job settles *)
let pump_watchers st =
  let t = now () in
  List.iter
    (fun cl ->
      match cl.cl_watch with
      | None -> ()
      | Some id -> (
        match Hashtbl.find_opt st.jobs id with
        | None -> cl.cl_watch <- None
        | Some jr ->
          if Job.terminal jr.j_state then begin
            respond st cl
              (Proto.ok
                 [
                   ("state", Json.String (Job.state_to_string jr.j_state));
                   ("job_status", job_json st jr);
                 ]);
            cl.cl_watch <- None
          end
          else begin
            let progress =
              List.find_opt (fun rn -> rn.rn_job == jr) st.running
              |> Option.map (fun rn -> rn.rn_progress)
            in
            let state = Job.state_to_string jr.j_state in
            let changed =
              state <> cl.cl_last_state
              || Option.value ~default:(-1) progress <> cl.cl_last_progress
            in
            if changed then begin
              cl.cl_last_state <- state;
              cl.cl_last_progress <- Option.value ~default:(-1) progress;
              cl.cl_last_sent <- t;
              if
                not
                  (Wire.send cl.cl_fd
                     (Json.Obj
                        ([
                           ("event", Json.String "progress");
                           ("state", Json.String state);
                           ("total", Json.Int jr.j_spec.Job.sp_count);
                         ]
                        @
                        match progress with
                        | Some p -> [ ("done", Json.Int p) ]
                        | None -> [])))
              then cl.cl_closed <- true
            end
            else if t -. cl.cl_last_sent > 1.0 then begin
              (* liveness: a silent daemon and a dead daemon must be
                 distinguishable on the socket *)
              cl.cl_last_sent <- t;
              if
                not
                  (Wire.send cl.cl_fd
                     (Json.Obj [ ("event", Json.String "heartbeat"); ("t", Json.Float t) ]))
              then cl.cl_closed <- true
            end
          end))
    st.clients

(* ------------------------------------------------------------------ *)
(* drain and the main loop                                             *)
(* ------------------------------------------------------------------ *)

let drain st =
  log st "draining: %d running job(s), grace %gs" (List.length st.running) st.cf.cf_drain_grace;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink (socket_path st.cf) with Unix.Unix_error _ -> ());
  List.iter (fun rn -> kill_group rn.rn_pid Sys.sigterm) st.running;
  let deadline = now () +. st.cf.cf_drain_grace in
  let rec wait_children () =
    reap st;
    if st.running <> [] && now () < deadline then begin
      ignore (Wire.select [] 0.05);
      wait_children ()
    end
  in
  wait_children ();
  (* whatever survived the grace dies now; settle will requeue *)
  List.iter (fun rn -> kill_group rn.rn_pid Sys.sigkill) st.running;
  let rec reap_rest tries =
    reap st;
    if st.running <> [] && tries > 0 then begin
      ignore (Wire.select [] 0.05);
      reap_rest (tries - 1)
    end
  in
  reap_rest 100;
  (* anything still unreaped (shouldn't happen) is settled as killed *)
  List.iter (fun rn -> settle st rn (Unix.WSIGNALED Sys.sigkill)) st.running;
  List.iter
    (fun cl ->
      ignore (Wire.send cl.cl_fd (Json.Obj [ ("event", Json.String "draining") ]));
      try Unix.close cl.cl_fd with Unix.Unix_error _ -> ())
    st.clients;
  st.clients <- [];
  (try Unix.close st.lock_fd with Unix.Unix_error _ -> ());
  log st "drained"

let run cf =
  (* a bad setting is a usage error now, before the spool, lock or socket
     exists — not a failure of every job submitted later *)
  ignore (Dce_campaign.Settings.v ~workers:cf.cf_workers ());
  ignore (Dce_campaign.Settings.jobs cf.cf_jobs);
  ignore (Dce_campaign.Settings.slots cf.cf_slots);
  let store = Store.open_spool cf.cf_spool in
  let lock_fd = acquire_lock cf in
  let listen_fd = bind_socket cf in
  let st =
    {
      cf;
      store;
      jobs = Hashtbl.create 32;
      running = [];
      clients = [];
      last_lane = None;
      draining = false;
      started = now ();
      lock_fd;
      listen_fd;
    }
  in
  let stop = ref false in
  Wire.with_stop_signals
    (fun _ -> stop := true)
    (fun () ->
      replay st;
      log st "serving on %s (slots %d, workers %d x jobs %d)" (socket_path cf) cf.cf_slots
        cf.cf_workers cf.cf_jobs;
      let finished () =
        st.draining
        && st.running = []
        (* draining stops dispatch; once children are settled we exit *)
      in
      while not (!stop || finished ()) do
        if !stop then ()
        else begin
          let fds = st.listen_fd :: List.map (fun c -> c.cl_fd) st.clients in
          List.iter
            (fun fd ->
              if fd = st.listen_fd then (
                match Unix.accept st.listen_fd with
                | cfd, _ ->
                  Unix.set_close_on_exec cfd;
                  st.clients <-
                    {
                      cl_fd = cfd;
                      cl_input = Wire.reader cfd;
                      cl_watch = None;
                      cl_last_sent = neg_infinity;
                      cl_last_progress = -1;
                      cl_last_state = "";
                      cl_closed = false;
                    }
                    :: st.clients
                | exception Unix.Unix_error _ -> ())
              else
                match List.find_opt (fun c -> c.cl_fd = fd) st.clients with
                | Some cl -> handle_client_data st cl
                | None -> ())
            (Wire.select fds cf.cf_tick);
          reap st;
          enforce_deadlines st;
          poll_progress st;
          fire_chaos st;
          pump_watchers st;
          (* closed clients are swept once per tick *)
          let dead, alive = List.partition (fun c -> c.cl_closed) st.clients in
          List.iter (fun c -> try Unix.close c.cl_fd with Unix.Unix_error _ -> ()) dead;
          st.clients <- alive;
          dispatch st
        end
      done;
      st.draining <- true;
      drain st)
