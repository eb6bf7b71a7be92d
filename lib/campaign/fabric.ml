module Passmgr = Dce_compiler.Passmgr

(* The multi-process campaign fabric: a coordinator forks N persistent
   worker processes over Unix-domain socketpairs and hands out case chunks
   on demand (work stealing: a worker that finishes early pulls the next
   chunk).  Workers execute cases through the exact Engine per-case
   machinery — [Engine.pool], [Engine.case_to_json] — and stream the
   resulting journal records back; the coordinator records them through the
   engine's journal session into the case-indexed outcomes array and the
   one canonical journal.  Determinism
   therefore does not depend on scheduling or arrival order, only on the
   case set: the same discipline that makes [Engine.run ~jobs:N]
   byte-identical to [~jobs:1] extends across processes.

   Fork happens before any domain is spawned (the coordinator never spawns
   domains; workers spawn their [~jobs] domains after the fork), which is
   the OCaml 5 runtime's fork-safety requirement.  Fork inheritance is also
   what lets the fabric stay generic: the runner and codec closures cross
   into the worker by inheritance, not serialization. *)

let in_worker_flag = ref false
let in_worker () = !in_worker_flag

exception Interrupted of int

(* ------------------------------------------------------------------ *)
(* wire helpers (line JSON over the socketpair)                        *)
(* ------------------------------------------------------------------ *)

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
(* worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* A worker is a plain loop: read a chunk, run its cases on the engine's
   pool over [jobs] domains, stream one "case" record per completed case,
   send "chunk-done", repeat until "quit".  The process stays alive across chunks, which is
   what keeps the content-addressed compile cache and the pass-manager
   analysis caches warm — chunk 7 reuses entries populated by chunk 2. *)
let worker_main (type a) ~sock ~slot ~jobs ~settings ~(codec : a Engine.codec)
    (runner : Engine.ctx -> int -> a) =
  Printexc.record_backtrace true;
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  set_binary_mode_out oc true;
  let send_lock = Mutex.create () in
  let send j =
    Mutex.protect send_lock (fun () ->
        output_string oc (Json.to_string j);
        output_char oc '\n';
        flush oc)
  in
  let acc = ref (Metrics.create ()) in
  let cache0 = Passmgr.counters () in
  let chaos0 = Chaos.fired_count () in
  let run_chunk cases =
    let m =
      Engine.pool ~settings ~jobs (Array.of_list cases) runner (fun case outcome ->
          send (op "case" [ ("record", Engine.case_to_json codec case outcome) ]))
    in
    acc := Metrics.merge !acc m
  in
  send (op "hello" [ ("worker", Json.Int slot); ("pid", Json.Int (Unix.getpid ())) ]);
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> () (* coordinator vanished: die quietly *)
    | exception Sys_error _ -> ()
    | line -> (
      match Json.of_string line with
      | Error _ -> () (* a torn coordinator write means the coordinator died *)
      | Ok msg -> (
        match Json.member "op" msg with
        | Some (Json.String "chunk") ->
          let id = Json.get_int msg "chunk" in
          let cases = List.map Json.int_exn (Json.get_list msg "cases") in
          run_chunk cases;
          send (op "chunk-done" [ ("chunk", Json.Int id) ]);
          loop ()
        | Some (Json.String "quit") ->
          send
            (op "bye"
               [
                 ("worker", Json.Int slot);
                 ("metrics", Metrics.to_json !acc);
                 ("cache", counters_to_json (Engine.counters_delta cache0 (Passmgr.counters ())));
                 ("chaos_fired", Json.Int (Chaos.fired_count () - chaos0));
               ])
        | _ -> loop () (* unknown op: skip, forward compatibility *)))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* coordinator side                                                    *)
(* ------------------------------------------------------------------ *)

type wstate = {
  ws_slot : int;
  ws_pid : int;
  ws_fd : Unix.file_descr;
  ws_buf : Buffer.t;  (* partial-line input buffer *)
  mutable ws_pending : int list;  (* in-flight chunk cases not yet reported *)
  mutable ws_retiring : bool;     (* quit sent, no more work for this one *)
  mutable ws_bye : bool;          (* farewell (metrics) received *)
  mutable ws_deadline : float;    (* absolute chunk deadline, [infinity] when idle *)
  mutable ws_cases : int;         (* cases completed over the worker's lifetime *)
}

let take n l =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] l

let run (type a) ?journal ?(codec : a Engine.codec option) ?campaign ?seed
    ?(settings = Settings.default) ?chunk_deadline ~jobs ~count (runner : Engine.ctx -> int -> a)
    : a Engine.result =
  let workers = settings.Settings.workers in
  if workers = 1 then
    (* the degenerate fabric is the in-process engine itself — which is the
       determinism anchor: --workers N is byte-identical to --workers 1
       because both fill the same case-indexed array with the same per-case
       machinery *)
    Engine.run ?journal ?codec ?campaign ?seed ~settings ~jobs ~count runner
  else begin
    if jobs < 1 then invalid_arg "Fabric.run: jobs must be >= 1";
    if count < 0 then invalid_arg "Fabric.run: count must be >= 0";
    (* OCaml bans Unix.fork permanently once any domain has ever been created
       in the process (even after they are joined), so a multi-process grid
       must come before any --jobs > 1 campaign in the same process.  Fail
       with the diagnosis rather than the runtime's bare Failure. *)
    if Engine.domains_ever_spawned () then
      failwith
        "Fabric.run: cannot fork worker processes after worker domains have been spawned in \
         this process (OCaml forbids fork once any domain has ever existed); run the \
         multi-process fabric from a fresh process, or before any --jobs > 1 campaign";
    let codec =
      match codec with
      | Some c -> c
      | None ->
        invalid_arg
          "Fabric.run: multi-process execution requires a codec (case results cross a process \
           boundary)"
    in
    let max_respawns = 2 * workers in
    Printexc.record_backtrace true;
    Engine.with_session ?journal ~codec ?campaign ?seed ~settings ~count (fun session ->
      let pending = Array.to_list (Engine.pending session) in
      let npending = List.length pending in
      let chunk_size =
        match settings.Settings.chunk with
        | Some c -> c
        | None ->
          (* several chunks per worker so stealing has slack, bounded so the
             per-chunk protocol overhead stays negligible *)
          max 1 (min 32 (npending / (workers * 4)))
      in
      (* the work plan: the pending cases sliced into a shared chunk queue
         any worker pulls from *)
      let queue : int list Queue.t = Queue.create () in
      let rec slice = function
        | [] -> ()
        | l ->
          let c, rest = take chunk_size l in
          Queue.add c queue;
          slice rest
      in
      slice pending;
      let live : wstate list ref = ref [] in
      (* set from the SIGINT/SIGTERM handler; checked at every dispatch and
         select round.  One signal drains (in-flight chunks finish, queue
         stays journaled); a second one hard-kills the fleet. *)
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
      let worker_chaos = ref 0 in
      let spawn_worker () =
        let slot = !next_slot in
        incr next_slot;
        let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (* a forked child duplicates unflushed stdio buffers *)
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
          in_worker_flag := true;
          (try Unix.close parent_fd with Unix.Unix_error _ -> ());
          (try
             worker_main ~sock:child_fd ~slot ~jobs ~settings ~codec runner
           with _ -> ());
          (* _exit, not exit: at_exit handlers and stdio flushing belong to
             the coordinator *)
          Unix._exit 0
        | pid ->
          Unix.close child_fd;
          let w =
            {
              ws_slot = slot;
              ws_pid = pid;
              ws_fd = parent_fd;
              ws_buf = Buffer.create 4096;
              ws_pending = [];
              ws_retiring = false;
              ws_bye = false;
              ws_deadline = infinity;
              ws_cases = 0;
            }
          in
          live := w :: !live
      in
      let send_to w j =
        let b = Bytes.of_string (Json.to_string j ^ "\n") in
        try
          let rec wr off =
            if off < Bytes.length b then wr (off + Unix.write w.ws_fd b off (Bytes.length b - off))
          in
          wr 0
        with Unix.Unix_error _ -> ()
        (* a failed send means the worker is dying; its EOF triggers the death
           path, which requeues whatever we just tried to assign *)
      in
      let dispatch w =
        let next =
          if !interrupt <> None then None
            (* draining on SIGINT/SIGTERM: in-flight chunks finish (their
               records are already streaming into the journal), but no new
               chunk leaves the queue — the journal is the persisted queue *)
          else Queue.take_opt queue
        in
        match next with
        | Some cases ->
          let id = !chunks_dispatched in
          incr chunks_dispatched;
          w.ws_pending <- cases;
          w.ws_deadline <-
            (match chunk_deadline with Some d -> Dce_support.Clock.now () +. d | None -> infinity);
          send_to w
            (op "chunk"
               [
                 ("chunk", Json.Int id);
                 ("cases", Json.List (List.map (fun i -> Json.Int i) cases));
               ])
        | None ->
          w.ws_retiring <- true;
          w.ws_deadline <- infinity;
          send_to w (op "quit" [])
      in
      let quarantine_case i =
        Engine.record session i
          (Engine.Crashed
             {
               Engine.q_case = i;
               q_stage = "fabric";
               q_error = "worker process died before completing the case";
               q_kind = Engine.Crash;
               q_backtrace = "";
               q_retries = 0;
             })
      in
      let handle_msg w msg =
        match Json.member "op" msg with
        | Some (Json.String "hello") -> dispatch w
        | Some (Json.String "case") -> (
          let record = try Json.get msg "record" with Failure _ -> Json.Null in
          match Engine.case_of_json codec record with
          | Some (i, outcome) when i >= 0 && i < count ->
            w.ws_pending <- List.filter (fun c -> c <> i) w.ws_pending;
            w.ws_cases <- w.ws_cases + 1;
            (* the worker computed this exact record with Engine.case_to_json;
               appending the parse re-serializes it byte-identically, so the
               journal is indistinguishable from a non-fabric run's *)
            Engine.record session ~json:record i outcome
          | Some _ | None -> ()
          | exception _ -> ()
          (* an undecodable or out-of-range record is dropped: the slot stays
             open and the case re-runs or is quarantined — never fatal *))
        | Some (Json.String "chunk-done") ->
          w.ws_pending <- [];
          w.ws_deadline <- infinity;
          dispatch w
        | Some (Json.String "bye") ->
          w.ws_bye <- true;
          (try
             worker_metrics :=
              Metrics.merge !worker_metrics (Metrics.of_json (Json.get msg "metrics"))
           with _ -> ());
          (try worker_cache := counters_of_json (Json.get msg "cache") :: !worker_cache
           with _ -> ());
          (match Json.member "chaos_fired" msg with
           | Some (Json.Int n) -> worker_chaos := !worker_chaos + n
           | _ -> ())
        | _ -> ()
      in
      let bury w =
        live := List.filter (fun x -> x != w) !live;
        Hashtbl.replace cases_by_slot w.ws_slot w.ws_cases;
        (try Unix.close w.ws_fd with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] w.ws_pid) with Unix.Unix_error _ -> ())
      in
      let on_death w =
        bury w;
        if !interrupt <> None then ()
          (* draining: no requeue, no quarantine, no respawn — unfinished
             cases stay absent from the journal and re-run on resume *)
        else if not w.ws_bye then begin
          (* crash containment: only the dead worker's unfinished in-flight
             cases are affected.  Each gets one more chance on another worker;
             a case that kills two workers is the poison pill and is
             quarantined so the campaign always terminates. *)
          incr deaths;
          let unfinished = List.filter (fun i -> not (Engine.completed session i)) w.ws_pending in
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
      let read_buf = Bytes.create 65536 in
      let handle_readable w =
        match Unix.read w.ws_fd read_buf 0 (Bytes.length read_buf) with
        | 0 -> on_death w
        | exception Unix.Unix_error _ -> on_death w
        | k ->
          Buffer.add_subbytes w.ws_buf read_buf 0 k;
          let data = Buffer.contents w.ws_buf in
          let rec split start =
            match String.index_from_opt data start '\n' with
            | Some nl ->
              (match Json.of_string (String.sub data start (nl - start)) with
               | Ok msg -> handle_msg w msg
               | Error _ -> ());
              split (nl + 1)
            | None ->
              Buffer.clear w.ws_buf;
              Buffer.add_substring w.ws_buf data start (String.length data - start)
          in
          split 0
      in
      (* writes to a worker that died between select rounds must surface as
         EPIPE (handled in send_to), not kill the coordinator *)
      let sigpipe_prev =
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
      in
      (* a Ctrl-C / SIGTERM must not leak the fleet or the journal lock: the
         handler only sets a flag (select wakes with EINTR); the loop drains,
         the [~finally] below restores dispositions, the session closes the
         journal, and [run] raises {!Interrupted} once everything is released *)
      let install signo =
        try
          Some
            ( signo,
              Sys.signal signo
                (Sys.Signal_handle
                   (fun s ->
                     incr interrupt_count;
                     interrupt := Some s)) )
        with Invalid_argument _ | Sys_error _ -> None
      in
      let prev_signals = List.filter_map install [ Sys.sigint; Sys.sigterm ] in
      let finished = ref false in
      Fun.protect
        ~finally:(fun () ->
          (* on an abnormal exit (exception in the coordinator), don't leak
             worker processes *)
          if not !finished then
            List.iter
              (fun w ->
                (try Unix.kill w.ws_pid Sys.sigkill with Unix.Unix_error _ -> ());
                bury w)
              !live;
          List.iter
            (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ())
            prev_signals;
          (match sigpipe_prev with
           | Some b -> (try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
           | None -> ()))
        (fun () ->
          for _ = 1 to min workers npending do
            spawn_worker ()
          done;
          while !live <> [] do
            let now = Dce_support.Clock.now () in
            (* impatient shutdown: a second signal stops waiting for in-flight
               chunks and kills the fleet outright (the journal still holds
               every record received so far) *)
            if !interrupt_count >= 2 then
              List.iter
                (fun w ->
                  (try Unix.kill w.ws_pid Sys.sigkill with Unix.Unix_error _ -> ());
                  on_death w)
                !live;
            (* hang containment: a worker past its chunk deadline is killed;
               the death path requeues or quarantines its in-flight cases *)
            List.iter
              (fun w ->
                if w.ws_deadline < now then begin
                  (try Unix.kill w.ws_pid Sys.sigkill with Unix.Unix_error _ -> ());
                  on_death w
                end)
              !live;
            if !live <> [] then begin
              let timeout =
                List.fold_left (fun acc w -> Float.min acc w.ws_deadline) infinity !live
                |> fun d -> if d = infinity then -1.0 else Float.max 0.0 (d -. now)
              in
              let fds = List.map (fun w -> w.ws_fd) !live in
              let readable, _, _ =
                try Unix.select fds [] [] timeout
                with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
              in
              List.iter
                (fun fd ->
                  match List.find_opt (fun w -> w.ws_fd = fd) !live with
                  | Some w -> handle_readable w
                  | None -> ())
                readable
            end
          done;
          finished := true);
      (match !interrupt with Some signo -> raise (Interrupted signo) | None -> ());
      let fabric =
        {
          Metrics.f_workers = min workers npending;
          f_jobs = jobs;
          f_chunks = !chunks_dispatched;
          f_cases_per_worker =
            List.init !next_slot (fun s ->
                Option.value ~default:0 (Hashtbl.find_opt cases_by_slot s));
          f_reassigned = !reassigned;
          f_deaths = !deaths;
          f_respawns = !respawns;
        }
      in
      Engine.finish ~fabric ~cache:!worker_cache ~chaos_fired:!worker_chaos ~stage:"fabric" session
        !worker_metrics)
  end
