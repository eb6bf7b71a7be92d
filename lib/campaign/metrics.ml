module Passmgr = Dce_compiler.Passmgr

type t = {
  mutable samples : (string * float) list;
  mutable m_retries : int;
  mutable m_recovered : int;
}

let create () = { samples = []; m_retries = 0; m_recovered = 0 }
let record t stage dt = t.samples <- (stage, dt) :: t.samples
let retried t = t.m_retries <- t.m_retries + 1
let recovered t = t.m_recovered <- t.m_recovered + 1

let merge a b =
  {
    samples = a.samples @ b.samples;
    m_retries = a.m_retries + b.m_retries;
    m_recovered = a.m_recovered + b.m_recovered;
  }

(* wire form for the fabric: a worker process ships its accumulator to the
   coordinator in its farewell message.  Samples are (stage, seconds) pairs;
   order does not matter downstream ({!summarize} sorts per stage), so the
   reversal a round trip introduces is harmless. *)
let to_json t =
  Json.Obj
    [
      ( "samples",
        Json.List
          (List.map (fun (stage, dt) -> Json.List [ Json.String stage; Json.Float dt ]) t.samples)
      );
      ("retries", Json.Int t.m_retries);
      ("recovered", Json.Int t.m_recovered);
    ]

let of_json j =
  let sample = function
    | Json.List [ Json.String stage; (Json.Float _ | Json.Int _) as v ] ->
      let dt = match v with Json.Float f -> f | Json.Int n -> float_of_int n | _ -> 0. in
      (stage, dt)
    | v -> failwith (Printf.sprintf "metrics wire record: bad sample %s" (Json.to_string v))
  in
  {
    samples = List.map sample (Json.get_list j "samples");
    m_retries = Json.get_int j "retries";
    m_recovered = Json.get_int j "recovered";
  }

type stage_summary = {
  ss_stage : string;
  ss_samples : int;
  ss_total : float;
  ss_p50 : float;
  ss_p90 : float;
  ss_p99 : float;
}

type fabric = {
  f_workers : int;
  f_jobs : int;
  f_chunks : int;
  f_cases_per_worker : int list;
  f_reassigned : int;
  f_deaths : int;
  f_respawns : int;
}

type summary = {
  cases : int;
  wall : float;
  throughput : float;
  stages : stage_summary list;
  cache : Passmgr.counters;
  journal_skipped : int;
  crashed : int;
  timeouts : int;
  ir_invalid : int;
  retries : int;
  recovered : int;
  chaos_fired : int;
  chaos_unfired : Chaos.injection list;
  fabric : fabric option;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    (* nearest-rank: smallest value with at least q*n samples at or below *)
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let summarize ?(journal_skipped = 0) ?(crashed = 0) ?(timeouts = 0) ?(ir_invalid = 0)
    ?(chaos_fired = 0) ?(chaos_unfired = []) ?fabric ~cases ~wall ~cache t =
  let by_stage : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (stage, dt) ->
      match Hashtbl.find_opt by_stage stage with
      | Some l -> l := dt :: !l
      | None -> Hashtbl.add by_stage stage (ref [ dt ]))
    t.samples;
  let stages =
    Hashtbl.fold
      (fun stage samples acc ->
        let arr = Array.of_list !samples in
        Array.sort compare arr;
        {
          ss_stage = stage;
          ss_samples = Array.length arr;
          ss_total = Array.fold_left ( +. ) 0. arr;
          ss_p50 = percentile arr 0.50;
          ss_p90 = percentile arr 0.90;
          ss_p99 = percentile arr 0.99;
        }
        :: acc)
      by_stage []
    |> List.sort (fun a b -> compare (-.a.ss_total, a.ss_stage) (-.b.ss_total, b.ss_stage))
  in
  {
    cases;
    wall;
    throughput = (if wall > 0. then float_of_int cases /. wall else 0.);
    stages;
    cache;
    journal_skipped;
    crashed;
    timeouts;
    ir_invalid;
    retries = t.m_retries;
    recovered = t.m_recovered;
    chaos_fired;
    chaos_unfired;
    fabric;
  }

(* artifact form of a campaign summary (a run directory's metrics.json).
   Everything the human block prints, as data; the per-stage rows carry the
   summed totals campaign-diff reads back for its timing-delta table. *)
let summary_to_json s =
  let stage st =
    Json.Obj
      [
        ("stage", Json.String st.ss_stage);
        ("samples", Json.Int st.ss_samples);
        ("total", Json.Float st.ss_total);
        ("p50", Json.Float st.ss_p50);
        ("p90", Json.Float st.ss_p90);
        ("p99", Json.Float st.ss_p99);
      ]
  in
  let base =
    [
      ("cases", Json.Int s.cases);
      ("wall", Json.Float s.wall);
      ("throughput", Json.Float s.throughput);
      ("hit_rate", Json.Float (Passmgr.hit_rate s.cache));
      ("memo_hit_rate", Json.Float (Passmgr.memo_hit_rate s.cache));
      ("journal_skipped", Json.Int s.journal_skipped);
      ("crashed", Json.Int s.crashed);
      ("timeouts", Json.Int s.timeouts);
      ("ir_invalid", Json.Int s.ir_invalid);
      ("retries", Json.Int s.retries);
      ("recovered", Json.Int s.recovered);
      ("chaos_fired", Json.Int s.chaos_fired);
      ("stages", Json.List (List.map stage s.stages));
    ]
  in
  let fabric =
    match s.fabric with
    | None -> []
    | Some f ->
      [
        ( "fabric",
          Json.Obj
            [
              ("workers", Json.Int f.f_workers);
              ("jobs", Json.Int f.f_jobs);
              ("chunks", Json.Int f.f_chunks);
              ( "cases_per_worker",
                Json.List (List.map (fun n -> Json.Int n) f.f_cases_per_worker) );
              ("reassigned", Json.Int f.f_reassigned);
              ("deaths", Json.Int f.f_deaths);
              ("respawns", Json.Int f.f_respawns);
            ] );
      ]
  in
  Json.Obj (base @ fabric)

let to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d cases in %.2fs (%.1f cases/sec)\n" s.cases s.wall s.throughput);
  Buffer.add_string buf
    (Printf.sprintf "analysis-cache hit rate across workers: %.1f%% (stage memo: %.1f%%)\n"
       (100.0 *. Passmgr.hit_rate s.cache)
       (100.0 *. Passmgr.memo_hit_rate s.cache));
  if s.crashed + s.timeouts + s.ir_invalid + s.retries + s.recovered + s.chaos_fired > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "supervision: %d crashed, %d timed out, %d invalid IR; %d retries (%d recovered); %d \
          chaos faults injected\n"
         s.crashed s.timeouts s.ir_invalid s.retries s.recovered s.chaos_fired);
  (match s.fabric with
   | None -> ()
   | Some f ->
     Buffer.add_string buf
       (Printf.sprintf
          "fabric: %d worker process(es) x %d domain(s), %d chunk(s) dispatched (cases/worker: \
           %s)%s%s\n"
          f.f_workers f.f_jobs f.f_chunks
          (String.concat "/" (List.map string_of_int f.f_cases_per_worker))
          (if f.f_deaths > 0 then
             Printf.sprintf "; %d worker death(s), %d case(s) reassigned" f.f_deaths f.f_reassigned
           else "")
          (if f.f_respawns > 0 then Printf.sprintf ", %d respawn(s)" f.f_respawns else "")));
  if s.journal_skipped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "%d journal record(s) skipped (unreadable or from another build)\n"
         s.journal_skipped);
  if s.stages <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-16s %8s %10s %10s %10s %10s\n" "stage" "samples" "total" "p50" "p90"
         "p99");
    List.iter
      (fun st ->
        Buffer.add_string buf
          (Printf.sprintf "%-16s %8d %9.2fs %8.2fms %8.2fms %8.2fms\n" st.ss_stage st.ss_samples
             st.ss_total (1e3 *. st.ss_p50) (1e3 *. st.ss_p90) (1e3 *. st.ss_p99)))
      s.stages
  end;
  Buffer.contents buf
