exception Budget_exceeded of { site : string; steps : int; elapsed : float }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { site; steps; elapsed } ->
      Some
        (Printf.sprintf "budget exceeded at %s (%d polls, %.3fs elapsed)" site steps elapsed)
    | _ -> None)

type t = {
  g_deadline : float option;  (* absolute, on Clock.now *)
  g_max_steps : int option;
  g_start : float;
  mutable g_count : int;
  mutable g_last_time_check : int;  (* poll count at the last clock read *)
}

let unlimited =
  { g_deadline = None; g_max_steps = None; g_start = 0.; g_count = 0; g_last_time_check = 0 }

(* reading the clock every poll would make the interpreter's step loop pay
   for supervision; 128 polls between reads bounds deadline overshoot to a
   sliver while keeping the common path to two integer compares *)
let time_check_interval = 128

let create ?deadline ?steps () =
  match (deadline, steps) with
  | None, None -> unlimited
  | _ ->
    let now = Clock.now () in
    {
      g_deadline = Option.map (fun d -> now +. d) deadline;
      g_max_steps = steps;
      g_start = now;
      g_count = 0;
      g_last_time_check = 0;
    }

let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> unlimited)

let active () = Domain.DLS.get key != unlimited

let trip g site =
  raise
    (Budget_exceeded
       { site; steps = g.g_count; elapsed = Clock.now () -. g.g_start })

let poll ~site =
  let g = Domain.DLS.get key in
  if g != unlimited then begin
    g.g_count <- g.g_count + 1;
    (match g.g_max_steps with
     | Some max_steps when g.g_count > max_steps -> trip g site
     | _ -> ());
    match g.g_deadline with
    | Some dl when g.g_count = 1 || g.g_count - g.g_last_time_check >= time_check_interval ->
      g.g_last_time_check <- g.g_count;
      if Clock.now () > dl then trip g site
    | _ -> ()
  end

let with_guard g f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key g;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let steps_used g = g.g_count
