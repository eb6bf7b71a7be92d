type chaos = { spec : string; plan : Chaos.plan }

type t = {
  deadline : float option;
  step_budget : int option;
  retries : int;
  chaos : chaos option;
  checked : bool;
  workers : int;
}

(* every bad value is reported against the CLI flag that sets it, so the
   CLI boundary can print it as a one-line usage error *)
let at_least flag min n =
  if n < min then failwith (Printf.sprintf "%s: must be >= %d (got %d)" flag min n);
  n

(* [Max_domains] in the runtime's caml/domain.h (OCaml 5.1-5.2): the
   calling domain counts, and it is worker 0 of the pool *)
let max_jobs = if Sys.word_size = 64 then 128 else 16

let jobs n =
  let n = at_least "--jobs" 1 n in
  if n > max_jobs then
    failwith
      (Printf.sprintf "--jobs: must be <= %d, the runtime's domain limit (got %d)" max_jobs n);
  n

let slots = at_least "--slots" 1

let v ?deadline ?step_budget ?(retries = 0) ?chaos ?(checked = false) ?(workers = 1) () =
  Option.iter
    (fun d ->
      (* written so that nan fails too *)
      if not (d > 0.) then failwith (Printf.sprintf "--deadline: must be > 0 seconds (got %g)" d))
    deadline;
  let chaos =
    Option.map
      (fun spec ->
        match Chaos.of_string spec with
        | Ok plan -> { spec; plan }
        | Error msg -> failwith ("--chaos: " ^ msg))
      chaos
  in
  {
    deadline;
    step_budget = Option.map (at_least "--step-budget" 1) step_budget;
    retries = at_least "--retries" 0 retries;
    chaos;
    checked;
    workers = at_least "--workers" 1 workers;
  }

let default = v ()

let plan t = match t.chaos with Some c -> c.plan | None -> []

let check_cases ~count t =
  ignore (at_least "--count" 0 count);
  List.iter
    (fun (inj : Chaos.injection) ->
      if inj.inj_case >= count then
        failwith
          (Printf.sprintf
             "--chaos: case %d is out of range: the campaign has %d case(s), numbered from 0"
             inj.inj_case count))
    (plan t)

(* a corrupt-IR injection is invisible without per-pass validation *)
let checked t = t.checked || Chaos.has_corrupt (plan t)
