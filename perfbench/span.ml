(* Spans and counters recorded from the benchmark's side of each library call.

   Every timing in the ledger goes through [now], the monotonic clock; a span
   adds its duration to a named layer of an accumulator.  One accumulator per
   worker domain, merged after the join, so no two domains write the same
   table. *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

type t = {
  times : (string, float) Hashtbl.t;  (* layer -> seconds *)
  counts : (string, int) Hashtbl.t;
}

let create () = { times = Hashtbl.create 64; counts = Hashtbl.create 64 }
let time t k = Option.value ~default:0. (Hashtbl.find_opt t.times k)
let count t k = Option.value ~default:0 (Hashtbl.find_opt t.counts k)
let add_time t k dt = Hashtbl.replace t.times k (time t k +. dt)
let add_count t k n = Hashtbl.replace t.counts k (count t k + n)

let span t k f =
  let r, dt = timed f in
  add_time t k dt;
  r

let merge_into dst src =
  Hashtbl.iter (add_time dst) src.times;
  Hashtbl.iter (add_count dst) src.counts

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The share table of one traced run: every listed layer's seconds and share
   of the traced wall, largest first, then the [rest] not covered by them. *)
let share_table ?(rest = "(unaccounted)") ~wall ~layers t =
  let rows =
    List.map (fun k -> (k, time t k)) layers
    |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  in
  let accounted = List.fold_left (fun s (_, v) -> s +. v) 0. rows in
  let line (k, v) = Printf.sprintf "  %-24s %10.4f s  %6.2f%%\n" k v (100. *. v /. wall) in
  String.concat ""
    ((Printf.sprintf "  %-24s %10s    %7s\n" "layer" "time" "share" :: List.map line rows)
    @ [ line (rest, wall -. accounted); line ("traced wall", wall) ])
