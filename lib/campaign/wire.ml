let send fd j =
  match Dce_support.Fsx.write_all fd (Json.to_string j ^ "\n") with
  | () -> true
  | exception Unix.Unix_error _ -> false

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;  (* the unterminated tail of the last read *)
  lines : string Queue.t;  (* complete lines not yet handed out *)
}

let reader fd = { fd; chunk = Bytes.create 65536; partial = Buffer.create 512; lines = Queue.create () }

(* one read(2), queueing every line it completes; false at end of stream *)
let rec fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r
  | exception Unix.Unix_error _ -> false
  | 0 -> false
  | k ->
    let start = ref 0 in
    for i = 0 to k - 1 do
      if Bytes.get r.chunk i = '\n' then begin
        Buffer.add_subbytes r.partial r.chunk !start (i - !start);
        Queue.add (Buffer.contents r.partial) r.lines;
        Buffer.clear r.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes r.partial r.chunk !start (k - !start);
    true

let drain r =
  let l = List.of_seq (Queue.to_seq r.lines) in
  Queue.clear r.lines;
  l

let input r = if fill r then Some (drain r) else None

let rec line r =
  match Queue.take_opt r.lines with
  | Some l -> Some l
  | None -> if fill r then line r else None

let select fds timeout =
  match Unix.select fds [] [] timeout with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let fork ~close body =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) close;
    Unix._exit (try body () with _ -> 2)
  | pid -> pid

let with_stop_signals on_stop f =
  let set signo behavior =
    try Some (signo, Sys.signal signo behavior) with Invalid_argument _ | Sys_error _ -> None
  in
  let prev =
    List.filter_map Fun.id
      [
        set Sys.sigint (Sys.Signal_handle on_stop);
        set Sys.sigterm (Sys.Signal_handle on_stop);
        set Sys.sigpipe Sys.Signal_ignore;
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ()) prev)
    f
