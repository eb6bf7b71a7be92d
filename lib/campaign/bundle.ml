type t = {
  b_case : int;
  b_seed : int;
  b_campaign : string;
  b_kind : Engine.fault_kind;
  b_stage : string;
  b_error : string;
  b_backtrace : string;
  b_retries : int;
  b_source : string option;
  b_minimized : string option;
}

let of_quarantined ~campaign ~seed ?source (q : Engine.quarantined) =
  {
    b_case = q.Engine.q_case;
    b_seed = seed;
    b_campaign = campaign;
    b_kind = q.Engine.q_kind;
    b_stage = q.Engine.q_stage;
    b_error = q.Engine.q_error;
    b_backtrace = q.Engine.q_backtrace;
    b_retries = q.Engine.q_retries;
    b_source = source;
    b_minimized = None;
  }

let case_dir ~dir case = Filename.concat dir (Printf.sprintf "case-%04d" case)

let meta_to_json t =
  Json.Obj
    [
      ("bundle", Json.String "dce-crash-bundle");
      ("version", Json.Int 1);
      ("case", Json.Int t.b_case);
      ("seed", Json.Int t.b_seed);
      ("campaign", Json.String t.b_campaign);
      ("kind", Json.String (Engine.fault_kind_name t.b_kind));
      ("stage", Json.String t.b_stage);
      ("error", Json.String t.b_error);
      ("backtrace", Json.String t.b_backtrace);
      ("retries", Json.Int t.b_retries);
    ]

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let write ~dir t =
  let cdir = case_dir ~dir t.b_case in
  Dce_support.Fsx.mkdir_p cdir;
  write_file (Filename.concat cdir "meta.json") (Json.to_string (meta_to_json t) ^ "\n");
  (match t.b_source with
   | Some src -> write_file (Filename.concat cdir "repro.c") src
   | None -> ());
  (match t.b_minimized with
   | Some src -> write_file (Filename.concat cdir "repro-min.c") src
   | None -> ());
  cdir

let kind_of_name = function
  | "timeout" -> Engine.Timeout
  | "ir-invalid" -> Engine.Ir_invalid
  | _ -> Engine.Crash

let load cdir =
  let meta = Filename.concat cdir "meta.json" in
  if not (Sys.file_exists meta) then None
  else
    match Json.of_string (Dce_support.Fsx.read_file meta) with
    | Error _ -> None
    | Ok j -> (
      match Json.member "bundle" j with
      | Some (Json.String "dce-crash-bundle") ->
        let opt_file name =
          let p = Filename.concat cdir name in
          if Sys.file_exists p then Some (Dce_support.Fsx.read_file p) else None
        in
        (try
           Some
             {
               b_case = Json.get_int j "case";
               b_seed = Json.get_int j "seed";
               b_campaign = Json.get_str j "campaign";
               b_kind = kind_of_name (Json.get_str j "kind");
               b_stage = Json.get_str j "stage";
               b_error = Json.get_str j "error";
               b_backtrace = Json.get_str j "backtrace";
               b_retries = Json.get_int j "retries";
               b_source = opt_file "repro.c";
               b_minimized = opt_file "repro-min.c";
             }
         with _ -> None)
      | _ -> None)

let to_string t =
  Printf.sprintf
    "case %d (seed %d, campaign %s): %s in stage %s after %d retr%s\n  %s%s" t.b_case t.b_seed
    t.b_campaign
    (Engine.fault_kind_name t.b_kind)
    t.b_stage t.b_retries
    (if t.b_retries = 1 then "y" else "ies")
    t.b_error
    (match t.b_minimized with Some _ -> "\n  (minimized repro available)" | None -> "")
