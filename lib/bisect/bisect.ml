module C = Dce_compiler

type regression = {
  offending : C.Version.commit;
  offending_index : int;
  last_good : int;
  compilations : int;
}

type outcome = Regression of regression | Always_missed | Not_missed

let find_regression_counted ?(search = `Exponential) ?session compiler level prog ~marker =
  (match session with
   | Some s when not (C.Compiler.program s == prog || C.Compiler.program s = prog) ->
     invalid_arg "Bisect.find_regression: the session compiles another program"
   | _ -> ());
  let head = C.Compiler.head compiler in
  let probes = ref 0 in
  let surviving v =
    (* A shared session answers every probe of every marker of the program
       from its caches; without one, each probe compiles from scratch.
       Memoized compilation is observably identical to fresh compilation,
       so the outcome — and the probe count — is the same either way. *)
    let s = match session with Some s -> s | None -> C.Compiler.session prog in
    (C.Compiler.observe s compiler ~version:v level).C.Compiler.obs_markers
  in
  let eliminates version =
    incr probes;
    not (List.mem marker (surviving version))
  in
  let outcome =
    if eliminates head then Not_missed
    else begin
      (* (a) find a good version below HEAD *)
      let good =
        match search with
        | `Linear ->
          let rec down v = if v < 0 then None else if eliminates v then Some v else down (v - 1) in
          down (head - 1)
        | `Exponential ->
          let rec back step =
            let v = head - step in
            if v < 0 then if eliminates 0 then Some 0 else None
            else if eliminates v then Some v
            else back (step * 2)
          in
          back 1
      in
      match good with
      | None -> Always_missed
      | Some g ->
        (* (b) first bad version in (g, head]; monotonicity assumed in range *)
        let rec bsearch good bad =
          (* invariant: eliminates good, not (eliminates bad) *)
          if bad - good <= 1 then bad
          else begin
            let mid = (good + bad) / 2 in
            if eliminates mid then bsearch mid bad else bsearch good mid
          end
        in
        let first_bad = bsearch g head in
        (* version v applies the first v commits, so the commit introducing the
           miss at version v is history[v-1] *)
        let offending = List.nth compiler.C.Compiler.history (first_bad - 1) in
        Regression
          {
            offending;
            offending_index = first_bad;
            last_good = first_bad - 1;
            compilations = !probes;
          }
    end
  in
  (outcome, !probes)

let find_regression ?search ?session compiler level prog ~marker =
  fst (find_regression_counted ?search ?session compiler level prog ~marker)

type component_row = { component : string; commits : int; files : int }

let component_table commits =
  let seen = Hashtbl.create 64 in
  let unique =
    List.filter
      (fun (c : C.Version.commit) ->
        if Hashtbl.mem seen c.C.Version.id then false
        else begin
          Hashtbl.add seen c.C.Version.id ();
          true
        end)
      commits
  in
  Dce_support.Listx.group_by (fun (c : C.Version.commit) -> c.C.Version.component) unique
  |> List.map (fun (component, cs) ->
         let files =
           List.concat_map (fun (c : C.Version.commit) -> c.C.Version.files) cs
           |> List.sort_uniq compare
         in
         { component; commits = List.length cs; files = List.length files })
  |> List.sort (fun a b -> compare a.component b.component)
