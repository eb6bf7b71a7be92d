let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n xs =
  match xs with
  | [] -> []
  | _ :: rest -> if n <= 0 then xs else drop (n - 1) rest

(* Both keep the longest unchanged suffix of the input, and the input
   itself when nothing changed, so callers can test for a change with [==]. *)
let rec map_shared f = function
  | [] -> []
  | x :: rest as l ->
    let x' = f x in
    let rest' = map_shared f rest in
    if x' == x && rest' == rest then l else x' :: rest'

let rec filter_shared p = function
  | [] -> []
  | x :: rest as l ->
    let keep = p x in
    let rest' = filter_shared p rest in
    if not keep then rest' else if rest' == rest then l else x :: rest'

let split_at n xs = (take n xs, drop n xs)

let group_by key xs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some group -> group := x :: !group
      | None ->
        Hashtbl.add tbl k (ref [ x ]);
        order := k :: !order)
    xs;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let count_by key xs = List.map (fun (k, group) -> (k, List.length group)) (group_by key xs)

let uniq xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let sum = List.fold_left ( + ) 0

let percent part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
