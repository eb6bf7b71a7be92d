type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    (* a plain float format that round-trips through our parser; the journal
       only stores metric seconds, where 17 significant digits suffice.
       JSON has no encoding for non-finite floats ("nan"/"inf" would poison
       the journal: every later resume would reject the line), so they
       serialize as null. *)
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        print buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\":";
        print buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Syntax of string

let parse_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "invalid literal"
  in
  let parse_str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          go ()
        | 'n' ->
          Buffer.add_char buf '\n';
          go ()
        | 'r' ->
          Buffer.add_char buf '\r';
          go ()
        | 't' ->
          Buffer.add_char buf '\t';
          go ()
        | 'b' ->
          Buffer.add_char buf '\b';
          go ()
        | 'f' ->
          Buffer.add_char buf '\012';
          go ()
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
           | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
           | Some code ->
             (* non-ASCII escapes never appear in our own journals; keep a
                lossless-enough UTF-8 encoding for foreign ones *)
             if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end;
             ()
           | None -> fail "bad \\u escape");
          go ()
        | _ -> fail "unknown escape")
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_str ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_str () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_string s =
  match parse_string s with
  | v -> Ok v
  | exception Syntax msg -> Error msg

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

let get v key =
  match member key v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "journal record: missing field %S" key)

let int_exn = function
  | Int i -> i
  | v -> failwith (Printf.sprintf "journal record: expected int, got %s" (to_string v))

let get_int v key = int_exn (get v key)

let get_str v key =
  match get v key with
  | String s -> s
  | x -> failwith (Printf.sprintf "journal record: field %S is not a string: %s" key (to_string x))

let get_list v key =
  match get v key with
  | List l -> l
  | x -> failwith (Printf.sprintf "journal record: field %S is not a list: %s" key (to_string x))

(* ------------------------------------------------------------------ *)
(* shared value codecs                                                 *)
(* ------------------------------------------------------------------ *)

let of_level l = String (Dce_compiler.Level.to_string l)

let level_exn v =
  match Option.bind (to_str v) Dce_compiler.Level.of_string with
  | Some l -> l
  | None -> failwith (Printf.sprintf "journal record: expected a level, got %s" (to_string v))

module Iset = Dce_ir.Ir.Iset

let of_iset s = List (List.map (fun i -> Int i) (Iset.elements s))

let iset_exn = function
  | List l -> List.fold_left (fun s v -> Iset.add (int_exn v) s) Iset.empty l
  | v -> failwith (Printf.sprintf "journal record: expected a marker list, got %s" (to_string v))

(* ------------------------------------------------------------------ *)
(* the case-record envelope                                            *)
(* ------------------------------------------------------------------ *)

let expect_kind kind j =
  match get_str j "kind" with
  | k when k = kind -> ()
  | other -> failwith (Printf.sprintf "journal record: unknown case kind %S" other)

let envelope ~kind ~seed body =
  let common = [ ("kind", String kind); ("seed", Int seed) ] in
  match body with
  | Error reason -> Obj (common @ [ ("rejected", String reason) ])
  | Ok fields -> Obj (common @ fields)

let of_envelope ~kind j =
  expect_kind kind j;
  let seed = get_int j "seed" in
  match member "rejected" j with
  | Some _ -> (seed, Error (get_str j "rejected"))
  | None -> (seed, Ok j)
