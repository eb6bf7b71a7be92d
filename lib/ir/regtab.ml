(* 64-slot chunks: under Max_young_wosize (256 words), so minor-heap
   allocated *)
let bits = 6
let chunk_width = 1 lsl bits
let mask = chunk_width - 1

(* an unwritten chunk is the shared empty array *)
type 'a t = { default : 'a; mutable chunks : 'a array array }

let create n default = { default; chunks = Array.make ((max n 0 + mask) lsr bits) [||] }

let get t k =
  let c = k asr bits in
  if c < 0 || c >= Array.length t.chunks then t.default
  else
    let chunk = Array.unsafe_get t.chunks c in
    if Array.length chunk = 0 then t.default else Array.unsafe_get chunk (k land mask)

let set t k v =
  if k < 0 then invalid_arg (Printf.sprintf "Regtab.set: negative key %d" k);
  let c = k lsr bits in
  let n = Array.length t.chunks in
  if c >= n then begin
    let chunks = Array.make (max (c + 1) (2 * n)) [||] in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks
  end;
  let chunk = Array.unsafe_get t.chunks c in
  let chunk =
    if Array.length chunk > 0 then chunk
    else begin
      let fresh = Array.make chunk_width t.default in
      t.chunks.(c) <- fresh;
      fresh
    end
  in
  Array.unsafe_set chunk (k land mask) v
