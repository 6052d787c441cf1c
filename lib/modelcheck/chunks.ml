(* Append-only chunked storage; see the .mli. *)

let chunk_bits = 16
let chunk_len = 1 lsl chunk_bits
let mask = chunk_len - 1

(* The first chunk's starting size: it doubles up to [chunk_len]. *)
let first_len = 64

type 'a t = {
  mutable spine : 'a array array;  (* chunk k: indices [k * chunk_len, ...) *)
  mutable len : int;
  mutable released : int;  (* elements below this are gone *)
  dummy : 'a;
}

let create dummy = { spine = [||]; len = 0; released = 0; dummy }
let length t = t.len

(* Every index below [len] lies in a chunk the spine holds. *)
let get t i =
  if i < 0 || i >= t.len then invalid_arg "Chunks.get";
  (Array.unsafe_get t.spine (i lsr chunk_bits)).(i land mask)

let push t x =
  let i = t.len in
  let k = i lsr chunk_bits in
  if k = Array.length t.spine then
    t.spine <-
      Array.append t.spine
        [| Array.make (if k = 0 then first_len else chunk_len) t.dummy |]
  else if k = 0 && i = Array.length t.spine.(0) then begin
    let c = Array.make (2 * i) t.dummy in
    Array.blit t.spine.(0) 0 c 0 i;
    t.spine.(0) <- c
  end;
  t.spine.(k).(i land mask) <- x;
  t.len <- i + 1

(* Clear [lo, hi), which lies in held chunks. *)
let clear t lo hi =
  let i = ref lo in
  while !i < hi do
    let k = !i lsr chunk_bits in
    let stop = min hi ((k + 1) lsl chunk_bits) in
    Array.fill t.spine.(k) (!i land mask) (stop - !i) t.dummy;
    i := stop
  done

let truncate t n =
  if n < t.released || n > t.len then invalid_arg "Chunks.truncate";
  clear t n t.len;
  t.len <- n

let release_below t n =
  if n < t.released || n > t.len then invalid_arg "Chunks.release_below";
  let k = n lsr chunk_bits in
  for c = t.released lsr chunk_bits to k - 1 do
    t.spine.(c) <- [||]
  done;
  clear t (max t.released (k lsl chunk_bits)) n;
  t.released <- n

let to_array t =
  if t.released > 0 then invalid_arg "Chunks.to_array: released elements";
  if t.len = 0 then [||]
  else begin
    let a = Array.make t.len t.dummy in
    for k = 0 to (t.len - 1) lsr chunk_bits do
      let lo = k lsl chunk_bits in
      Array.blit t.spine.(k) 0 a lo (min chunk_len (t.len - lo))
    done;
    a
  end

(* The record is a header and four fields; the empty spine is a static
   atom. *)
let footprint t =
  Array.fold_left
    (fun w c -> if Array.length c = 0 then w else w + 1 + Array.length c)
    (5 + if Array.length t.spine = 0 then 0 else 1 + Array.length t.spine)
    t.spine

let held_from t =
  let rec go k =
    if k < Array.length t.spine && Array.length t.spine.(k) = 0 then go (k + 1)
    else k * chunk_len
  in
  go 0
