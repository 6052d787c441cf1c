(* FNV-1a over byte strings.  The serve layer's content-addressed store
   and query keys need a digest that is (a) identical in every process
   and on every platform with 64-bit ints and (b) cheap enough to run
   on every cache probe.  FNV-1a folded into OCaml's 63-bit native int
   is both; collisions are tolerable because every consumer stores the
   full preimage next to the digest and verifies it on read. *)

let prime = 0x100000001b3

(* A [for] loop over a local ref keeps the state in a register; a
   closure passed to [String.iter] would keep it in a heap cell. *)
let fold_sub acc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Fnv.fold_sub";
  let h = ref acc in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * prime
  done;
  (* Mix the length in so "a" + "bc" and "ab" + "c" folded in sequence
     cannot collide trivially; keep the result non-negative. *)
  ((!h lxor len) * prime) land max_int

let fold_string acc s = fold_sub acc s 0 (String.length s)

let seed = 0xbf29ce484222325 (* FNV-1a offset basis, truncated to fit OCaml's int *)

let string s = fold_string seed s

let sub s off len = fold_sub seed s off len

let to_hex h = Printf.sprintf "%016x" h
