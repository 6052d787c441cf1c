(* The universal value type, hash-consed.

   Everything in the simulation universe -- proposal values, object
   responses, object states, and protocol local states -- is a [Value.t].
   Keeping a single comparable, hashable tree type is the design decision
   that makes global configurations comparable, which in turn is what lets
   the model checker memoize reachability and compute valences.

   Values are interned at construction in a global, lock-striped table:
   structurally equal values are physically equal, [equal] is [(==)],
   [hash] reads a cached structural hash, and [compare] only walks trees
   when its arguments are distinct (in which case the first differing
   branch decides quickly).

   THE ID-NEVER-ORDERS INVARIANT.  [id] is assigned by a global counter
   in allocation order, so it differs between runs that construct the
   same values in different orders.  It exists only for identity and for
   internal memo keys; [hash] and [compare] are purely structural, and
   nothing observable (explorer node ids, edge orders, traces, checker
   verdicts) may depend on ids.  Tested by the cross-process fingerprint
   test in test/test_modelcheck.ml. *)

type t = { node : node; h : int; id : int }

and node =
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string
  | Bot (* the special value "⊥" returned by upset/exhausted objects *)
  | Nil (* the special value "NIL" used in sequential specifications *)
  | Done (* the response "done" of propose operations on PAC objects *)
  | Pair of t * t
  | List of t list

(* Element-wise FNV-1a-style mixing.  [Hashtbl.hash] inspects only ~10
   meaningful leaves, so large values that differ deep inside (long
   lists, nested pairs) all collide; the model checker's dedup tables
   need every leaf to contribute.  With hash-consing each node mixes its
   children's CACHED hashes, so construction is O(node), yet the result
   is a full-tree structural hash: identical for equal trees in any
   process of any run. *)
let hash_combine h k = (h lxor k) * 0x100000001b3

let fnv_seed = 0x811c9dc5

let node_hash n =
  (match n with
  | Unit -> hash_combine fnv_seed 3
  | Bool false -> hash_combine fnv_seed 5
  | Bool true -> hash_combine fnv_seed 7
  | Int i -> hash_combine fnv_seed (i lxor 0x2545F491)
  | Sym s -> hash_combine fnv_seed (Hashtbl.hash s)
  | Bot -> hash_combine fnv_seed 11
  | Nil -> hash_combine fnv_seed 13
  | Done -> hash_combine fnv_seed 17
  | Pair (a, b) ->
    hash_combine (hash_combine (hash_combine fnv_seed 19) a.h) b.h
  | List vs ->
    List.fold_left (fun acc v -> hash_combine acc v.h) (hash_combine fnv_seed 23) vs)
  land max_int

(* Shallow equality for intern probes: same constructor, equal leaf
   payload, PHYSICALLY equal children.  Sound because children of a
   candidate node are themselves already interned representatives. *)
let node_equal a b =
  match (a, b) with
  | Unit, Unit | Bot, Bot | Nil, Nil | Done, Done -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Sym x, Sym y -> String.equal x y
  | Pair (x1, y1), Pair (x2, y2) -> x1 == x2 && y1 == y2
  | List xs, List ys ->
    let rec eq xs ys =
      match (xs, ys) with
      | [], [] -> true
      | x :: xs', y :: ys' -> x == y && eq xs' ys'
      | _ -> false
    in
    eq xs ys
  | _ -> false

(* The global intern table: [n_stripes] independent open-addressing
   tables, each guarded by its own mutex, stripe chosen from the
   candidate's STRUCTURAL hash.  Striping keeps multi-domain explorer /
   fuzzer construction mostly uncontended (two domains collide only when
   interning values whose hashes share the low 6 bits at the same
   moment); holding the stripe lock across the whole probe+insert keeps
   the table trivially linearizable.  Values escape to other domains
   either through a later [intern] of an equal node (ordered by this
   mutex) or through the spawn/join edges of the explorer's worker
   domains — both provide the needed happens-before, and all fields are
   immutable. *)

let n_stripes = 64 (* power of two *)

type stripe = {
  lock : Mutex.t;
  mutable slots : t array; (* [dummy] marks an empty slot *)
  mutable mask : int;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
}

(* Sentinel for empty slots; its [h = -1] matches no real value (real
   hashes are [land max_int]-masked, hence non-negative). *)
let dummy = { node = Unit; h = -1; id = -1 }

let stripes =
  Array.init n_stripes (fun _ ->
      {
        lock = Mutex.create ();
        slots = Array.make 16 dummy;
        mask = 15;
        size = 0;
        hits = 0;
        misses = 0;
      })

let next_id = Atomic.make 0

let rec insert_fresh slots mask v i =
  if slots.(i) == dummy then slots.(i) <- v
  else insert_fresh slots mask v ((i + 1) land mask)

let grow s =
  let old = s.slots in
  let mask = (2 * (s.mask + 1)) - 1 in
  let slots = Array.make (mask + 1) dummy in
  Array.iter
    (fun v -> if v != dummy then insert_fresh slots mask v ((v.h lsr 6) land mask))
    old;
  s.slots <- slots;
  s.mask <- mask

let intern n =
  let h = node_hash n in
  let s = Array.unsafe_get stripes (h land (n_stripes - 1)) in
  Mutex.lock s.lock;
  let slots = s.slots and mask = s.mask in
  let rec find i =
    let x = Array.unsafe_get slots i in
    if x == dummy then begin
      let v = { node = n; h; id = Atomic.fetch_and_add next_id 1 } in
      Array.unsafe_set slots i v;
      s.size <- s.size + 1;
      s.misses <- s.misses + 1;
      if 3 * s.size > 2 * (mask + 1) then grow s;
      Mutex.unlock s.lock;
      v
    end
    else if x.h = h && node_equal n x.node then begin
      s.hits <- s.hits + 1;
      Mutex.unlock s.lock;
      x
    end
    else find ((i + 1) land mask)
  in
  find ((h lsr 6) land mask)

type intern_stats = { hits : int; misses : int; size : int; stripes : int }

let intern_stats () =
  let acc = ref { hits = 0; misses = 0; size = 0; stripes = n_stripes } in
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      acc :=
        {
          !acc with
          hits = !acc.hits + s.hits;
          misses = !acc.misses + s.misses;
          size = !acc.size + s.size;
        };
      Mutex.unlock s.lock)
    stripes;
  !acc

(* Equality and hashing are where hash-consing pays: O(1) each. *)
let equal (a : t) (b : t) = a == b
let hash (v : t) = v.h
let hash_fold acc (v : t) = hash_combine acc v.h

(* Direct loops, not [Array.fold_left hash_fold] / [Array.for_all2
   equal]: the dev profile compiles with [-opaque], so a caller's fold
   pays a closure call plus a cross-module call per element, while here
   [hash_combine] and [(==)] inline. *)
let hash_array acc (a : t array) =
  let h = ref acc in
  for i = 0 to Array.length a - 1 do
    h := hash_combine !h (Array.unsafe_get a i).h
  done;
  !h

let equal_array (a : t array) (b : t array) =
  a == b
  || Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec go i =
       i = n || (Array.unsafe_get a i == Array.unsafe_get b i && go (i + 1))
     in
     go 0

module Array_tbl = Hashtbl.Make (struct
  type nonrec t = t array

  let equal = equal_array
  let hash = hash_array 0
end)

(* Total structural order — IDENTICAL to the pre-hash-consing order
   (sorted [Assoc]/[Set_] encodings and golden traces depend on it).
   Identity short-circuits; ids never participate in the ordering. *)
let rec compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Unit, Unit -> 0
    | Unit, _ -> -1
    | _, Unit -> 1
    | Bool x, Bool y -> Stdlib.compare x y
    | Bool _, _ -> -1
    | _, Bool _ -> 1
    | Int x, Int y -> Stdlib.compare x y
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Sym x, Sym y -> String.compare x y
    | Sym _, _ -> -1
    | _, Sym _ -> 1
    | Bot, Bot -> 0
    | Bot, _ -> -1
    | _, Bot -> 1
    | Nil, Nil -> 0
    | Nil, _ -> -1
    | _, Nil -> 1
    | Done, Done -> 0
    | Done, _ -> -1
    | _, Done -> 1
    | Pair (x1, y1), Pair (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
    | Pair _, _ -> -1
    | _, Pair _ -> 1
    | List xs, List ys -> compare_lists xs ys

and compare_lists xs ys =
  if xs == ys then 0
  else
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

let rec pp ppf v =
  match v.node with
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Sym s -> Fmt.string ppf s
  | Bot -> Fmt.string ppf "⊥"
  | Nil -> Fmt.string ppf "NIL"
  | Done -> Fmt.string ppf "done"
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp) vs

let to_string v = Fmt.str "%a" pp v

(* Smart constructors — the only way to build a [t].  The nullary and
   boolean constants are interned once at module init; small ints get a
   lock-free cache in front of the table (they are by far the hottest
   leaf constructor in step functions). *)

let node v = v.node
let unit_ = intern Unit
let vfalse = intern (Bool false)
let vtrue = intern (Bool true)
let bool b = if b then vtrue else vfalse
let bot = intern Bot
let nil = intern Nil
let done_ = intern Done
let sym s = intern (Sym s)
let small_int_min = -16
let small_int_max = 255

let small_ints =
  Array.init
    (small_int_max - small_int_min + 1)
    (fun i -> intern (Int (i + small_int_min)))

let int i =
  if i >= small_int_min && i <= small_int_max then
    Array.unsafe_get small_ints (i - small_int_min)
  else intern (Int i)

let pair (a, b) = intern (Pair (a, b))
let list vs = intern (List vs)

let to_int v =
  match v.node with
  | Int i -> Some i
  | _ -> None

let to_int_exn v =
  match v.node with
  | Int i -> i
  | _ -> invalid_arg (Fmt.str "Value.to_int_exn: %a" pp v)

let to_list_exn v =
  match v.node with
  | List vs -> vs
  | _ -> invalid_arg (Fmt.str "Value.to_list_exn: %a" pp v)

let is_bot v = v == bot
let is_nil v = v == nil

(* Association-list maps encoded as values, used for structured object
   states (e.g. the V[1..n] array of an n-PAC object).  Keys are kept
   sorted (structural order) so that equal maps are equal values. *)
module Assoc = struct
  let empty = list []

  let rec set_sorted k v entries =
    match entries with
    | [] -> [ pair (k, v) ]
    | e :: rest -> (
      match e.node with
      | Pair (k', _) ->
        let c = compare k k' in
        if c < 0 then pair (k, v) :: entries
        else if c = 0 then pair (k, v) :: rest
        else e :: set_sorted k v rest
      | _ -> invalid_arg "Value.Assoc: malformed map")

  let set m k v =
    match m.node with
    | List entries -> list (set_sorted k v entries)
    | _ -> invalid_arg "Value.Assoc.set: not a map"

  let get m k =
    match m.node with
    | List entries ->
      let rec find = function
        | [] -> None
        | e :: rest -> (
          match e.node with
          | Pair (k', v') -> if k == k' then Some v' else find rest
          | _ -> invalid_arg "Value.Assoc: malformed map")
      in
      find entries
    | _ -> invalid_arg "Value.Assoc.get: not a map"

  let get_or m k ~default =
    match get m k with
    | Some v -> v
    | None -> default

  let bindings m =
    match m.node with
    | List entries ->
      List.map
        (fun e ->
          match e.node with
          | Pair (k, v) -> (k, v)
          | _ -> invalid_arg "Value.Assoc: malformed map")
        entries
    | _ -> invalid_arg "Value.Assoc.bindings: not a map"

  let of_bindings bs =
    List.fold_left (fun m (k, v) -> set m k v) empty bs
end

module Set_ = struct
  (* Sets encoded as sorted duplicate-free value lists. *)
  let empty = list []

  let elements s =
    match s.node with
    | List vs -> vs
    | _ -> invalid_arg "Value.Set_.elements: not a set"

  let mem v s = List.exists (fun x -> x == v) (elements s)

  let add v s =
    let rec ins = function
      | [] -> [ v ]
      | x :: rest as all ->
        let c = compare v x in
        if c < 0 then v :: all else if c = 0 then all else x :: ins rest
    in
    list (ins (elements s))

  let cardinal s = List.length (elements s)
  let of_list vs = List.fold_left (fun s v -> add v s) empty vs
end
