open Lbsa_runtime

(* Open-addressing hash table from configurations to node ids — the
   explorer's dedup structure.  Linear probing over power-of-two
   capacity; stored hashes let most probe misses skip [Config.equal]
   entirely, and with hash-consed values the equal that does run is a
   per-element pointer scan, not a tree walk.

   A slot holds only (hash, id): the configuration behind an id is
   looked up through [resolve] (the graph's node store) when a probe's
   stored hash actually matches, so the table never keeps a second
   reference to a configuration the node store already holds.

   The table is sharded by hash prefix: routing takes the high bits of
   the hash, slots the low bits, so probe sequences are
   shard-count-independent.

   Each shard counts its probe traffic ([probes] slot inspections,
   [hash_skips] occupied slots dismissed on stored-hash mismatch alone,
   [equal_confirms] slots where [Config.equal] actually ran) so the
   stats can report how much structural comparison the cached hashes
   avoid. *)

type shard = {
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
  mutable slots : int array;
      (* slot i is [slots.(2i)] = hash, [slots.(2i+1)] = id; id -1 = empty *)
  mutable n_probes : int;
  mutable n_hash_skips : int;
  mutable n_equal_confirms : int;
}

type t = {
  shards : shard array;
  shift : int;  (* hash lsr shift = shard index *)
  resolve : int -> Config.t;
}

type probe_stats = { probes : int; hash_skips : int; equal_confirms : int }

type shard_stat = {
  ss_size : int;
  ss_capacity : int;
  ss_probes : int;
  ss_hash_skips : int;
  ss_equal_confirms : int;
}

(* Hashes are [land max_int]-masked, i.e. they occupy bits 0..61 on a
   64-bit build; [62 - log2 shards] puts the top log2(shards) of those
   bits into the shard index. *)
let hash_bits = Sys.int_size - 1

let empty_slots cap = Array.make (2 * cap) (-1)

let create ?(shards = 1) ~resolve n =
  if shards < 1 || shards > 4096 || shards land (shards - 1) <> 0 then
    invalid_arg "Ctbl.create: shards must be a power of two in [1, 4096]";
  let log2 = ref 0 in
  while 1 lsl !log2 < shards do
    incr log2
  done;
  let per_shard = n / shards in
  let mk () =
    let cap = ref 16 in
    while !cap < per_shard * 2 do
      cap := !cap * 2
    done;
    {
      mask = !cap - 1;
      size = 0;
      slots = empty_slots !cap;
      n_probes = 0;
      n_hash_skips = 0;
      n_equal_confirms = 0;
    }
  in
  {
    shards = Array.init shards (fun _ -> mk ());
    shift = hash_bits - !log2;
    resolve;
  }

let length t = Array.fold_left (fun acc s -> acc + s.size) 0 t.shards

let probe_stats t =
  Array.fold_left
    (fun acc s ->
      {
        probes = acc.probes + s.n_probes;
        hash_skips = acc.hash_skips + s.n_hash_skips;
        equal_confirms = acc.equal_confirms + s.n_equal_confirms;
      })
    { probes = 0; hash_skips = 0; equal_confirms = 0 }
    t.shards

let shard_stats t =
  Array.map
    (fun s ->
      {
        ss_size = s.size;
        ss_capacity = s.mask + 1;
        ss_probes = s.n_probes;
        ss_hash_skips = s.n_hash_skips;
        ss_equal_confirms = s.n_equal_confirms;
      })
    t.shards

let shard_of t hash =
  if hash < 0 then invalid_arg "Ctbl: negative hash";
  t.shards.(hash lsr t.shift)

let rec probe t s key hash i =
  s.n_probes <- s.n_probes + 1;
  let id = s.slots.((2 * i) + 1) in
  if id < 0 then `Empty i
  else if s.slots.(2 * i) <> hash then begin
    s.n_hash_skips <- s.n_hash_skips + 1;
    probe t s key hash ((i + 1) land s.mask)
  end
  else begin
    s.n_equal_confirms <- s.n_equal_confirms + 1;
    if Config.equal (t.resolve id) key then `Found id
    else probe t s key hash ((i + 1) land s.mask)
  end

(* Reinsertion during [grow] goes by stored hash alone (all stored keys
   are distinct), bypassing the counting probe so the stats reflect
   only lookup traffic. *)
let rec probe_empty s i =
  if s.slots.((2 * i) + 1) < 0 then i else probe_empty s ((i + 1) land s.mask)

let grow s =
  let old = s.slots in
  let cap = (s.mask + 1) * 2 in
  s.mask <- cap - 1;
  s.slots <- empty_slots cap;
  for i = 0 to (Array.length old / 2) - 1 do
    let id = old.((2 * i) + 1) in
    if id >= 0 then begin
      let h = old.(2 * i) in
      let j = probe_empty s (h land s.mask) in
      s.slots.(2 * j) <- h;
      s.slots.((2 * j) + 1) <- id
    end
  done

let find_or_add t key ~hash ~if_absent =
  let s = shard_of t hash in
  match probe t s key hash (hash land s.mask) with
  | `Found id -> id
  | `Empty i ->
    let id = if_absent key in
    if id < 0 then invalid_arg "Ctbl.find_or_add: negative id";
    s.slots.(2 * i) <- hash;
    s.slots.((2 * i) + 1) <- id;
    s.size <- s.size + 1;
    (* Load factor under 2/3, per shard: a hot shard grows alone. *)
    if s.size * 3 > (s.mask + 1) * 2 then grow s;
    id

let find_opt t key ~hash =
  let s = shard_of t hash in
  match probe t s key hash (hash land s.mask) with
  | `Found id -> Some id
  | `Empty _ -> None
