open Lbsa_runtime

(* Open-addressing hash table from configurations to node ids — the
   explorer's dedup structure.  Linear probing over power-of-two
   capacity; stored hashes let most probe misses skip [Config.equal]
   entirely, and with hash-consed values the equal that does run is a
   per-element pointer scan, not a tree walk.

   The table is sharded by hash prefix: routing takes the high bits of
   the hash, slots the low bits, so probe sequences are
   shard-count-independent.  A slot can be *frozen*: the key field
   holds the [frozen_key] sentinel while hash and id stay resident, and
   the configuration is fetched through [resolve] only when a probe's
   stored hash actually matches.

   Each shard counts its probe traffic ([probes] slot inspections,
   [hash_skips] occupied slots dismissed on stored-hash mismatch alone,
   [equal_confirms] slots where [Config.equal] actually ran) so the
   stats can report how much structural comparison the cached hashes
   avoid. *)

(* Both sentinels are compared with [==] only (never [Config.equal]),
   so they must be physically distinct — from each other and from every
   real configuration.  Structurally equal constant records are NOT
   enough: the compiler coalesces equal structured constants (and every
   [[||]] is the one shared atom), which once made [frozen_key == dummy]
   and silently emptied every frozen slot.  Distinct field shapes keep
   the two blocks distinct under any constant sharing; no real
   configuration matches either shape ([locals] always has one slot per
   process, [status] here disagrees with it). *)
let dummy : Config.t = { locals = [||]; objects = [||]; status = [||] }

let frozen_key : Config.t =
  { locals = [||]; objects = [||]; status = [| Config.Aborted |] }

type shard = {
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;  (* entries, resident + frozen *)
  mutable n_frozen : int;
  mutable keys : Config.t array;
  mutable hashes : int array;
  mutable ids : int array;
  mutable n_probes : int;
  mutable n_hash_skips : int;
  mutable n_equal_confirms : int;
  mutable n_faults : int;
}

type t = {
  shards : shard array;
  shift : int;  (* hash lsr shift = shard index *)
  resolve : int -> Config.t;
}

type probe_stats = { probes : int; hash_skips : int; equal_confirms : int }

type shard_stat = {
  ss_size : int;
  ss_frozen : int;
  ss_capacity : int;
  ss_probes : int;
  ss_hash_skips : int;
  ss_equal_confirms : int;
  ss_faults : int;
}

(* Hashes are [land max_int]-masked, i.e. they occupy bits 0..61 on a
   64-bit build; [62 - log2 shards] puts the top log2(shards) of those
   bits into the shard index. *)
let hash_bits = Sys.int_size - 1

let no_resolve _ =
  invalid_arg "Ctbl: freeze_below requires a resolve callback"

let create ?(shards = 1) ?(resolve = no_resolve) n =
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
      n_frozen = 0;
      keys = Array.make !cap dummy;
      hashes = Array.make !cap 0;
      ids = Array.make !cap (-1);
      n_probes = 0;
      n_hash_skips = 0;
      n_equal_confirms = 0;
      n_faults = 0;
    }
  in
  {
    shards = Array.init shards (fun _ -> mk ());
    shift = hash_bits - !log2;
    resolve;
  }

let n_shards t = Array.length t.shards
let length t = Array.fold_left (fun acc s -> acc + s.size) 0 t.shards
let frozen t = Array.fold_left (fun acc s -> acc + s.n_frozen) 0 t.shards
let faults t = Array.fold_left (fun acc s -> acc + s.n_faults) 0 t.shards

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
        ss_frozen = s.n_frozen;
        ss_capacity = s.mask + 1;
        ss_probes = s.n_probes;
        ss_hash_skips = s.n_hash_skips;
        ss_equal_confirms = s.n_equal_confirms;
        ss_faults = s.n_faults;
      })
    t.shards

let shard_of t hash =
  if hash < 0 then invalid_arg "Ctbl: negative hash";
  t.shards.(hash lsr t.shift)

let rec probe t s key hash i =
  s.n_probes <- s.n_probes + 1;
  let k = s.keys.(i) in
  if k == dummy then `Empty i
  else if s.hashes.(i) <> hash then begin
    s.n_hash_skips <- s.n_hash_skips + 1;
    probe t s key hash ((i + 1) land s.mask)
  end
  else begin
    s.n_equal_confirms <- s.n_equal_confirms + 1;
    let k =
      if k == frozen_key then begin
        s.n_faults <- s.n_faults + 1;
        t.resolve s.ids.(i)
      end
      else k
    in
    if Config.equal k key then `Found i
    else probe t s key hash ((i + 1) land s.mask)
  end

(* Reinsertion during [grow] goes by stored hash alone (all stored keys
   are distinct, frozen or not), bypassing the counting probe so the
   stats reflect only lookup traffic. *)
let rec probe_empty s i =
  if s.keys.(i) == dummy then i else probe_empty s ((i + 1) land s.mask)

let grow s =
  let old_keys = s.keys and old_hashes = s.hashes and old_ids = s.ids in
  let cap = (s.mask + 1) * 2 in
  s.mask <- cap - 1;
  s.keys <- Array.make cap dummy;
  s.hashes <- Array.make cap 0;
  s.ids <- Array.make cap (-1);
  Array.iteri
    (fun i k ->
      if k != dummy then begin
        let h = old_hashes.(i) in
        let j = probe_empty s (h land s.mask) in
        s.keys.(j) <- k;
        s.hashes.(j) <- h;
        s.ids.(j) <- old_ids.(i)
      end)
    old_keys

let find_or_add t key ~hash ~if_absent =
  let s = shard_of t hash in
  match probe t s key hash (hash land s.mask) with
  | `Found i -> s.ids.(i)
  | `Empty i ->
    let id = if_absent key in
    s.keys.(i) <- key;
    s.hashes.(i) <- hash;
    s.ids.(i) <- id;
    s.size <- s.size + 1;
    (* Load factor under 2/3, per shard: a hot shard grows alone. *)
    if s.size * 3 > (s.mask + 1) * 2 then grow s;
    id

let find_opt t key ~hash =
  let s = shard_of t hash in
  match probe t s key hash (hash land s.mask) with
  | `Found i -> Some s.ids.(i)
  | `Empty _ -> None

let freeze_below t ~id_limit =
  let newly = ref 0 in
  Array.iter
    (fun s ->
      let keys = s.keys in
      for i = 0 to s.mask do
        let k = keys.(i) in
        if k != dummy && k != frozen_key && s.ids.(i) < id_limit then begin
          keys.(i) <- frozen_key;
          s.n_frozen <- s.n_frozen + 1;
          incr newly
        end
      done)
    t.shards;
  !newly
