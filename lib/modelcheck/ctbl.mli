(** Open-addressing hash table from configurations to node ids: the
    dedup structure of the state-space explorer.  Keys are compared by
    stored full hash first, then [Config.equal], so lookups in a graph
    of hundreds of thousands of states stay O(1) instead of the
    O(log n) structural compares of a [Map.Make(Config)].

    A slot holds only a (hash, id) pair, two ints side by side in one
    flat array; the table keeps no reference to any configuration.
    When a probe's stored hash matches, the slot's id is turned back
    into its configuration through the [resolve] callback for the one
    [Config.equal] it needs.  The explorer resolves through its node
    store: the resident node chunks, or the {!Segstore} for ids that
    have been spilled, so cold entries cost a disk touch only on
    genuine re-encounters and full-hash collisions.

    The table is 2^k independent open-addressing shards routed by the
    high bits of the caller's hash (the 64-stripe intern table in
    [lib/spec/value.ml] is the in-repo template for the idea).  Growth
    is local: a shard that fills rehashes only its own entries, so
    insertion never rehashes the world and the worst-case pause scales
    with 1/2^k of the table.

    Routing uses the {e high} bits of the hash while in-shard slots use
    the low bits, so sharding leaves probe sequences independent of the
    shard count: for any k, the same keys collide within a shard exactly
    as they would in one table.  With [shards = 1] the only overhead
    per lookup is a single shift. *)

open Lbsa_runtime

type t

type probe_stats = {
  probes : int;  (** total slot inspections across all lookups *)
  hash_skips : int;
      (** occupied slots dismissed on stored-hash mismatch alone — each
          one a structural [Config.equal] the cached hashes avoided *)
  equal_confirms : int;
      (** slots where [Config.equal] actually ran, each after one
          [resolve] *)
}

type shard_stat = {
  ss_size : int;  (** entries *)
  ss_capacity : int;
  ss_probes : int;
  ss_hash_skips : int;
  ss_equal_confirms : int;
}

val create : ?shards:int -> resolve:(int -> Config.t) -> int -> t
(** [create ~shards ~resolve n] sizes each shard for about [n/shards]
    expected entries.  [shards] must be a power of two in \[1, 4096\]
    (default 1).  [resolve id] must return (a configuration equal to)
    the one that was inserted with id [id]; it is called once per
    equal-confirm, on ids already in the table. *)

val length : t -> int

val find_or_add :
  t -> Config.t -> hash:int -> if_absent:(Config.t -> int) -> int
(** [find_or_add t c ~hash ~if_absent] returns the id bound to [c],
    inserting [if_absent c] first when [c] is new.  [hash] is passed in
    so callers can hash once per candidate; it must be non-negative
    (the explorer's [Config.hash] always is).  [if_absent] receives the
    key so one registration function can serve the whole build without
    per-lookup closures; it must return a non-negative id that
    [resolve] answers from then on.  It is not called when [c] is
    already present; detect a fresh insert by comparing {!length}
    before and after. *)

val find_opt : t -> Config.t -> hash:int -> int option
(** [hash] must be the value {!find_or_add} was given for this key: the
    table stores whatever hash the caller uses, so one build must hash
    consistently throughout. *)

val probe_stats : t -> probe_stats
(** Probe traffic since {!create}, summed over shards.  Reinsertions
    during internal growth are not counted; the numbers reflect lookups
    only. *)

val shard_stats : t -> shard_stat array
