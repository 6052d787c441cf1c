(** The universal value type of the simulation universe, hash-consed.

    Proposal values, object responses, object states and protocol local
    states are all values of this single comparable, hashable tree type.
    This is what makes whole configurations comparable and therefore
    memoizable by the model checker.

    Values are {e hash-consed}: every [t] is interned in a global,
    domain-safe table at construction, so structurally equal values are
    physically equal.  [equal] is [(==)], [hash] is a field read of the
    cached full-tree structural hash, and [compare] short-circuits on
    identity before falling back to the structural order (which is
    preserved exactly — the sorted [Assoc]/[Set_] encodings and golden
    traces depend on it).

    {b The id-never-orders invariant.}  [id] is unique per structurally
    distinct value but {e allocation-order-dependent}: two runs that
    construct the same values in different orders assign different ids.
    Ids may be used for identity tests and as {e internal} memo/table
    keys, but must never leak into hashes, node ids, orderings, or any
    other output that is compared across runs.  [hash] and [compare] are
    purely structural for exactly this reason. *)

type t = private { node : node; h : int; id : int }
(** [node] is the tree shape; [h] the cached structural hash (equal to
    [hash] of an equal tree in any process, any run); [id] the intern id
    (unique within a run, {e not} stable across runs — see above). *)

and node =
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string
  | Bot  (** the special value ⊥ returned by upset/exhausted objects *)
  | Nil  (** the NIL of the paper's sequential specifications *)
  | Done  (** the [done] response of PAC propose operations *)
  | Pair of t * t
  | List of t list

val node : t -> node

val compare : t -> t -> int
(** Total structural order, identical to the pre-hash-consing order.
    Short-circuits on physical (= id) equality, then falls back to the
    structural ladder; never consults [id] for ordering. *)

val equal : t -> t -> bool
(** Physical equality — sound and complete because values are interned. *)

val hash : t -> int
(** O(1): returns the cached structural hash.  Every leaf of the tree
    contributed at construction time, so values differing arbitrarily
    deep hash differently with high probability (unlike [Hashtbl.hash],
    which truncates). *)

val hash_fold : int -> t -> int
(** [hash_fold acc v] mixes [v]'s cached structural hash into the
    accumulator — the O(1) building block for hashing aggregates of
    values (e.g. whole configurations). *)

val hash_combine : int -> int -> int
(** The FNV-style mixing step used by [hash_fold], for callers that fold
    non-[Value] components (tags, statuses) into the same stream. *)

val hash_array : int -> t array -> int
(** [hash_array acc a] is [Array.fold_left hash_fold acc a], bit for
    bit, as one loop. *)

val equal_array : t array -> t array -> bool
(** Equal lengths and [equal] elements; physically equal arrays
    short-circuit. *)

module Array_tbl : Hashtbl.S with type key = t array
(** Hash tables keyed on value arrays by their elements ({!equal_array},
    [hash_array 0]): equal arrays are one key, however many copies of
    it there are. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Smart constructors — the only way to obtain a [t].  Each interns its
    result, so re-constructing an existing value returns the original
    (physically equal) representative. *)

val unit_ : t
val bool : bool -> t
val int : int -> t
val sym : string -> t
val bot : t
val nil : t
val done_ : t

val pair : t * t -> t
(** Tupled so construction sites read like the former [Pair (a, b)]. *)

val list : t list -> t

val to_int : t -> int option
val to_int_exn : t -> int
val to_list_exn : t -> t list
val is_bot : t -> bool
val is_nil : t -> bool

(** Finite maps encoded as values (sorted association lists), used for
    structured object states such as the V[1..n] array of an n-PAC. *)
module Assoc : sig
  val empty : t
  val set : t -> t -> t -> t
  val get : t -> t -> t option
  val get_or : t -> t -> default:t -> t
  val bindings : t -> (t * t) list
  val of_bindings : (t * t) list -> t
end

(** Finite sets encoded as values (sorted duplicate-free lists), used for
    e.g. the STATE component of the strong 2-SA object. *)
module Set_ : sig
  val empty : t
  val mem : t -> t -> bool
  val add : t -> t -> t
  val cardinal : t -> int
  val elements : t -> t list
  val of_list : t list -> t
end

type intern_stats = {
  hits : int;  (** constructions that found an existing representative *)
  misses : int;  (** constructions that allocated a new representative *)
  size : int;  (** live distinct values in the intern table *)
  stripes : int;  (** number of lock stripes *)
}
(** Cumulative counters of the global intern table, for the bench
    harness.  Counters are summed under the stripe locks, so the
    snapshot is consistent. *)

val intern_stats : unit -> intern_stats
