(** An append-only store in fixed chunks: the node store, the packed
    steps and the offsets of {!Graph.build}, which the finished graph
    keeps as they were filled, and the build's frontier buffers.

    Element [i] lives in chunk [i / chunk_len].  A chunk is allocated
    once and never copied, except the first, which starts small and
    doubles until it is a whole chunk, so a small graph stays small.  A
    store therefore holds at most its length plus one chunk of slots,
    plus its spine (one pointer per chunk), and appending never copies
    more than one chunk. *)

type 'a t

val chunk_len : int
(** 65,536 elements. *)

val create : 'a -> 'a t
(** An empty store.  The element given fills the slots that hold no
    element (allocated but not yet written, cut off, or released), so
    they keep nothing alive. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** [Invalid_argument] outside [0, length); an element below
    {!release_below}'s mark is gone. *)

val push : 'a t -> 'a -> unit

val truncate : 'a t -> int -> unit
(** Cut the store back to its first [n] elements; its chunks stay for
    the elements pushed next.  [n] may not lie below {!release_below}'s
    mark. *)

val release_below : 'a t -> int -> unit
(** [release_below t n] drops the elements below [n]: every chunk that
    lies wholly below [n] is let go, and the slots of the chunk that
    holds [n] are cleared.  The mark only rises, and the length does
    not change. *)

val to_array : 'a t -> 'a array
(** A flat copy of a store that never released anything. *)

val footprint : 'a t -> int
(** Words the store itself holds — its record, its spine and the chunks
    it keeps — not counting what the elements point to.  For a store of
    ints this is [Obj.reachable_words]. *)

val held_from : 'a t -> int
(** The first index of the lowest chunk the store still holds (0 unless
    {!release_below} let chunks go). *)
