(** Out-of-core segment store: cold node-id ranges of an exploration
    (their configurations and their CSR edge slice) spilled to disk and
    faulted back in on demand.

    A segment covers a half-open id range [lo, hi) of the expanded
    prefix together with its edge-index range [elo, ehi); segments are
    written in increasing id order and never overlap, so lookup is a
    binary search.  A segment file is the magic line [LBSA-SEG/2], then
    two {!Lbsa_util.Codec} sections: SEGNODES holds [lo] and the
    configurations, SEGEDGES holds [elo] and the steps, both encoded by
    {!Config_codec}.  Fault-in re-interns every value through the
    [Value] smart constructors, so the id-never-orders invariant
    survives a round trip through disk exactly as it does for
    checkpoints.

    Spilled segments are scratch, not durable state: {!create} clears
    any stale [seg-*.seg] files in the directory (a resumed run
    re-spills deterministically from its checkpoint), and callers
    remove the directory with {!remove_all} once a run completes. *)

open Lbsa_runtime

exception Corrupt of string
(** A segment failed validation on fault-in (magic, framing, checksum,
    undecodable payload, or repeated I/O errors).  Spilled segments are
    a cache of data already evicted from RAM, so the store refuses with
    this typed error — callers surface it as a clean partial outcome —
    instead of crashing or returning wrong data. *)

type t

val create : dir:string -> t
(** Creates [dir] if needed and deletes any stale [seg-*.seg] files in
    it.  Raises [Failure] if [dir] exists and is not a directory. *)

val dir : t -> string

val write_segment :
  t ->
  lo:int ->
  hi:int ->
  elo:int ->
  ehi:int ->
  configs:Config.t array ->
  steps:(int * Config.event * int) array ->
  unit
(** Spills ids [lo, hi) (configs, in id order) and their out-edge slice
    [elo, ehi) (steps, in CSR order).  Ranges must extend the store:
    [lo] equals the previous segment's [hi] (or 0). *)

val node : t -> int -> Config.t
(** [node t id] faults in the segment covering [id] (if not cached) and
    returns its re-interned configuration.  Raises [Invalid_argument]
    if no segment covers [id]; raises {!Corrupt} (after one backed-off
    retry for device-level errors) if the segment fails validation. *)

val step : t -> int -> int * Config.event * int
(** [step t i] returns the [(pid, event, target)] of global edge index
    [i], faulting in the covering segment.  Raises [Invalid_argument]
    if no segment covers [i]; raises {!Corrupt} like {!node}. *)

val spilled_upto : t -> int
(** One past the highest spilled node id (0 when empty). *)

val n_segments : t -> int

val spilled_bytes : t -> int
(** Total bytes written across live segment files. *)

val faults : t -> int
(** Segment loads from disk (cache misses), cumulative. *)

val corrupt_count : t -> int
(** Fault-ins refused as {!Corrupt}, cumulative. *)

val remove_all : t -> unit
(** Deletes every segment file this store wrote and removes the
    directory if that leaves it empty.  The store is unusable after. *)

val clean_dir : dir:string -> unit
(** Path-based cleanup for callers that no longer hold the store:
    deletes the [seg-*.seg] files in [dir] (nothing else) and removes
    the directory if that leaves it empty.  A no-op on a missing
    [dir]. *)
