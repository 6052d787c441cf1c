(** Out-of-core segment store: the configurations of cold node-id
    ranges of an exploration, spilled to disk and faulted back in on
    demand.  Edges are not spilled: the graph keeps its packed steps
    resident and re-derives events from the source configuration.

    A segment covers a half-open id range [lo, hi) of the expanded
    prefix; segments are written in increasing id order and never
    overlap, so lookup is a binary search.  A segment file is the magic
    line [LBSA-SEG/4], then one {!Lbsa_util.Codec} section, SEGNODES,
    holding [lo] and the configurations encoded by {!Config_codec}: a
    value table, a vector table holding each distinct object vector
    once, then each configuration as its locals, one vector index and
    its statuses.  Fault-in re-interns every value through the [Value]
    smart constructors, so the id-never-orders invariant survives a
    round trip through disk exactly as it does for checkpoints, and the
    configurations of one decoded segment that name one vector share
    one array.

    A segment is read back two ways, through one checked read (magic,
    section checksum, id range, trailing bytes, the [segstore.read]
    fault site, one backed-off retry, the {!Corrupt} refusal).  Point
    lookups ({!node}: dedup resolves, re-derived edges, witnesses) go
    through a 4-slot cache of whole decoded segments.  A walk over
    every spilled configuration ({!find_map}) bypasses it: it reads
    each segment once, in id order, and decodes it one configuration at
    a time into the caller, so the walk keeps nothing the caller drops.

    Spilled segments are scratch, not durable state.  Each is written
    by one {!Lbsa_util.Rio.write_scratch_file} (site [segstore.write]):
    the whole file in one resilient write, with no tmp file, no rename
    and no fsync.  That is sound because no run reads a segment another
    process wrote: {!create} clears any stale segment files in the
    directory (a resumed run re-spills deterministically from its
    checkpoint), and callers remove the directory with {!clean_dir}
    once a run completes. *)

open Lbsa_runtime

exception Corrupt of string
(** A segment failed validation on fault-in (magic, framing, checksum,
    undecodable payload, or repeated I/O errors).  Spilled segments are
    a cache of data already evicted from RAM, so the store refuses with
    this typed error — callers surface it as a clean partial outcome —
    instead of crashing or returning wrong data. *)

type t

val create : dir:string -> t
(** Creates [dir] if needed and deletes any stale [seg-*.seg] and
    [seg-*.seg.tmp] files in it.  Raises [Failure] if [dir] exists and
    is not a directory. *)

val dir : t -> string

val write_segment : t -> lo:int -> hi:int -> (int -> Config.t) -> unit
(** [write_segment t ~lo ~hi config] spills ids [lo, hi), [config id]
    for each.  Ranges must extend the store: [lo] equals the previous
    segment's [hi] (or 0).  The payload is encoded into a value index
    and buffers the store owns and clears per segment, so one store
    must not be written from two domains at once.  An I/O error (a real
    one or one the [segstore.write] fault plan injects) propagates as
    [Unix.Unix_error], and the partial file is removed. *)

val node : t -> int -> Config.t
(** [node t id] faults in the segment covering [id] (if not cached) and
    returns its re-interned configuration.  Raises [Invalid_argument]
    if no segment covers [id]; raises {!Corrupt} (after one backed-off
    retry for device-level errors) if the segment fails validation. *)

val find_map : t -> (int -> Config.t -> 'a option) -> 'a option
(** The streamed pass: [f id config] for every spilled id in order,
    stopping at the first [Some], which is returned.  Each segment up to
    the hit is read from disk once (one {!faults} each), past the
    cache, and its payload is checked whole before its first
    configuration reaches [f].  Raises {!Corrupt} as {!node} does; an
    undecodable configuration is refused when the walk reaches it. *)

val spilled_upto : t -> int
(** One past the highest spilled node id (0 when empty). *)

val n_segments : t -> int

val spilled_bytes : t -> int
(** Total bytes written across live segment files. *)

val faults : t -> int
(** Segment loads from disk (cache misses and streamed segments),
    cumulative. *)

val corrupt_count : t -> int
(** Fault-ins refused as {!Corrupt}, cumulative. *)

val clean_dir : dir:string -> unit
(** Path-based cleanup for callers that no longer hold the store:
    deletes the [seg-*.seg] and [seg-*.seg.tmp] files in [dir] (nothing
    else) and removes
    the directory if that leaves it empty.  A no-op on a missing
    [dir]. *)
