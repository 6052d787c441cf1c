(** The persistent content-addressed memo store: one file per entry,
    named by the query key's hex digest, holding the full canonical
    preimage next to the payload.  An entry is the magic line
    [LBSA-STORE/2], then one {!Lbsa_util.Codec} section whose payload
    is the pair (canonical, data).

    Correctness policy: a corrupt, truncated, tampered or colliding
    entry is detected on read, counted, deleted and reported as a miss —
    the service recomputes; it never serves a wrong answer.  An entry of
    the retired version [LBSA-STORE/1] is deleted and reported as a
    plain miss, without counting as corrupt.  The store itself is
    payload-agnostic (bytes in, bytes out); {!Daemon} layers its entry
    encoding on top. *)

type t

val open_ : dir:string -> t
(** Create or open the store directory.  Raises [Failure] if [dir]
    exists and is not a directory. *)

val dir : t -> string

val max_payload : int
(** The largest entry payload ([canonical] and [data] with their
    lengths) {!put} will persist and {!get} will read (8 MB, half the
    wire layer's frame cap).  Entries are verdict+stats summaries a
    few hundred bytes long, so the cap is pure armour: a payload that
    somehow embedded graph bulk (a 10^7-state exploration answer) would
    otherwise be persisted only to die as a frame error on every later
    cache hit. *)

val put :
  t -> key:string -> canonical:string -> data:string -> (unit, string) result
(** Atomically write the entry for [key] with the full {!Lbsa_util.Rio}
    durability discipline (tmp, fsync file, rename, fsync directory).
    A body over {!max_payload} is refused — nothing is written,
    {!oversized_count} is bumped, and the call still returns [Ok ()]
    (a policy refusal, not a store failure).  [Error msg] means the
    write itself failed (ENOSPC, EROFS, EIO, ...): nothing torn is left
    behind, {!io_error_count} is bumped, and the daemon uses this to
    flip into compute-only degraded mode. *)

val probe : t -> (unit, string) result
(** Commit and remove a throwaway entry through the exact {!put} path —
    the degraded-mode re-probe.  Does not perturb {!entries} or the
    put counter. *)

val get : t -> key:string -> canonical:string -> string option
(** The payload stored for [key], provided the entry validates (magic,
    size cap, checksum, no trailing bytes) and its stored preimage
    equals [canonical].  A validation defect deletes the entry, bumps
    {!corrupt_count} and yields [None]; a retired-version entry is
    deleted and yields [None] without counting;
    a device-level read error ([Unix_error], retried once with backoff)
    keeps the entry, bumps {!io_error_count} and yields [None]. *)

val corrupt_count : t -> int
(** Entries discarded as corrupt/truncated/colliding since [open_]. *)

val oversized_count : t -> int
(** Writes refused by the {!max_payload} guard since [open_]. *)

val io_error_count : t -> int
(** Device-level put/get failures (ENOSPC, EROFS, EIO, ...) since
    [open_] — the daemon's degradation signal. *)

val entries : t -> string list
(** All entry keys currently on disk, sorted (for tests and tooling). *)

val path : t -> key:string -> string
(** The entry file a key maps to (for fault-injection tests). *)
