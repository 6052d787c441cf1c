(** Resilient I/O: the one shim every persistence and wire code path
    goes through for raw reads, writes and atomic file commits.

    Two faces, one module:

    {b Production behavior.}  [really_read]/[really_write] absorb EINTR
    and short transfers (retrying until the full count moved, with
    bounded deterministically-jittered backoff for EAGAIN), and the
    atomic-commit writer implements the full durability discipline:
    write to [path ^ ".tmp"], fsync the file, rename over [path], fsync
    the parent directory.  Without the directory fsync a power loss
    after rename can leave a directory entry pointing at a zero-length
    inode — the classic "committed but empty" torn state.  A scratch
    file that no other process ever reads (a spilled segment) skips
    that discipline: {!write_scratch_file} is one open and one write.

    {b Deterministic fault injection.}  When {!arm}ed, every operation
    consults a fault plan that is a pure function of
    (seed, call-site, per-site call index) — the [--chaos-seed]
    discipline of {!Lbsa_runtime.Supervisor.Chaos} extended to the
    syscall boundary.  Injected EINTR and short transfers are absorbed
    by this module's own retry loops (so they must never change any
    observable result); injected ENOSPC/EIO surface as real
    [Unix.Unix_error] exceptions for the caller's typed failure path.
    Per-class counters record what was injected and absorbed.

    {b Crash points.}  With [LBSA_IO_CRASH=<site>:<n>] in the
    environment, the process SIGKILLs {e itself} at the [n]-th crash
    point reached within [site]'s atomic commits or scratch writes (see
    {!commit} and {!write_scratch_file} for the numbering; an atomic
    commit's point 1 additionally leaves a torn, fsynced prefix of the
    final chunk on disk first).  Because no cleanup code runs after
    SIGKILL, this gives real power-loss semantics to the crash-recovery
    harness in [test/test_crash_recovery.ml]. *)

(** {1 Fault plan} *)

val arm : seed:int -> ?rate_percent:int -> unit -> unit
(** Arm the injection plan (default rate 12%).  Per-site call indices
    reset, so an armed run is a pure function of [seed].  Raises
    [Invalid_argument] if [rate_percent] is outside [0, 100). *)

val disarm : unit -> unit
val armed : unit -> bool

val force : ?times:int -> site:string -> error:Unix.error -> unit -> unit
(** Test hook: make the next [times] (default: unlimited) operations at
    exactly [site] raise [Unix_error (error, _, site)], independent of
    the seeded plan.  Do not force a transient error (EINTR/EAGAIN)
    with unlimited [times] — the retry loops would spin forever. *)

val unforce : unit -> unit

(** {1 Counters} *)

type counters = {
  c_eintr : int;  (** injected EINTR faults *)
  c_short_read : int;  (** injected short reads *)
  c_short_write : int;  (** injected short writes *)
  c_enospc : int;  (** injected ENOSPC faults *)
  c_eio : int;  (** injected EIO faults *)
  c_retries : int;  (** EINTR/EAGAIN absorbed by the retry loops *)
  c_backoffs : int;  (** backoff sleeps taken *)
  c_crash_points : int;  (** crash points passed while a spec was set *)
}

val counters : unit -> counters
val reset_counters : unit -> unit
val pp_counters : Format.formatter -> counters -> unit

(** {1 Fd operations} *)

val really_read : site:string -> Unix.file_descr -> bytes -> int -> int -> unit
(** Read exactly [len] bytes, absorbing EINTR/EAGAIN and short reads.
    Raises [End_of_file] if the peer closes mid-transfer (a clean
    end-of-stream, distinct from an I/O error). *)

val read : site:string -> Unix.file_descr -> bytes -> int -> int -> int
(** One read of at most [len] bytes, for a caller that buffers partial
    input itself (the daemon's select loop): returns the count read, 0
    at end of stream.  The plan applies as in {!really_read}; EINTR is
    retried, and a short read just returns fewer bytes. *)

val really_write :
  site:string -> Unix.file_descr -> bytes -> int -> int -> unit
(** Write exactly [len] bytes, absorbing EINTR/EAGAIN and short
    writes.  Hard errors (ENOSPC, EIO, EPIPE, ...) propagate as
    [Unix.Unix_error]. *)

val inject_read_fault : site:string -> unit
(** Consult the plan at the head of a channel-based read path (where no
    fd-level shim applies): may raise [Unix_error (EIO, _, site)].
    A no-op when nothing is armed or forced. *)

(** {1 Backoff} *)

val backoff_s : site:string -> attempt:int -> float
(** Bounded exponential backoff with deterministic jitter: the delay
    for retry number [attempt] (0-based) at [site] — a pure function of
    (site, attempt, armed seed), in [0.015, 0.64]s. *)

val sleep_backoff : site:string -> attempt:int -> unit

(** {1 Atomic file commit} *)

type writer

val create_writer : site:string -> path:string -> writer
(** Open [path ^ ".tmp"] for a streaming atomic commit. *)

val write_string : writer -> string -> unit
(** Append (buffered; large payloads are flushed through the resilient
    write loop in bounded chunks). *)

val commit : writer -> unit
(** Flush, fsync the file, close, rename over [path], fsync the parent
    directory.  Crash points (per [site], cumulative across commits):
    1 = torn (half the final chunk written and fsynced), 2 = data
    written, 3 = file fsynced, 4 = renamed, 5 = directory fsynced.  On
    a (possibly injected) write error the tmp file is removed and the
    error re-raised — the previously committed [path] is untouched. *)

val abort : writer -> unit
(** Close and remove the tmp file; never raises. *)

val with_atomic_file : site:string -> path:string -> (writer -> unit) -> unit
(** [commit] on normal return, [abort] + re-raise on exception. *)

(** {1 Scratch files} *)

val write_scratch_file : site:string -> path:string -> bytes -> unit
(** Creates or truncates [path] and writes [data] to it in one
    resilient write, for a file no other process ever reads (a spilled
    segment): no tmp file, no fsync, no rename.  The plan is consulted
    once at open (ENOSPC only) and then by the write loop, as for an
    atomic commit whose data goes down in one piece.  Crash points (per
    [site], cumulative): 1 = half the bytes written, 2 = all written.
    On an error, including one from [close], [path] is removed and the
    error re-raised. *)
