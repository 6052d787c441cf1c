(** The supervised verification daemon.

    Architecture: one main domain owns the listening socket, all client
    connections and all mutable service state (memo table, in-flight
    bookkeeping, counters).  Each cold job runs {!Api.compute} under
    {!Lbsa_runtime.Supervisor.run_shard} fault isolation on a domain of
    its own, spawned while fewer than [workers] job domains are alive
    and joined once its completion is handled; a job admitted while
    all of them are busy waits in the main domain's queue.  An idle
    daemon, or one serving only cache hits, runs no domain but the main
    one.  Completions cross the domain boundary through a mutex-guarded
    queue plus a self-pipe that wakes the [select] loop — no shared
    mutable caches, no fds in job domains.

    Caching: answers flow memo table → persistent {!Store} → compute.
    Only key-determined outcomes are cached ({!Api.computed.cacheable});
    deadline-cut fuzz campaigns persist their completed-trial prefix so
    a repeat query resumes instead of restarting.  Identical in-flight
    queries are coalesced (single-flight): the duplicate joins the
    running job's waiter list and every waiter gets the one answer.

    Shutdown is a drain: stop accepting, finish and answer every queued
    and in-flight job, then reply to the requester with the final
    counters and exit.

    Graceful degradation: a store that hits device-level errors
    (ENOSPC, EROFS, EIO — real or {!Lbsa_util.Rio}-injected) or a storm
    of consecutive corrupt entries flips the daemon into compute-only
    mode — queries keep being answered from the memo table and the
    job domains, store reads and writes are skipped and counted in
    [st_degraded].  Every [store_probe_s] seconds a real commit is
    probed through the put path; success re-arms the store. *)

type config = {
  socket : string;  (** unix-domain socket path *)
  store_dir : string;  (** persistent store directory *)
  workers : int;  (** the most job domains alive at once (≥ 1) *)
  default_deadline_s : float option;
      (** per-query wall-clock cap when the client sets none *)
  store_probe_s : float;
      (** how often a degraded store is re-probed for recovery *)
  log : bool;  (** chatter on stderr *)
}

type entry = Final of Api.result | Prefix of int
(** The data of a store entry: a cacheable answer, or the completed
    prefix of a deadline-cut fuzz campaign. *)

val entry_codec : entry Lbsa_util.Codec.t

val run : config -> Wire.stats
(** Serve until a [Shutdown] request has been received and the queue has
    drained; returns the final counters.  Raises [Failure] if another
    daemon already listens on [config.socket] (a stale socket file from
    a crash is detected by probing and silently replaced), and
    [Invalid_argument] if [config.workers < 1]. *)
