(** Resilient-verification supervision: wall-clock budgets, cooperative
    cancellation, domain-worker fault isolation with bounded-backoff
    retry, a structured outcome taxonomy shared by every pipeline stage,
    a deterministic chaos mode that injects artificial worker failures
    to exercise the supervisor itself, and the one ordered first-hit
    scan that fans fuzz trials and input-vector sweeps across domains.

    Everything here preserves the pipeline's determinism discipline: a
    retried shard recomputes a pure function into the same slots, and
    chaos failures are a pure function of (seed, worker key), so
    verdicts — including which failure wins a CAS-min race — are
    identical for any domain count, with or without chaos. *)

(** {2 Cancellation tokens} *)

type token
(** A cooperative cancellation flag, safe to share across domains.
    Workers never observe it directly; budgets poll it at safe points
    (level boundaries, per input vector, per fuzz trial, per harness
    run). *)

val token : unit -> token
val cancel : token -> unit
val cancelled : token -> bool

val install_sigint : token -> unit
(** Route SIGINT to [cancel]: the first ^C requests a graceful stop (the
    pipeline winds down at its next safe point and can write a
    checkpoint); a second ^C exits immediately with status 130. *)

(** {2 Outcomes} *)

(** How a supervised stage ended.  Everything except [Done] is partial:
    the work completed so far is valid, but the full question was not
    decided. *)
type outcome =
  | Done  (** ran to completion; the verdict is definitive *)
  | Truncated  (** a state/trial quota was hit *)
  | Deadline  (** the wall-clock deadline expired *)
  | Cancelled  (** the cancellation token fired (e.g. SIGINT) *)
  | Worker_failed of { worker : int; exn : string; attempts : int }
      (** a domain worker kept failing after bounded retries *)

val is_partial : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val exit_code : ok:bool -> outcome -> int
(** The CLI-wide exit-code policy: 0 = clean pass, 1 = definitive
    failure (unsolvable, counterexample), 2 = partial outcome
    (truncated / deadline / cancelled / worker failure).  Usage errors
    are 3, by convention, at the CLI layer. *)

(** {2 Budgets} *)

module Budget : sig
  type t
  (** A wall-clock deadline and/or a cancellation token.  Quotas on
      states and trials stay where they live today ([max_states],
      [trials]) — a budget adds the time/cancellation axes that no
      counter can express. *)

  val unlimited : t

  val make : ?deadline_s:float -> ?token:token -> unit -> t
  (** [deadline_s] is relative to the call ([0.] is already expired —
      handy for forcing a checkpoint at the first safe point). *)

  val stop : t -> outcome option
  (** [None] = keep going; [Some Cancelled] or [Some Deadline]
      otherwise.  Cancellation wins over the deadline.  Cheap enough to
      poll per trial / per frontier level. *)
end

(** {2 Deterministic chaos} *)

module Chaos : sig
  exception Injected of int
  (** Raised inside a shard body on an injected failure; the payload is
      the worker key. *)

  val arm : seed:int -> ?rate_percent:int -> unit -> unit
  (** Globally arm chaos: every {!run_shard} whose (seed, worker-key)
      substream draws below [rate_percent] (default 50) fails on its
      FIRST attempt only; the retry always succeeds.  The plan is a pure
      function of the seed and the key, so armed runs produce results
      identical to unarmed ones — that equality is the self-test. *)

  val disarm : unit -> unit
  val armed : unit -> bool
end

val run_shard :
  ?attempts:int ->
  ?backoff_s:float ->
  worker:int ->
  (unit -> 'a) ->
  ('a, string * int) result
(** Run one worker body with fault isolation: any exception is caught
    and the body retried up to [attempts] times (default 3) with
    exponential backoff starting at [backoff_s] (default 1ms).
    [Error (exn, attempts)] after the last attempt.  The body must be
    pure or idempotent (re-writing the same disjoint slots), so a retry
    cannot change the result — that is what keeps verdicts independent
    of the domain count even when workers fail. *)

(** {2 Domains} *)

val default_domains : unit -> int
(** The domain count of a caller that names none: the machine's
    recommended count, capped at 8, probed once per process. *)

val spawn_join : int -> (int -> 'a) -> 'a list
(** [spawn_join d work] runs [work 0] in the calling domain and
    [work 1], …, [work (d - 1)] on [d - 1] spawned domains, and returns
    the results in worker order once every domain has been joined
    ([d = 1] spawns nothing).  Joining publishes the workers' writes.
    [work] must not raise (run its body under {!run_shard}): an
    exception would leave the later domains unjoined. *)

(** {2 Ordered first-hit scan} *)

type 'a scan = {
  hit : (int * 'a) option;
      (** the lowest index whose body returned [Some], if no index below
          it exhausted its retries (after a budget stop: the lowest of
          the indices that ran) *)
  completed : int;
      (** the lowest index that hit, exhausted its retries or met a
          budget stop; [hi] if there was none.  Every index from [lo]
          below [completed] ran and returned [None]: the prefix a
          resumed scan may skip. *)
  outcome : outcome;
      (** what happened at [completed]: [Done] for a hit or a full scan,
          [Worker_failed {worker = completed; _}] for exhausted
          retries, the budget's outcome for a stop *)
  domains_used : int;
}

val first_hit :
  ?domains:int ->
  ?budget:Budget.t ->
  lo:int ->
  hi:int ->
  (int -> 'a option) ->
  'a scan
(** Scan the indices from [lo] below [hi] for the lowest one whose
    body returns [Some], on [domains] domains (default
    {!default_domains}; never more than [hi - lo]).  Workers claim indices in ascending order
    from one shared counter; each index runs under
    [run_shard ~worker:index], and [budget] is polled before each one.
    A hit and an index whose retries ran out are both events: they
    compete in one CAS-min, and no index at or above the lowest event
    is claimed.

    The body must be a pure function of its index (a retry, or another
    domain count, must give the same answer).  Then, unless the budget
    stops the scan, [hit], [completed] and [outcome] are those of a
    sequential scan, for every domain count, armed with {!Chaos} or not.
    A hit found above a budget stop is still reported — a failure that
    was found is real — and [completed] then sits at the stop. *)
