(** The verification-service API: a pure-data query language, a
    canonical content-address per query, the task table, and the cold
    compute path.

    Every front-end — the unix-socket daemon in {!Daemon}, the CLI's
    [lbsa query], later HTTP or batch-file backends — speaks this module
    and nothing lower: a query is plain data (no [Value.t], no intern
    ids), its {!canonical} preimage pins everything the answer depends
    on, and {!compute} answers it by running the verification pipeline.

    The cache-correctness contract: [compute q] is a pure function of
    [canonical q] whenever the returned {!computed.cacheable} is true.
    That is what makes content-addressed memoization sound — and why the
    reduction mode, input vector and state quota are all part of the
    preimage (the original [lbsa fingerprint] omitted them; two
    semantically different queries could share a key). *)

open Lbsa_spec
open Lbsa_runtime
open Lbsa_modelcheck

type reduce_mode = [ `None | `Sym | `Sym_sleep ]

type task =
  | Dac of { n : int }
  | Consensus of { m : int }
  | Kset of { m : int; k : int }
  | Candidate of { name : string }
  | Vc of { n : int }  (** message-passing view change (livelock fixture) *)
  | Bcast of { n : int }  (** message-passing broadcast (live control) *)

type question = Solve | Valence | Live

type query =
  | Verify of {
      task : task;
      question : question;
      inputs : int list;  (** full input vector, one int per process *)
      max_states : int;
      reduce : reduce_mode;
      substrate : string;
          (** execution-substrate name ("shm", "mp", "mp+byz:<f>");
              graph-changing, hence part of the canonical preimage *)
    }
  | Fuzz of { target : string; trials : int; procs : int; ops : int; seed : int }
      (** a spec-level fuzz campaign against a registry target
          ([Targets.spec_target] syntax); trials are pure functions of
          [(seed, index)], so completed prefixes are reusable *)

type verify_payload = {
  v_ok : bool;
  v_outcome : string;
  v_partial : bool;
  v_inputs : int list;
  v_states : int;
  v_failure : string option;
}

type valence_payload = {
  l_nodes : int;
  l_edges : int;
  l_truncated : bool;  (** the [max_states] quota fired (key-determined) *)
  l_partial : bool;  (** a budget cut the build (not key-determined) *)
  l_bivalent : int;
  l_univalent : int;
  l_undecided : int;
  l_initial : string;
}

type fuzz_payload = {
  f_target : string;
  f_trials : int;
  f_completed : int;
  f_partial : bool;
  f_failure : string option;
  f_resumed_from : int;
      (** trials skipped thanks to a cached prefix; metadata only —
          {!render} excludes it, so resumed output equals cold output *)
}

type live_payload = {
  lv_live : bool;
  lv_nodes : int;
  lv_sccs : int;
  lv_fair : int;  (** fair (livelock-supporting) SCC count *)
  lv_truncated : bool;  (** the [max_states] quota fired (key-determined) *)
  lv_partial : bool;  (** a budget cut the build (not key-determined) *)
  lv_prefix : int;  (** shrunk lasso prefix length; 0 when live *)
  lv_cycle : int;  (** shrunk lasso cycle length; 0 when live *)
  lv_witness : string option;
      (** the shrunk lasso rendered as execution traces; deterministic
          for a given query (single-domain build, greedy shrink) *)
}

type result =
  | Verdict of verify_payload
  | Valences of valence_payload
  | Fuzz_report of fuzz_payload
  | Liveness_report of live_payload

(** {2 Canonical fingerprint} *)

val canonical : query -> string
(** The full preimage: task, question, inputs, [max_states], reduction
    mode (or fuzz target/trials/procs/ops/seed).  Cross-process stable
    by construction — plain data in, deterministic formatting out. *)

val key : query -> string
(** 16-hex-digit FNV-1a digest of {!canonical} — the store filename.
    Consumers must verify the stored preimage against [canonical q] on
    every read; the digest routes, the preimage decides. *)

(** {2 Encoders}: the payloads of {!Wire} frames and store entries. *)

val query_codec : query Lbsa_util.Codec.t
val result_codec : result Lbsa_util.Codec.t

val reduce_name : reduce_mode -> string
val task_label : task -> string
val question_label : question -> string

val mp_task : task -> bool
(** Whether the task runs on the message-passing substrate ({!Vc},
    {!Bcast}). *)

val default_substrate : task -> string
(** "mp" for message-passing tasks, "shm" otherwise. *)

(** {2 The task table}

    The one place a task becomes a protocol and a verdict.  {!compute}
    and the CLI's [check], [solve], [valence], [explore] and
    [fingerprint] all resolve tasks here.  Every function below raises
    [Invalid_argument] with a one-line reason on a task it cannot
    resolve: an out-of-range size ("task dac:1 needs n >= 2", or
    {!too_many_processes}), an unknown candidate, a wrong-arity input
    vector or a substrate of the other family. *)

type instance = {
  machine : Machine.t;
  specs : Obj_spec.t array;
  procs : int;
  flavor : Solvability.task;  (** the checker that decides the task *)
  canon : Canon.t;
      (** certified symmetry group; [Canon.identity] when none is *)
  frozen : (int -> Value.t -> bool) option;
      (** objects certified permanently inert, for [sym+sleep] *)
}

val too_many_processes : int -> string
(** The refusal of a task with more processes than
    {!Graph.max_processes}: ["257 processes, but the explorer names at
    most 256"]. *)

val instance : ?byz:int -> task -> instance
(** The task's protocol.  [byz] is the Byzantine budget of an mp
    substrate (see {!substrate}); shared-memory tasks ignore it. *)

val default_inputs : task -> int list
(** The task's canonical input vector. *)

val input_vector : ?inputs:int list -> task -> Value.t array
(** [inputs] (default {!default_inputs}), checked against the task's
    arity ("task dac:3 expects 3 inputs, got 2"). *)

val family : instance -> Value.t array list
(** The input vectors [check] sweeps: every binary vector for consensus
    and DAC, the one distinct-inputs vector for k-set agreement. *)

val reduction : instance -> reduce_mode -> Graph.reduction
(** The explorer reduction a mode implies for this protocol. *)

val substrate : task -> string -> Substrate.t * int
(** The named substrate ("shm", "mp", "mp+byz:<f>") and its Byzantine
    budget.  Refuses an unknown name, and a substrate of the other
    family: message-passing tasks run on mp, all others on shm. *)

val validate : query -> unit
(** The cheap refusals of {!compute} — a size out of range, an unknown
    candidate, a wrong-arity input vector, a bad substrate name — in the
    order {!compute} raises them, without building a protocol.  A fuzz
    query passes. *)

val check :
  instance ->
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:Graph.reduction ->
  ?resume:Graph.suspended ->
  ?shards:int ->
  ?spill:Graph.spill ->
  inputs:Value.t array ->
  unit ->
  Solvability.verdict
(** {!Solvability.check} with the instance's protocol and checker. *)

val witness :
  instance ->
  ?max_states:int ->
  inputs:Value.t array ->
  unit ->
  Solvability.witness_search
(** {!Solvability.witness} with the instance's protocol and checker. *)

(** {2 Cold compute} *)

type computed = {
  res : result;
  cacheable : bool;
      (** the result is a pure function of the canonical key: [Done]
          and [Truncated] outcomes qualify ([max_states] is in the
          key); deadline / cancellation / worker failures do not *)
  fuzz_prefix : int option;
      (** on a deadline-cut clean fuzz campaign: the completed-trial
          prefix worth persisting for resumption *)
}

val compute : ?budget:Supervisor.Budget.t -> ?start:int -> query -> computed
(** Run the query.  [budget] bounds wall clock and carries the
    cancellation token ({!Supervisor.Budget}); [start] (fuzz only)
    resumes from a completed-trial prefix.  The explorer and fuzz
    fan-out are pinned to one domain — the service's worker pool is the
    parallelism layer.  Raises [Invalid_argument] on any task the task
    table refuses, or an unknown fuzz target. *)

(** {2 Rendering} *)

val render : result -> string
(** The canonical one-line form: what [lbsa query] prints and what the
    test battery byte-compares across cold, warm and cross-restart
    answers. *)

val exit_code : result -> int
(** The CLI-wide 0/1/2 policy applied to a result. *)
