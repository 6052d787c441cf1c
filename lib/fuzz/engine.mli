(** The fuzzing engine: random-case campaigns against implementations
    (harness + linearizability oracle, crash faults included via pending
    calls) and against specifications (generator round-trips), with
    counterexample shrinking.  A campaign's trials fan out across
    domains through {!Lbsa_runtime.Supervisor.first_hit}: trial [i]
    draws from [Prng.of_substream ~seed ~index:i], so the reported
    failure is the same for every domain count. *)

open Lbsa_spec
open Lbsa_linearizability

type kind =
  | Violation  (** harness history rejected by the linearizability oracle *)
  | Broken of string  (** spec-level generator round-trip failed *)
  | Crash of string  (** harness or program raised *)

type failure = {
  target : string;
  trial : int;  (** lowest failing trial index — the reproduction handle *)
  seed : int;
  kind : kind;
  case : Fuzz_case.t;
  history : Chistory.t;
  pending : Checker.pending list;
  shrunk : (Fuzz_case.t * Chistory.t) option;
      (** a strictly smaller case re-validated to fail with the same
          [kind]; [None] when shrinking was off, found nothing, or its
          budget/deadline left no genuine (re-validated) shrink *)
}

type report = {
  rtarget : string;
  trials : int;
  completed : int;
      (** every trial below [completed] ran clean — the contiguous
          prefix a resumed campaign skips.  The failing trial on a
          failing run, [trials] on a clean full run. *)
  failure : failure option;
  outcome : Lbsa_runtime.Supervisor.outcome;
      (** [Done] unless the campaign was cut short by its budget or an
          exhausted worker *)
  domains_used : int;
  wall_s : float;
}

type eval = Ok_run | Bad of kind * Chistory.t * Checker.pending list

val dls_sessions : Obj_spec.t -> unit -> Checker.session
(** A domain-local [Checker.session] per calling domain for the given
    spec, so campaign trials fanned across domains each reuse their own
    interning tables.  Outcomes never depend on session state. *)

val eval_impl_case :
  ?session:(unit -> Checker.session) ->
  impl:Lbsa_implement.Implementation.t ->
  Fuzz_case.t ->
  eval
(** [session], when given, must produce sessions for [impl.target]
    (e.g. {!dls_sessions}). *)

val eval_spec_case :
  ?session:(unit -> Checker.session) -> spec:Obj_spec.t -> Fuzz_case.t -> eval
(** [session], when given, must produce sessions for [spec]. *)

val default_shrink_budget : int
(** 400 candidate evaluations. *)

val shrink_case :
  ?budget:int ->
  ?deadline:Lbsa_runtime.Supervisor.Budget.t ->
  eval:(Fuzz_case.t -> eval) ->
  kind:kind ->
  case:Fuzz_case.t ->
  history:Chistory.t ->
  pending:Checker.pending list ->
  unit ->
  Fuzz_case.t * Chistory.t * Checker.pending list * int
(** Greedy first-improvement descent over {!Fuzz_case.shrinks}; a
    candidate is kept only when it fails with the same [kind].  Stops
    after [budget] candidate evaluations (default
    {!default_shrink_budget}) or as soon as [deadline] fires, returning
    the best case found so far plus the number of accepted shrink
    steps.  A step count of 0 means the result is the original case
    (e.g. budget 0): callers must not present it as a shrink, and
    {!fuzz_impl}/{!fuzz_spec} campaigns re-validate the final case and
    record [shrunk = None] when nothing genuinely shrank. *)

val fuzz_impl :
  ?domains:int ->
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?start:int ->
  ?budget:Lbsa_runtime.Supervisor.Budget.t ->
  ?faults:int ->
  ?ops_per_proc:int ->
  trials:int ->
  seed:int ->
  Targets.impl_target ->
  report

val fuzz_spec :
  ?domains:int ->
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?start:int ->
  ?budget:Lbsa_runtime.Supervisor.Budget.t ->
  ?procs:int ->
  ?ops_per_proc:int ->
  trials:int ->
  seed:int ->
  Targets.spec_target ->
  report

(** {2 Campaign checkpoints}

    Fuzz trials are pure functions of [(seed, trial index)], so a
    checkpoint is only the completed-prefix length per target; resuming
    re-runs targets with [~start] and reproduces exactly the trials an
    uninterrupted run would have executed. *)

type checkpoint = { ckpt_seed : int; ckpt_done : (string * int) list }

val checkpoint_of_reports : seed:int -> report list -> checkpoint
val resume_start : checkpoint -> name:string -> int

val checkpoint_codec : checkpoint Lbsa_util.Codec.t

exception Corrupt of string
(** The file carries the fuzz-checkpoint magic but its body fails
    validation (truncation, framing, checksum, an undecodable payload,
    trailing bytes).  CLIs refuse it with exit code 2, like a corrupt
    {!Lbsa_modelcheck.Checkpoint}. *)

val save_checkpoint : file:string -> checkpoint -> unit
(** Atomic, durable write through {!Lbsa_util.Rio.with_atomic_file}:
    the magic line [LBSA-FUZZ-CHECKPOINT/3], then one
    {!Lbsa_util.Codec} section holding {!checkpoint_codec}'s bytes. *)

val load_checkpoint : file:string -> checkpoint
(** Raises [Failure] on a missing or foreign file (including a fuzz
    checkpoint of an older version) and {!Corrupt} on a damaged one. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit
