(** Exhaustive task verification: does a protocol solve a task for every
    schedule and every resolution of object nondeterminism?  Safety is
    checked at every reachable configuration; liveness reduces to
    structural properties of the finite configuration graph. *)

open Lbsa_spec
open Lbsa_runtime

type verdict = {
  ok : bool;
  outcome : Supervisor.outcome;
      (** [Done] = definitive; anything else = partial — the explored
          prefix satisfied safety but exploration was cut short by a
          quota, deadline, cancellation or worker failure.  A safety
          violation found in a partial graph is still a definitive
          failure ([outcome = Done], [ok = false]). *)
  inputs : Value.t array;
  states : int;
  failure : string option;
  stats : Graph.stats option;
      (** exploration statistics of the checked graph, when one was
          built *)
  suspended : Graph.suspended option;
      (** the frozen exploration on partial outcomes; persist with
          {!Checkpoint} and pass back via [~resume] *)
}

val pp_verdict : Format.formatter -> verdict -> unit

val cycle_with_step_of : Graph.t -> comp:int array -> int -> int option
(** A node on a reachable cycle containing a step of the given process —
    a wait-freedom violation witness.  [comp] is the component map of
    {!Graph.scc}, computed once for every process. *)

val any_cycle : Graph.t -> int option

type solo_cache
(** Memoised answers of {!solo_halts}, one table per pid; use one cache
    per [accept] predicate. *)

val solo_cache : unit -> solo_cache

val solo_halts :
  ?cache:solo_cache ->
  ?substrate:Substrate.t ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  pid:int ->
  accept:(Config.status -> bool) ->
  Config.t ->
  bool
(** Do all solo runs of [pid] from this configuration halt it with a
    status satisfying [accept]? Explores every nondeterministic branch;
    detects solo cycles. *)

val solo_halting :
  Graph.t -> pid:int -> accept:(Config.status -> bool) -> bool array
(** {!solo_halts} for every node of a complete graph that keeps every
    step ({!Graph.keeps_every_step}), read off its [pid]-edges. *)

val dac_progress :
  ?substrate:Substrate.t ->
  reduce:Graph.reduction ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  Graph.t ->
  string option
(** n-DAC nontriviality and termination (a)/(b) of a complete graph built
    under [reduce]: the first failure, or [None].  Decided on the graph's
    edges when [reduce] keeps every step, else by walking solo runs off
    the graph (sound on any complete graph). *)

(** {2 Task checkers} *)

(** The tasks a checker decides.  Each fixes a safety judge, applied at
    every reachable configuration, and a liveness condition, checked on
    a complete graph only. *)
type task =
  | Consensus
      (** agreement + validity + no aborts; wait-freedom of every
          process *)
  | Kset of int  (** at most [k] distinct valid decisions; no cycle *)
  | Dac
      (** the four n-DAC properties of Section 4, with the paper's weak
          termination: (a) p-solo runs halt p from every reachable node;
          (b) q-solo runs decide from every reachable node; nontriviality
          via exhaustive p-solo exploration from the initial
          configuration *)

val check :
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:Graph.reduction ->
  ?resume:Graph.suspended ->
  ?shards:int ->
  ?spill:Graph.spill ->
  task:task ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  verdict
(** Build the graph, scan safety at every node, then check liveness.
    [max_states] defaults to [Graph.default_max_states];
    [domains], [budget], [substrate], [reduce], [resume], [shards] and
    [spill] are forwarded to {!Graph.build}.  A sound [reduce] (see {!Canon})
    changes the explored graph but not the verdict's [ok]/[outcome];
    node ids and failure messages may differ; [shards] and [spill]
    change neither the graph nor the verdict (the liveness searches are
    segment-fault-free on an out-of-core graph).  Never raises on
    truncation: a cut-short exploration yields a partial verdict
    (safety checked on the explored prefix, liveness skipped). *)

val check_dac :
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:Graph.reduction ->
  ?resume:Graph.suspended ->
  ?shards:int ->
  ?spill:Graph.spill ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  verdict
(** [check ~task:Dac]. *)

(** {2 Counterexample witnesses} *)

type witness = {
  schedule : int list;
      (** pids to run in order from the initial configuration (replay
          with [Scheduler.fixed]; nondeterministic branches need a
          matching adversary) *)
  violation : string;
  config : Config.t;
}

val pp_witness : Format.formatter -> witness -> unit

(** The outcome of a witness search.  A found {!Witness} is definitive
    even when the exploration was cut short (its violating prefix was
    explored in full).  [No_witness] asserts the {e complete} reachable
    graph holds no violation; when exploration stopped early without a
    hit the search answers {!Search_truncated} instead — treating that
    as "no witness" was a false negative. *)
type witness_search =
  | Witness of witness
  | No_witness
  | Search_truncated of Supervisor.outcome

val find_safety_witness :
  ?max_states:int ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  judge:(Config.t -> string option) ->
  unit ->
  witness_search
(** The first configuration violating [judge], with the shortest
    schedule reaching it.  Always explores unreduced: witness schedules
    must replay concretely, which a symmetry-quotiented graph does not
    guarantee. *)

val witness :
  ?max_states:int ->
  task:task ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  witness_search
(** {!find_safety_witness} with the task's safety judge. *)

(** {2 Input-family sweeps} *)

type family_stats = {
  vectors : int;  (** input vectors in the family *)
  fan_domains : int;  (** domains actually used by the fan-out *)
  total_states : int;  (** sum of [verdict.states] over checked vectors *)
  wall_s : float;
  vectors_per_sec : float;
}

val pp_family_stats : Format.formatter -> family_stats -> unit

val for_all_inputs :
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  (Value.t array -> verdict) ->
  Value.t array list ->
  verdict
(** First failing verdict over a family of input vectors, or the last
    passing one.  The vectors are scanned by
    {!Supervisor.first_hit} on [domains] domains (default 1); when
    [domains > 1], run the per-vector check itself with [~domains:1] to
    avoid oversubscribing cores.  The verdict — including which failing
    vector wins — is that of a sequential sweep, for any domain count.

    An exception escaping the per-vector check is retried in its own
    domain ({!Supervisor.run_shard}); if it keeps failing, the sweep
    returns a [Worker_failed] verdict for that vector, unless a lower
    vector fails.  [budget] is polled before each vector; when it fires,
    the sweep returns a partial verdict naming the first vector not
    checked, unless a checked vector failed. *)

val for_all_inputs_timed :
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  (Value.t array -> verdict) ->
  Value.t array list ->
  verdict * family_stats
(** Same, plus wall-clock/throughput statistics for the whole sweep. *)
