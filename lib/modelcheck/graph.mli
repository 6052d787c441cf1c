(** The reachable configuration graph of a protocol: all configurations
    reachable from the initial one under every scheduler choice and every
    nondeterministic object response — the object the paper's proofs
    quantify over, built explicitly for small instances.

    The explorer is a level-synchronous BFS with an open-addressing
    dedup table over the full element-wise [Config.hash].  Each level is
    an ordered pipeline of 64-node blocks: domains expand the blocks in
    parallel, and the calling domain merges each one into the dedup
    table in frontier order as soon as the blocks before it are merged.
    The graph — node ids, edge order and truncation point — is the same
    for any domain count.

    The graph stores its edges once, as packed (target, pid) steps in
    CSR order.  An edge's event is not stored: {!out_edges} re-derives
    it from the source node by running the successor function the
    build used, and checks the result against the stored steps.  Nodes,
    steps and offsets are append-only {!Chunks} stores, filled without
    copying what they hold and kept by the finished graph as built. *)

open Lbsa_runtime

type edge = { pid : int; event : Config.event; target : int }

(** An opt-in reduction of the explored graph (see DESIGN.md,
    "State-space reduction", for the soundness argument):

    - [canon]: quotient states by a process-symmetry group — every
      successor is replaced by its [Canon.canonical] orbit
      representative before dedup, so the explorer visits one
      configuration per orbit;
    - [sleep]: commit-step (ample-set) pruning — poised decide/abort
      steps, which are invisible to every other process, are flushed
      directly into each successor ([Canon.flush_commits]), so
      pre-decide interleavings never become distinct nodes; and when a
      configuration has a running process poised on an operation on an
      object [frozen] certifies permanently inert, only that process is
      expanded.

    [rname] is the user-facing mode name ("none" / "sym" /
    "sym+sleep"); it is recorded in stats and checkpoints, and a
    resumed build must use the same mode.  Node ids and failure
    messages may differ across modes; solvability and valence verdicts
    do not. *)
type reduction = {
  rname : string;
  canon : Canon.t;
  sleep : bool;
  frozen : (int -> Lbsa_spec.Value.t -> bool) option;
}

val no_reduction : reduction
(** ["none"]: identity group, no pruning — the exact seed graph. *)

val keeps_every_step : reduction -> bool
(** No sleep pruning and the identity group: the graph has an edge for
    every step of every running process ({!no_reduction} does). *)

(** Reduction telemetry, part of {!stats}. *)
type reduction_stats = {
  rmode : string;
  group_order : int;
  canonized : int;
      (** successors replaced by a smaller orbit representative *)
  ample_nodes : int;
      (** expanded nodes where commit-step pruning fired — the ample
          rule restricted expansion to one process, or a successor had
          poised decide/aborts flushed into it *)
  ample_pruned : int;
      (** steps short-circuited at those nodes: sibling expansions
          suppressed by the ample rule plus decide/aborts flushed into
          successors *)
}

(** Out-of-core spilling, opt-in per build: once more than
    [spill_threshold] expanded (cold) states are resident, the oldest
    ones' configurations move to disk segments under [spill_dir] (see
    {!Segstore}; the packed steps stay resident).  The dedup table holds
    only (hash, id) pairs and resolves ids through the node store, so a
    spilled configuration is faulted back only when a probe's full hash
    matches its id.  Spilling
    happens only at level boundaries: it never races expansion workers,
    never touches the live frontier, and leaves the produced graph
    bit-identical to an unspilled build's. *)
type spill = { spill_dir : string; spill_threshold : int }

(** Out-of-core telemetry, part of {!stats}; all zeros without [spill]. *)
type spill_stats = {
  sp_segments : int;  (** segments written *)
  sp_bytes : int;  (** bytes across live segment files *)
  sp_seg_faults : int;  (** segment loads back from disk *)
  sp_frozen : int;
      (** dedup entries whose key lives on disk: every spilled id, since
          each id is in the table once *)
  sp_key_faults : int;
      (** dedup probes that resolved a spilled id through a segment —
          genuine re-encounters of cold states plus full-hash
          collisions *)
}

(** Exploration statistics, collected by every [build].  Every
    generated successor is an edge, so [edges] also counts the
    successors; a level abandoned by a worker failure counts for
    nothing. *)
type stats = {
  states : int;
  edges : int;
  levels : int;  (** BFS depth: number of frontiers expanded *)
  frontier_sizes : int array;  (** one entry per level *)
  peak_frontier : int;
  dedup_hits : int;  (** generated successors that were already known *)
  dedup_rate : float;  (** [dedup_hits] / successors generated ([edges]) *)
  probe : Ctbl.probe_stats;
      (** dedup-table probe traffic — how many structural equality
          checks the stored hashes avoided *)
  shards : int;  (** dedup shard count the build ran with *)
  shard_stats : Ctbl.shard_stat array;
      (** per-shard occupancy and probe traffic *)
  spill : spill_stats;
  wall_s : float;
  states_per_sec : float;
  domains : int;
  truncated : bool;
  reduction : reduction_stats;
}

(** A partial exploration frozen at a level boundary: the node prefix
    [0, s_expanded) has final out-edges, everything after it is the
    unexpanded frontier.  Completed levels are identical for any domain
    count, so a suspended prefix — and a build resumed from it — is
    too.  Serialize with {!Checkpoint} (values are re-interned on
    load). *)
type suspended = private {
  s_nodes : Config.t array;  (** every discovered configuration, id order *)
  s_expanded : int;
  s_targets : int array;
      (** the expanded prefix's out-edges in CSR order, packed
          [(target lsl 8) lor pid] *)
  s_offsets : int array;  (** length [s_expanded] *)
  s_dedup_hits : int;
  s_n_succs : int;
  s_frontier_sizes : int array;  (** completed levels only *)
  s_reduction : string;
      (** reduction mode name; [build ~resume] rejects a mismatch *)
  s_substrate : string;
      (** substrate name; [build ~resume] rejects a mismatch *)
  s_canonized : int;
  s_ample_nodes : int;
  s_ample_pruned : int;
}

type t = private {
  nodes : Config.t Chunks.t;
      (** one slot per id; the ids below [n_base] spilled, and their
          chunks are released ({!Chunks.release_below}).  Read through
          {!node}.  Nodes with equal object vectors share one physical
          array (see [Config.t]: never write into a node's arrays). *)
  n_base : int;
  targets : int Chunks.t;
      (** the graph's one edge store: every edge, packed
          [(target lsl 8) lor pid] — always resident, so pure-topology
          passes (SCC, valence sweep, cycle searches) run with zero
          segment faults on an out-of-core graph.  Read through
          {!step_pid} and {!step_target}. *)
  offsets : int Chunks.t;
      (** length [nodes + 1]; node [id]'s out-edges are the steps
          [offset id .. offset (id+1) - 1]; empty slices for unexpanded
          frontier nodes of a partial build *)
  segs : Segstore.t option;
      (** the cold prefix's configurations, when the build spilled *)
  succ : Config.t -> (int * (Config.t * Config.event) list) list;
      (** the successor function the build expanded every node with
          ({!successors} under its substrate, reduction, machine and
          specs); {!out_edges} re-runs it to re-derive events *)
  expanded : int;
      (** nodes [0, expanded) have their out-edges; the rest (only in
          a partial build) are the unexpanded frontier *)
  initial : int;
  truncated : bool;
      (** true whenever [stop <> Done]; results are then partial *)
  stop : Supervisor.outcome;
      (** how the exploration ended: [Done], [Truncated] (max_states),
          [Deadline], [Cancelled], or [Worker_failed] *)
  suspended : suspended option;
      (** the frozen exploration state, when the build stopped with a
          live frontier (quota / deadline / cancellation / worker
          failure) — feed back via [build ~resume] to continue *)
  stats : stats;
}

exception Truncated

val max_processes : int
(** 256: a packed step keeps 8 bits for its pid. *)

exception Too_many_processes of int
(** Raised by {!build}, before it explores anything, for a machine
    with more than {!max_processes} processes (the count it carries). *)

val default_max_states : int
(** 1_000_000. *)

val default_spill_threshold : int
(** 500_000 resident expanded states. *)

val build :
  ?max_states:int ->
  ?domains:int ->
  ?budget:Supervisor.Budget.t ->
  ?substrate:Substrate.t ->
  ?reduce:reduction ->
  ?resume:suspended ->
  ?shards:int ->
  ?spill:spill ->
  machine:Machine.t ->
  specs:Lbsa_spec.Obj_spec.t array ->
  inputs:Lbsa_spec.Value.t array ->
  unit ->
  t
(** Breadth-first construction (default bound: [default_max_states]).
    [substrate] (default {!Substrate.shm}) supplies the step relation
    the exploration quantifies over; its name is recorded in suspended
    explorations, and [build ~resume] refuses a substrate mismatch just
    like a reduction-mode mismatch.
    [domains] defaults to 1: on every graph measured, a second domain
    made the build larger and none faster (DESIGN.md, "Default
    domains"); the produced graph does not depend on it.  [budget] and the
    [max_states] quota are polled at each level boundary; when either
    fires the build returns a partial graph with [stop] set and
    [suspended] holding the frozen frontier.  The quota is polled
    before each level and a level's successors are registered in full,
    so a quota-stopped graph holds every node of the level that crossed
    [max_states]: it may overshoot by a whole level's growth ([solve
    consensus -m 100 --max-states 20000] registers 306,751 states), but
    never holds a node with a partial edge list.
    Worker exceptions are isolated and retried per 64-node block
    ({!Supervisor.run_shard}, no backoff); a block whose retries run
    out abandons its whole level — even the blocks of it already merged
    are taken back — and [stop] reports the lowest failing block, so
    the surviving prefix is the same for every domain count.  [reduce]
    (default {!no_reduction}) quotients and prunes the exploration; the
    reduced graph is still domain-count-deterministic and identical to
    the test suite's seed-explorer oracle's under the same [reduce]
    (the two share {!successors}).  [resume]
    continues a suspended exploration (its recorded reduction mode must
    match [reduce], else [Invalid_argument]); resuming an interrupted
    build yields the graph the uninterrupted build would have
    produced.

    [shards] (default 1; a power of two up to 4096) shards the dedup
    table by the high bits of [Config.hash] — growth is then per-shard,
    and the produced graph (ids, edges, truncation) is identical for
    every shard count.  [spill] bounds resident state: cold expanded
    nodes move to disk segments, and dedup probes resolve them from
    there, again without changing the produced graph — only the
    telemetry in {!stats} and the laziness of node access differ.  A
    spilled graph's [suspended] (interrupt path) is materialized fully
    in RAM when taken. *)

val suspended_of_parts :
  nodes:Config.t array ->
  expanded:int ->
  targets:int array ->
  offsets:int array ->
  dedup_hits:int ->
  n_succs:int ->
  frontier_sizes:int array ->
  reduction:string ->
  substrate:string ->
  canonized:int ->
  ample_nodes:int ->
  ample_pruned:int ->
  suspended
(** For {!Checkpoint} thawing only: reassemble a suspended exploration
    from its parts.  Shape checks only — offsets and step targets in
    range, [Invalid_argument] otherwise; resuming from a corrupted
    checkpoint is on the caller. *)

val reduce_config :
  reduce:reduction -> machine:Machine.t -> Config.t -> Config.t * int * int
(** Normalize one configuration under [reduce]: flush poised
    decide/abort steps into it (sleep layer), then replace it by its
    canonical orbit representative (symmetry layer).  Returns the
    reduced configuration, the steps flushed and the canonizations (0
    or 1).  {!build} applies it to the initial configuration. *)

val successors :
  ?substrate:Substrate.t ->
  ?stepper:Config.stepper ->
  reduce:reduction ->
  machine:Machine.t ->
  specs:Lbsa_spec.Obj_spec.t array ->
  Config.t ->
  (int * (Config.t * Config.event) list) list * int * int
(** The reduction step {!build} expands every node with, exported for
    the seed-explorer oracle of the test suite: all successors of a
    configuration, grouped per running pid (ascending; object branches
    in spec order), each one reduced by {!reduce_config}, after the
    ample rule has restricted expansion to the commit step when one
    exists.  Also returns the successors canonized and the steps
    short-circuited by commit pruning.  With [stepper] each step goes
    through {!Config.step_memo} instead of [substrate]'s
    [step_branches], which every substrate defines as
    {!Config.step_branches} (the test suite checks they agree); {!build}
    passes one per worker, while {!field-succ} and the oracle step
    plainly. *)

val n_nodes : t -> int
val n_edges : t -> int

val offset : t -> int -> int
(** [offset t id] is the flat CSR index of node [id]'s first out-step;
    its steps end where node [id + 1]'s begin ([id = n_nodes t] is the
    end of the last slice). *)

val node : t -> int -> Config.t
(** A point lookup: on an out-of-core graph a spilled id is served
    from {!Segstore}'s cache of decoded segments.  A walk over every
    node goes through {!iter_nodes} or {!find_map_node} instead. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val out_edges : t -> int -> edge list
(** Node [id]'s out-edges in CSR order, events included, re-derived by
    running {!field-succ} on its configuration: the flattened successor
    list must match the stored slice in length, pids and target
    configurations, else [Failure] (never a wrong event).  Costs a
    successor computation and faults the source's and targets' segments
    on an out-of-core graph; prefer {!iter_out_steps} wherever the
    events are not needed.  Unexpanded frontier nodes have none. *)

val out_degree : t -> int -> int

val iter_out_steps : t -> int -> (int -> int -> unit) -> unit
(** [iter_out_steps t id f] calls [f pid target] for each out-edge of
    [id], straight from the packed targets store — no event
    materialization, no allocation, and no segment faults on an
    out-of-core graph.  Prefer this (and {!exists_out_step}) for
    topology-only passes. *)

val exists_out_step : t -> int -> (int -> int -> bool) -> bool

val step_pid : t -> int -> int
val step_target : t -> int -> int
(** The pid and target of the edge at a flat CSR index, read from the
    packed targets store (no segment faults). *)

val iter_nodes : (int -> Config.t -> unit) -> t -> unit
(** Every node in id order.  On an out-of-core graph the spilled prefix
    is streamed ({!Segstore.find_map}): each segment is read and decoded
    once, one configuration at a time, past the segment cache, so a
    configuration [f] does not keep dies young.  [find_node] and
    [find_map_node] walk the same way, up to their hit. *)

val find_id : t -> (int -> bool) -> int option
(** Lowest node id satisfying an id-only predicate; never touches
    configurations, so it cannot fault segments. *)

val find_node : t -> (int -> Config.t -> bool) -> int option
(** Lowest node id satisfying the predicate, stopping at the first hit —
    node ids are BFS order, so this is also the shallowest such
    configuration. *)

val find_map_node : t -> (int -> Config.t -> 'a option) -> 'a option
(** First [Some] produced by [f] in node-id order, stopping there. *)

val require_complete : t -> unit
(** Raises {!Truncated} if the graph was cut off at [max_states]. *)

val find_path :
  ?mask:bool array ->
  t ->
  src:int ->
  accept:(int -> int -> bool) ->
  edge list option
(** The BFS path search: from [src], through the nodes [mask] marks
    (default: all), scanning nodes in BFS order and each node's
    out-edges in CSR order, until [accept pid target] takes an edge.
    Returns the path of discovering edges from [src] to that edge's
    source, followed by the accepted edge — a shortest such path, and
    the first one in CSR order.  The accepted edge's target need not be
    in [mask].  Reads the packed targets, so only the returned edges are
    materialized, by one {!out_edges} call per step. *)

val shortest_path : t -> target:int -> edge list option
(** Shortest edge path from the initial node to [target] — the schedule
    reproducing that configuration ({!find_path} from the initial
    node).  [None] only if [target] is not in the graph (cannot happen
    for ids produced by this graph). *)

val schedule_of_path : edge list -> int list
(** The process ids along a path, replayable with [Scheduler.fixed].
    Nondeterministic object branches along the path must be replayed
    with a matching adversary. *)

val scc : ?mask:bool array -> t -> int array * int
(** Strongly connected components (Tarjan): per-node component id and
    component count, ids in topological order of the condensation.
    With [mask], the components of the subgraph induced by the nodes it
    marks: edges into unmarked nodes are ignored, and unmarked nodes get
    component [-1].  Reads only the packed targets, so it never faults
    a segment. *)
