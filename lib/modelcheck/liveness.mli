(** Fairness-aware liveness checking: fair-cycle (lasso) detection over
    the reachable configuration graph, layered on the Tarjan SCC pass
    ({!Graph.scc} with a node mask) and the BFS path search
    ({!Graph.find_path}).

    A livelock witness is a lasso — a finite prefix from the initial
    configuration plus a cycle inside a {e fair} SCC: one that some
    infinite schedule can dwell in while running every non-crashed
    process infinitely often and never ignoring a mandatory action of
    the execution substrate (poised decide/abort commits; for the
    message-passing substrate also any send or guarded delivery that
    changes the network state — "a sent message is eventually
    delivered").  See the implementation header for the exact four-part
    criterion and its soundness argument; DESIGN.md, "Liveness
    checking", for the prose version.

    The verdict is exact for a complete exploration; callers must treat
    a truncated graph's answer as partial. *)

open Lbsa_runtime

type witness = {
  w_head : int;  (** node id the lasso loops through *)
  w_prefix : Graph.edge list;  (** initial node -> head *)
  w_cycle : Graph.edge list;  (** head -> ... -> head, nonempty *)
}

type verdict = Live | Livelock of witness

type report = {
  verdict : verdict;
  sccs : int;  (** SCC count of the full graph *)
  cyclic_sccs : int;
      (** dwellable SCCs of the subgraph that masks out every
          configuration enabling a mandatory action *)
  fair_sccs : int;  (** of those, SCCs passing the full fairness criterion *)
  wall_s : float;
}

val analyze :
  machine:Machine.t ->
  specs:Lbsa_spec.Obj_spec.t array ->
  substrate:Substrate.t ->
  Graph.t ->
  report
(** Scan every SCC for fairness and extract a lasso witness from the
    fair SCC with the smallest head node id (a component's head is its
    smallest member).  Node ids are BFS order, so that head is also the
    shallowest fair configuration, and the choice does not depend on
    how the SCC pass numbers components.  The stitched cycle may
    revisit nodes; shrink it with [Lasso] (lib/fuzz). *)

val validate :
  machine:Machine.t ->
  specs:Lbsa_spec.Obj_spec.t array ->
  substrate:Substrate.t ->
  Graph.t ->
  witness ->
  bool
(** Oracle re-check of a (possibly shrunk) witness: both walks exist in
    the graph, the cycle closes at its head (so it stays within one
    SCC), schedules every running process, and passes through no
    configuration enabling a mandatory action.  Walks the witness only:
    no whole-graph pass. *)

val prefix_trace : witness -> Trace.t
val cycle_trace : witness -> Trace.t
(** The witness rendered as execution traces ({!Trace.pp}). *)

val witness_pids : witness -> int list
(** Sorted distinct pids scheduled on the cycle. *)

val pp_witness : Format.formatter -> witness -> unit
val pp_report : Format.formatter -> report -> unit
