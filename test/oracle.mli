(** The seed engines, kept as differential-testing oracles for the
    explorer and the valence pass of lib/modelcheck, plus the one
    graph-equality check the suites share. *)

open Lbsa

(** A graph as plain data: each node's configuration and out-edge list,
    by node id. *)
type graph = {
  initial : int;
  nodes : Config.t array;
  out : Cgraph.edge list array;
}

val of_graph : Cgraph.t -> graph
(** Materializes every node and edge (faulting spilled segments in). *)

val build_cmap :
  ?substrate:Substrate.t ->
  ?reduce:Cgraph.reduction ->
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  inputs:Value.t array ->
  unit ->
  graph
(** The seed explorer: sequential FIFO BFS deduping through a
    [Map.Make(Config)] with the seed's structural comparator, none of
    [Value.compare]'s intern fast paths.  {!Cgraph.build} must produce
    the identical graph — under a nontrivial [reduce] too, which goes
    through the shared {!Cgraph.successors}. *)

val same_graph : string -> Cgraph.t -> graph -> unit
(** Fails the test unless the built graph has the reference's node
    count, edge count, initial node, configurations and out-edge lists
    (full records, order included). *)

type valence

val analyze_fixpoint : Cgraph.t -> valence
(** The seed worklist fixpoint over functional value sets, independent
    of the SCC condensation {!Valence.analyze} relies on.  It must
    agree with {!Valence.analyze} on every accessor below. *)

val classify : valence -> int -> Valence.classification
val decision_set : valence -> int -> Value.t list
val abort_reachable : valence -> int -> bool
