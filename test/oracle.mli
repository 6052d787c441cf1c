(** The seed engines, kept as differential-testing oracles for the
    explorer and the valence pass of lib/modelcheck, the symmetry
    groups as explicit automorphism lists for {!Canon.canonical}, plus
    the one graph-equality check the suites share. *)

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

(** {2 The symmetry groups, enumerated}

    Each {!Canon} group paired with the explicit list of its
    automorphisms, enumerated from the protocol's symmetries and not
    from [Canon]'s sort: the orbit of a configuration is the argument
    plus its image under each automorphism, so the least orbit element
    judges {!Canon.canonical}. *)

type auto = {
  proc : int array;  (** image process [i] carries old process [proc.(i)] *)
  obj : int array option;  (** image object [o] carries old object [obj.(o)] *)
  rename_obj : (int -> Value.t -> Value.t) option;
      (** rewrite of old object [index]'s state (PAC labels) *)
}

val apply : auto -> Config.t -> Config.t
(** The image of a configuration.  Locals and statuses move verbatim;
    objects move by [obj] (identity when absent) and are rewritten by
    [rename_obj].  Raises [Invalid_argument] on a length mismatch. *)

type group = { canon : Canon.t; autos : auto list  (** non-identity *) }

val exchangeable : n:int -> ?fixed:int list -> unit -> group
val dac : n:int -> group
val kset_partition : m:int -> k:int -> group

val dac_auto : int array -> auto
(** The dac automorphism moving processes by [proc] (which must fix 0)
    and renaming PAC labels alongside. *)

(** {2 The configuration hash} *)

val config_hash : Config.t -> int
(** [Config.hash] as a fold of [Value.hash_fold] over each array, the
    form it was first written in: {!Config.hash} must return the same
    bits. *)
