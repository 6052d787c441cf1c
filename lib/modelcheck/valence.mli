(** Valence computation (the FLP vocabulary of the paper's proofs):
    classify every configuration of a graph as v-valent, bivalent or
    undecided, by the exact fixpoint over reachable decisions. *)

open Lbsa_spec

type classification =
  | Valent of Value.t
  | Bivalent
  | Undecided  (** no decision reachable at all *)

type analysis

val analyze : Graph.t -> analysis
(** Interns decision values to small ints and propagates per-node
    reachable-decision bitmasks in one reverse-topological pass over the
    {!Graph.scc} condensation (exact on cyclic graphs: an SCC's nodes
    share one reachable set). *)

val decision_set : analysis -> int -> Value.t list
(** All decision values reachable from the node. *)

val classify : analysis -> int -> classification
val is_bivalent : analysis -> int -> bool
val is_valent : analysis -> int -> Value.t -> bool

val abort_reachable : analysis -> int -> bool
(** Is a configuration with an aborted process reachable from here? *)

val pp_classification : Format.formatter -> classification -> unit

type summary = {
  n_nodes : int;
  n_bivalent : int;
  n_univalent : int;
  n_undecided : int;
}

val summarize : analysis -> summary
