(** Process-symmetry quotient for the explorer, and the commit-step
    vocabulary shared with the bivalency toolkit.

    A symmetry group of a protocol instance is a set of automorphisms:
    process permutations, optionally paired with a compatible object
    permutation and a rewrite of object states for encodings that
    mention process identities (PAC labels).  [canonical] maps a
    configuration to the [Config.compare]-least element of its orbit;
    keying the explorer's dedup table on canonical representatives
    quotients the reachable graph by the group.  The soundness argument
    — why the quotient preserves solvability and valence verdicts — is
    in DESIGN.md, "State-space reduction". *)

open Lbsa_spec
open Lbsa_runtime

type t
(** A group, structurally: its fixed pids, its blocks of
    interchangeable pids and, for [kset_partition], the block
    permutations that carry their objects.  No group element is ever
    listed, so building one costs nothing at any order. *)

val identity : t

val is_identity : t -> bool
(** O(1). *)

val order : t -> int
(** Computed, not counted: [(n-1)!] for [dac], [(n - |fixed|)!] for
    [exchangeable], [(m!)^k * k!] for [kset_partition].  Saturates at
    [max_int]. *)

val canonical : t -> Config.t -> Config.t
(** The lex-least image of the configuration over its orbit.  Returns
    the argument {e physically} when no image is strictly smaller, so
    callers can count canonizations with [(!=)].  Costs one stable sort
    of the pids ([O(n log n)] comparisons of locals, object-side keys
    and statuses), plus, when the sort moved a pid, one build of the
    image with at most one object rename ([Pac.rename_labels] for
    [dac]); the argument for each group is in DESIGN.md, "Finding the
    orbit minimum".  Raises [Invalid_argument] when the configuration's
    process count, or its object count for [dac] (one PAC) or
    [kset_partition] ([k] objects), does not fit the group. *)

val exchangeable : n:int -> ?fixed:int list -> unit -> t
(** All permutations of [n] processes fixing the pids in [fixed].
    Sound only for machines whose [delta] is pid-independent over
    pid-free object states (the registry's one-shot protocols). *)

val dac : n:int -> t
(** The symmetry group of the n-DAC-from-n-PAC protocol: permutations
    of processes [1..n-1] (the distinguished process 0 is fixed), with
    PAC labels renamed alongside ([Pac.rename_labels]).  Its
    configurations hold the one n-PAC, whose V binds every label
    [1..n] (as every state of [Pac.spec] does). *)

val kset_partition : m:int -> k:int -> t
(** The symmetry group of the [k*m]-process partition protocol:
    within-group permutations times group permutations, with the [k]
    identical consensus objects permuted along with the groups
    (order [(m!)^k * k!]). *)

(** {2 Poised / commit steps}

    What each running process is about to do — the vocabulary of the
    Section 4/5 proof mechanization ({!Bivalency} re-exports it), also
    used by the explorer's ample-step pruning. *)

type poised =
  | Poised_op of { obj : int; op : Op.t }
  | Poised_decide of Value.t
  | Poised_abort

val poised_steps : machine:Machine.t -> Config.t -> (int * poised) list
(** Poised steps of all running processes, in pid order. *)

val flush_commits : machine:Machine.t -> Config.t -> Config.t * int
(** Apply every poised decide/abort to the configuration (statuses
    updated exactly as the corresponding {!Config.step_branches} steps
    would, locals untouched), returning the flushed configuration and
    how many steps were applied.  Such steps write only their own
    process's status and commute with every other step, so the flushed
    configuration reaches exactly the same decisions and violations as
    the original (DESIGN.md); the explorer's sleep layer uses this to
    normalize successors.  Returns the argument physically when no
    decide/abort is poised. *)

val commit_pid :
  machine:Machine.t -> ?frozen:(int -> Value.t -> bool) -> Config.t -> int option
(** The least running process whose next step is invisible to every
    other process — a decide/abort, or an operation on an object that
    [frozen index state] certifies permanently inert (state unchanged
    and constant response forever, e.g. an upset PAC).  Expanding only
    this process is a sound singleton persistent set (DESIGN.md). *)
