(** Process-symmetry quotient for the explorer, and the commit-step
    vocabulary shared with the bivalency toolkit.

    A symmetry group of a protocol instance is a finite set of
    automorphisms: process permutations, optionally paired with a
    compatible object permutation and a rewrite of object states for
    encodings that mention process identities (PAC labels).
    [canonical] maps a configuration to the [Config.compare]-least
    element of its orbit; keying the explorer's dedup table on
    canonical representatives quotients the reachable graph by the
    group.  The soundness argument — why the quotient preserves
    solvability and valence verdicts — is in DESIGN.md, "State-space
    reduction". *)

open Lbsa_spec
open Lbsa_runtime

type auto = {
  proc : int array;  (** image process [i] carries old process [proc.(i)] *)
  obj : int array option;  (** image object [o] carries old object [obj.(o)] *)
  rename_obj : (int -> Value.t -> Value.t) option;
      (** rewrite of old object [index]'s state during the permute *)
}

type t
(** A group, extensionally: its non-identity automorphisms, plus a memo
    of renamed object states that the group owns (allocated on the first
    [canonical] call that needs it, shared safely by the explorer's
    worker domains). *)

val identity : t
val is_identity : t -> bool
val order : t -> int

val autos : t -> auto list
(** The non-identity automorphisms ([order - 1] of them). *)

val apply : auto -> Config.t -> Config.t

val canonical : t -> Config.t -> Config.t
(** The lex-least image of the configuration over its orbit.  Returns
    the argument {e physically} when no image is strictly smaller, so
    callers can count canonizations with [(!=)].  Builds no losing
    image: the locals are ranked once, each automorphism is rejected at
    its first local ranked above the best image's ([O(|G| * n)] int
    comparisons at worst), objects are built (through the memo) and
    statuses compared only for automorphisms that tie the best on every
    local, and the winner is built once.  Raises [Invalid_argument] when
    the configuration's process count, or its object count for a group
    that permutes objects, does not fit the group. *)

val exchangeable : n:int -> ?fixed:int list -> unit -> t
(** All permutations of [n] processes fixing the pids in [fixed].
    Sound only for machines whose [delta] is pid-independent over
    pid-free object states (the registry's one-shot protocols). *)

val dac : n:int -> t
(** The symmetry group of the n-DAC-from-n-PAC protocol: permutations
    of processes [1..n-1] (the distinguished process 0 is fixed), with
    PAC labels renamed alongside ([Pac.rename_labels]). *)

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
