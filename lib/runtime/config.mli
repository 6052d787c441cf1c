(** Global configurations: the joint state of all processes and objects —
    the "configuration" of the paper's bivalency proofs, made concrete
    and comparable. *)

open Lbsa_spec

type status =
  | Running
  | Decided of Value.t
  | Aborted
  | Crashed

type t = {
  locals : Value.t array;
  objects : Value.t array;
  status : status array;
}
(** The three arrays are immutable once the configuration is built, and
    configurations share them: a step shares its parent's status array
    unless it halts a process, and its parent's object vector when the
    object's state does not change; the explorer keeps one physical
    object vector per distinct value.  So never write into a
    configuration's array.  Every write in [lib] is on a fresh copy:
    {!crash}, the decide, abort and invoke steps of {!step_branches},
    and [Canon.flush_commits]. *)

val compare_status : status -> status -> int
(** The status order [compare] uses: [Running < Decided _ < Aborted <
    Crashed], decisions ordered by [Value.compare]. *)

val compare : t -> t -> int
(** Lexicographic: locals, then objects, then statuses (each array
    length first). *)

val equal : t -> t -> bool

val hash : t -> int
(** Element-wise hash of the full configuration (every local, object
    state and status contributes) — safe to key large dedup tables on. *)

val n_processes : t -> int

val initial :
  machine:Machine.t -> specs:Obj_spec.t array -> inputs:Value.t array -> t
(** The initial configuration for [inputs.(pid)] per process. *)

val is_running : t -> int -> bool
val running : t -> int list
val decision : t -> int -> Value.t option
val decisions : t -> Value.t list
val all_halted : t -> bool

val crash : t -> int -> t
(** Mark a process crashed; it is never scheduled again. *)

type event =
  | Op_event of { pid : int; obj : int; op : Op.t; response : Value.t }
  | Decide_event of { pid : int; value : Value.t }
  | Abort_event of { pid : int }

val step_branches :
  machine:Machine.t -> specs:Obj_spec.t array -> t -> int -> (t * event) list
(** All successors of letting process [pid] take its next atomic step —
    one per nondeterministic object branch (singleton for deterministic
    objects).  Raises if [pid] is not running. *)

val step :
  machine:Machine.t ->
  specs:Obj_spec.t array ->
  choice:(t list -> int) ->
  t ->
  int ->
  t * event
(** One step, resolving object nondeterminism with [choice]. *)

val pp_status : Format.formatter -> status -> unit
val pp : Format.formatter -> t -> unit
