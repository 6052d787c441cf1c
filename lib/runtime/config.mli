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
(** Element-wise: equal lengths, physically equal values (they are
    hash-consed) and equal statuses. *)

val hash : t -> int
(** Element-wise hash of the full configuration (every local, object
    state and status contributes) — safe to key large dedup tables on.
    Structural, never intern ids: the same bits in every process and
    run, and the same bits as the original fold over
    [Value.hash_fold] (test/oracle.ml keeps it). *)

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

type stepper
(** A transition memo for one machine and spec array: {!step_memo}
    returns exactly {!step_branches}'s list, and runs the machine's
    [delta] once per (pid, local state) and [resume] once per (pid,
    local state, response) it meets.  Two tables, both keyed on intern
    ids (never on an object's state, which an object's own
    [Obj_spec.branches] still reads on every call):
    - (pid, local state id) -> the move: a halt with its status and
      event, or an operation with its object, op and [resume];
    - inside each operation, response id -> (next local state, event).

    Successors are built by the same code as {!step_branches}'s, so they
    share exactly the arrays {!step_branches}'s share.  It raises what
    {!step_branches} raises (process not running, no such object, an
    empty branch list), and a [delta] or [resume] that raises leaves
    nothing behind.  Keys pack the pid into 8 bits: pids from 256 up
    raise [Invalid_argument].  Ids never leave the tables, so nothing
    they key is ordered or hashed by them.  Not domain-safe: one stepper
    per domain. *)

val stepper : machine:Machine.t -> specs:Obj_spec.t array -> stepper

val step_memo : stepper -> t -> int -> (t * event) list
(** [step_memo st t pid] is [step_branches ~machine ~specs t pid] for
    [st]'s machine and specs. *)

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
