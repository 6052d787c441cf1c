(** Wing–Gong linearizability checker, extended to nondeterministic
    sequential specifications and to histories with pending calls. *)

open Lbsa_spec

type pending = { pid : int; op : Op.t; inv : int }
(** An operation that was invoked at time [inv] but never answered (its
    process crashed or was starved mid-operation). *)

type outcome =
  | Linearizable of Chistory.call list
      (** a witness linearization (completed calls only; linearized
          pending calls have no recorded response to report) *)
  | Not_linearizable

val is_linearizable : outcome -> bool

val max_calls : int
(** Hard size limit of {!check}: [Sys.int_size - 1] (62 on 64-bit).  The
    DFS memoizes on a bitmask of linearized calls packed into one OCaml
    [int] with the sign bit kept clear, so completed + pending calls
    together must fit in that many bits.  Callers generating histories
    (the fuzzer, the harness campaigns) must cap workloads accordingly;
    {!check} raises [Invalid_argument] — it never silently truncates. *)

type session
(** Interning tables for one specification: spec states and ops mapped
    to small ints, memoized [Obj_spec.branches] per (state, op), and
    canonical state-set ids.  A session only caches spec-determined
    facts, so reusing one across checks changes nothing but speed —
    which is the point: campaigns run thousands of checks against the
    same spec.  Not thread-safe; use one session per domain. *)

val session : Obj_spec.t -> session

val check_with :
  ?memo:bool -> ?pending:pending list -> session -> Chistory.t -> outcome
(** {!check}, reusing the session's interning tables. *)

val check :
  ?memo:bool -> ?pending:pending list -> Obj_spec.t -> Chistory.t -> outcome
(** Decide linearizability of a complete, well-formed history against
    the specification (equivalent to [check_with] on a fresh session).
    Each [pending] call may either be dropped (it never took effect) or
    linearized anywhere after its invocation with any response the
    specification allows — the standard completion semantics for crashed
    operations, without which a crash-truncated run whose in-flight
    operation took effect would be misjudged.

    Raises [Invalid_argument] on an ill-formed history, on a pending
    call overlapping a completed call of the same process, or when
    completed + pending calls exceed {!max_calls}.  [memo] (default
    true) enables memoization of visited (linearized-set, state-set)
    pairs; [memo:false] is the plain exhaustive search, kept as the
    reference the property tests compare the memoized search against. *)

val pp_outcome : Format.formatter -> outcome -> unit
