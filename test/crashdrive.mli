(** Subprocess driver for crash-recovery harnesses: spawn a real child
    process (typically the [lbsa] CLI with an [LBSA_IO_CRASH] crash
    point armed in its environment), capture its stdout/stderr, and
    classify how it died.

    The harness contract this supports: run a child that SIGKILLs
    itself at an injected crash point mid-commit, then re-run (resume
    or fresh) and assert the observable output is byte-identical to an
    uncrashed baseline — or that the child refused cleanly with the
    partial exit code.  Everything here is plain [Unix.create_process]
    plumbing; no shell is involved, so arguments need no quoting. *)

type outcome = {
  status : Unix.process_status;
  out : string;  (** complete stdout of the child *)
  err : string;  (** complete stderr of the child *)
}

type child

val spawn :
  ?env:(string * string) list -> exe:string -> args:string list -> unit -> child
(** Start [exe] with [args] (argv[0] is supplied automatically).  [env]
    entries extend (and override) the parent environment — pass e.g.
    [("LBSA_IO_CRASH", "checkpoint.save:3")] to arm a crash point.
    stdout and stderr are redirected to temp files collected by
    {!wait}; stdin is /dev/null. *)

val pid : child -> int

val wait : child -> outcome
(** Block until the child exits and return its status and captured
    output.  Idempotent per child only in the sense that it must be
    called exactly once; the temp files are removed here. *)

val wait_within : child -> float -> outcome option
(** [wait] if the child exits within [seconds]; [None] leaves it
    running (the caller kills it and then calls {!wait}). *)

val run :
  ?env:(string * string) list -> exe:string -> args:string list -> unit ->
  outcome
(** [spawn] + [wait]. *)

val killed_by : outcome -> int -> bool
(** [killed_by o signum] — did the child die from [signum] (e.g.
    [Sys.sigkill] for a crash point that fired)? *)

val exited : outcome -> int option
(** [Some code] on a normal exit, [None] if signalled/stopped. *)
