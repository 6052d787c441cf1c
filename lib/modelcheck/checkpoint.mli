(** Durable checkpoints for long explorations: a suspended
    {!Graph.build} (frontier, dedup contents, edge prefix) and a label,
    written to disk and read back for [Graph.build ~resume].

    The file is the magic line [LBSA-CHECKPOINT/7], then
    {!Lbsa_util.Codec} sections: one CKMETA section (the label, the
    scalars of the exploration and the node and edge counts), then the
    nodes and the edges in CKNODES/CKEDGES chunks of at most 65,536
    elements.  An edge chunk is plain ints, the packed steps of
    {!Graph.suspended} (events are re-derived, never stored).  A node
    chunk is encoded by {!Config_codec}, so it carries its own value
    and object-vector tables, and loading re-interns every value
    through the [Value] smart constructors: the loaded configurations
    are physically canonical in the loading process, whatever that
    process interned first, and two saves of one exploration are
    byte-identical in any process. *)

type t

exception Version_mismatch of string
(** The file is a checkpoint, but from another format version.  Old
    checkpoints are refused, never migrated: the frozen exploration is
    cheaper to redo than a cross-version misread is to debug.  CLIs
    surface this as exit code 2 (the partial-outcome code, like a
    reduce-mode mismatch): the file is coherent, only this build cannot
    use it. *)

exception Corrupt of string
(** The file carries the current checkpoint magic but its body fails
    validation — truncation, a framing or checksum defect, a chunk out
    of order, an undecodable section, trailing bytes — or keeps hitting
    I/O errors.  A corrupt checkpoint is a damaged scratch artifact:
    CLIs refuse it with exit code 2 (re-run the exploration), never
    resume from it, and never crash on it. *)

val label : t -> string
(** Free-form run parameters recorded at freeze time (protocol, sizes,
    max_states…); resuming code should compare it against the current
    invocation and refuse mismatches. *)

val reduction : t -> string
(** The reduction mode name ("none" / "sym" / "sym+sleep") the frozen
    exploration ran under.  Resuming under a different mode would
    silently explore a different graph; [Graph.build ~resume] rejects
    the mismatch, and CLIs should refuse it up front. *)

val substrate : t -> string
(** The execution substrate name ("shm" / "mp" / "mp+byz:f") the frozen
    exploration ran under — recorded since format version 4.  Same
    contract as {!reduction}: a resume under a different substrate is a
    different graph, and [Graph.build ~resume] rejects the mismatch. *)

val freeze : label:string -> Graph.suspended -> t
(** Pairs the exploration with its label; nothing is copied. *)

val thaw : t -> Graph.suspended

val save : file:string -> t -> unit
(** Atomic, durable write through {!Lbsa_util.Rio.with_atomic_file}:
    the magic line and the sections above, committed tmp + fsync +
    rename + directory fsync.  A crash at any point leaves either the
    previous [file] or the new one, never a torn mix.  Overwrites
    [file]. *)

val load : file:string -> t
(** Raises [Failure] on a missing or non-checkpoint file,
    {!Version_mismatch} on a checkpoint from another format version
    (older versions are refused, never migrated), and {!Corrupt} on a
    current-version checkpoint whose body fails validation. *)
