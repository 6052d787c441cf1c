(** The value-dictionary codec for configurations: the payloads of
    checkpoint node chunks and spilled segments.

    A hash-consed value cannot cross a process boundary as it is: intern
    ids depend on allocation order, and [Value.equal] is pointer
    equality.  Each encoded array (a section) therefore starts with its
    own tables:

    - the value table: the distinct values the section holds, each
      written once, children before parents;
    - the vector table: the distinct object vectors, each written once
      as a count and then value indices.

    Each configuration is then its locals (a count and value indices),
    one vector index, and its statuses (a count and statuses, a
    decision naming its value by index).  Both tables are indexed in
    order of first occurrence, so the bytes depend only on the structure
    of the data, never on intern ids (the encoder keys its private value
    index on them) or on which configurations share an array.

    Decoding re-interns every value table entry through the [Value]
    smart constructors, so decoded values are physically canonical in
    the decoding process, and builds each vector once: every decoded
    configuration of a section that names vector [k] holds the same
    array.  A reference to a later value, a value or vector index out
    of range or an unknown tag is {!Lbsa_util.Codec.Malformed}. *)

open Lbsa_runtime

val configs : Config.t array Lbsa_util.Codec.t
(** Its decoder is {!get_table}, then {!get_config} once per
    configuration, collected into an array. *)

type encoder
(** A value index, a vector index and three buffers, cleared and
    reused by each {!put_configs}: a writer that encodes many arrays
    keeps one.  Never share one between domains. *)

val encoder : unit -> encoder

val put_configs : encoder -> Buffer.t -> int -> (int -> Config.t) -> unit
(** [put_configs e b n get] appends to [b] the bytes {!configs} writes
    for the array [get 0], ..., [get (n - 1)]. *)

(** {1 One configuration at a time}

    For a reader that hands each configuration on as it is decoded
    instead of holding the whole array. *)

type table
(** The decoded value and vector tables of one encoded array. *)

val get_table : Lbsa_util.Codec.cursor -> table * int
(** Reads an encoded array's value and vector tables and then its
    configuration count; that many {!get_config} calls follow. *)

val get_config : table -> Lbsa_util.Codec.cursor -> Config.t
(** Decodes the next configuration, its values taken from the value
    table and its object vector shared from the vector table. *)
