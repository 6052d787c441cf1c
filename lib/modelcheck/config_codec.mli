(** The value-dictionary codec for configurations: the payloads of
    checkpoint node chunks and spilled segments.

    A hash-consed value cannot cross a process boundary as it is: intern
    ids depend on allocation order, and [Value.equal] is pointer
    equality.  Each encoded array therefore starts with its own table of
    the distinct values it holds, each written once, children before
    parents, indexed in order of first occurrence; the elements then
    refer to values by index.  The bytes
    depend only on the structure of the data, never on intern ids.
    Decoding re-interns every table entry through the [Value] smart
    constructors, so decoded values are physically canonical in the
    decoding process.  A reference to a later entry, an index out of
    range or an unknown tag is {!Lbsa_util.Codec.Malformed}. *)

open Lbsa_runtime

val configs : Config.t array Lbsa_util.Codec.t
(** Its decoder is {!get_table}, then {!get_config} once per
    configuration, collected into an array. *)

type encoder
(** A value index and two buffers, cleared and reused by each
    {!put_configs}: a writer that encodes many arrays keeps one.  Never
    share one between domains. *)

val encoder : unit -> encoder

val put_configs : encoder -> Buffer.t -> int -> (int -> Config.t) -> unit
(** [put_configs e b n get] appends to [b] the bytes {!configs} writes
    for the array [get 0], ..., [get (n - 1)]. *)

(** {1 One configuration at a time}

    For a reader that hands each configuration on as it is decoded
    instead of holding the whole array. *)

type table
(** The decoded value table of one encoded array. *)

val get_table : Lbsa_util.Codec.cursor -> table * int
(** Reads an encoded array's value table and then its configuration
    count; that many {!get_config} calls follow. *)

val get_config : table -> Lbsa_util.Codec.cursor -> Config.t
(** Decodes the next configuration, its values taken from the table. *)
