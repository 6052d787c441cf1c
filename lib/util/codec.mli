(** The one codec for every byte that leaves the process: checkpoints,
    spilled segments, fuzz checkpoints, store entries and wire frames.

    {b Sections} frame the bytes: an 8-byte tag (space-padded), an
    8-byte big-endian payload length, an 8-byte big-endian FNV-1a
    checksum of the payload ({!Fnv.string}), then the payload.

    {b Payloads} are written by explicit typed encoders built from the
    combinators below.  Their decoders raise only {!Malformed} and never
    allocate more than the input holds, so any outside byte string
    becomes either a value of its type or a typed refusal. *)

exception Malformed of string

val malformed : ('a, unit, string, 'b) format4 -> 'a

(** {1 Sections} *)

val header_len : int
(** 24: the tag, length and checksum fields. *)

val write_section : (string -> unit) -> tag:string -> string -> unit
(** [write_section sink ~tag payload] emits one section through [sink]
    (a {!Rio} atomic-commit writer, a buffer).  [tag] is at most 8
    bytes. *)

val section_file : prefix:string -> tag:string -> Buffer.t -> bytes
(** [section_file ~prefix ~tag payload] is a whole file: [prefix] (a
    magic line), then the section {!write_section} emits for the
    buffer's contents.  The payload is copied once, into the result. *)

val read_section :
  read:(bytes -> int -> int -> unit) -> limit:int -> string * string
(** Reads one section from a byte source ([read buf off len] fills
    exactly [len] bytes or raises) and returns its trimmed tag and its
    payload.  Raises {!Malformed} on a header field above [max_int], a
    length above [limit] (before allocating) or a checksum mismatch;
    what [read] raises at the end of the source passes through. *)

val input_section : in_channel -> tag:string -> string
(** The payload of the next section of a file, which must carry [tag].
    The cap is the bytes left in the file; a missing, truncated or
    differently tagged section is {!Malformed}. *)

(** {1 Payloads} *)

type cursor

type 'a t = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }
(** An encoder and its decoder: [get] reads exactly what [put] wrote. *)

val int : int t
(** Zigzag varint: 1 byte for -64..63, at most 9 bytes. *)

val count : int t
(** A length or element count (unsigned varint), {!Malformed} when
    larger than the bytes left: each counted element takes a byte. *)

val string : string t
val bool : bool t

val float : float t
(** The 8 bytes of the IEEE-754 bit pattern. *)

val list : 'a t -> 'a list t
val array : 'a t -> 'a array t
(** A {!count}, then the elements. *)

val option : 'a t -> 'a option t
val pair : 'a t -> 'b t -> ('a * 'b) t

val variant :
  put:(Buffer.t -> 'a -> unit) -> get:(cursor -> int -> 'a) -> 'a t
(** A sum type: [put] writes the case's {!tag} and then its fields;
    [get] receives the decoded tag and reads the fields, answering an
    unknown tag with {!bad_tag}. *)

val tag : Buffer.t -> int -> unit
(** One byte, 0..255. *)

val bad_tag : int -> 'a

val enum : 'a list -> 'a t
(** Constant cases, written as their position in the list. *)

val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> 'a
(** Decodes the whole string: trailing bytes are {!Malformed}. *)

val cursor : string -> cursor
(** A cursor at the start of a payload, for a decoder that hands out
    what it decodes piece by piece instead of returning one value. *)

val at_end : cursor -> unit
(** {!decode}'s last check: {!Malformed} unless the cursor has read
    its whole payload. *)
