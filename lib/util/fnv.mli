(** FNV-1a digests over byte strings, folded into the native 63-bit
    [int].  Process- and platform-stable on 64-bit systems: the serve
    layer uses it for content-addressed cache keys and store entry
    checksums, always alongside the full preimage (digests route,
    preimages decide). *)

val seed : int
(** The standard 64-bit FNV offset basis (masked to [max_int]). *)

val fold_string : int -> string -> int
(** [fold_string acc s] mixes [s] (and its length) into [acc].  Chain to
    digest multi-part values without intermediate concatenation. *)

val string : string -> int
(** [fold_string seed s]. *)

val sub : string -> int -> int -> int
(** [sub s off len] is [string (String.sub s off len)], without the
    copy.  Raises [Invalid_argument] if the range is not within [s]. *)

val to_hex : int -> string
(** 16 lowercase hex digits, fixed width — usable as a filename. *)
