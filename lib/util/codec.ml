(* The one codec for every byte that leaves the process: checksummed
   sections for framing, explicit typed encoders for payloads.  See the
   .mli for the layout and the refusal contract. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* --- sections ------------------------------------------------------------ *)

let tag_len = 8
let header_len = 24

(* The header of a [len]-byte payload with checksum [sum], written at
   [off] in [b]. *)
let set_header b off ~tag ~len ~sum =
  if String.length tag > tag_len then invalid_arg "Codec: section tag";
  Bytes.fill b off tag_len ' ';
  Bytes.blit_string tag 0 b off (String.length tag);
  Bytes.set_int64_be b (off + 8) (Int64.of_int len);
  Bytes.set_int64_be b (off + 16) (Int64.of_int sum)

let write_section sink ~tag payload =
  let h = Bytes.create header_len in
  set_header h 0 ~tag ~len:(String.length payload) ~sum:(Fnv.string payload);
  sink (Bytes.unsafe_to_string h);
  sink payload

(* The payload is copied once, into the file's bytes, and checksummed
   there before its header is filled in. *)
let section_file ~prefix ~tag payload =
  let off = String.length prefix + header_len in
  let len = Buffer.length payload in
  let f = Bytes.create (off + len) in
  Bytes.blit_string prefix 0 f 0 (String.length prefix);
  Buffer.blit payload 0 f off len;
  let sum = Fnv.sub (Bytes.unsafe_to_string f) off len in
  set_header f (String.length prefix) ~tag ~len ~sum;
  f

(* Eight bytes hold one more bit than an OCaml int: a field above
   [max_int] would wrap negative in [Int64.to_int] and pass every later
   check, so it is refused here.  Lengths and FNV sums never set it. *)
let field h off =
  let v = Bytes.get_int64_be h off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    malformed "section header field out of range";
  Int64.to_int v

let read_section ~read ~limit =
  let h = Bytes.create header_len in
  read h 0 header_len;
  let len = field h 8 in
  let sum = field h 16 in
  if len > limit then
    malformed "section length %d exceeds the %d-byte limit" len limit;
  let payload = Bytes.create len in
  read payload 0 len;
  let payload = Bytes.unsafe_to_string payload in
  if Fnv.string payload <> sum then malformed "section checksum mismatch";
  (String.trim (Bytes.sub_string h 0 tag_len), payload)

let input_section ic ~tag =
  let left = in_channel_length ic - pos_in ic in
  match read_section ~read:(really_input ic) ~limit:(left - header_len) with
  | tag', payload when String.equal tag' tag -> payload
  | tag', _ -> malformed "expected section %s, got %S" tag tag'
  | exception End_of_file -> malformed "truncated before the end of section %s" tag

(* --- payloads ------------------------------------------------------------ *)

type cursor = { buf : string; mutable pos : int }

type 'a t = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }

let byte c =
  if c.pos >= String.length c.buf then malformed "truncated payload";
  let b = Char.code (String.unsafe_get c.buf c.pos) in
  c.pos <- c.pos + 1;
  b

(* Unsigned LEB128 over the 63 bits of an int: at most nine bytes, the
   ninth without a continuation bit, and no redundant zero last byte. *)
let put_varint b n =
  let n = ref n in
  while !n lsr 7 <> 0 do
    Buffer.add_char b (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !n)

(* A top-level loop rather than a local closure over [c]: without
   flambda a local [go] would be allocated on every call. *)
let rec get_varint_from c acc shift =
  let x = byte c in
  let acc = acc lor ((x land 0x7f) lsl shift) in
  if x < 0x80 then begin
    if x = 0 && shift > 0 then malformed "overlong varint";
    acc
  end
  else if shift = 56 then malformed "varint longer than nine bytes"
  else get_varint_from c acc (shift + 7)

let get_varint c = get_varint_from c 0 0

(* A count is followed by at least one byte per element, so one larger
   than what is left of the input is refused before anything is
   allocated for it. *)
let count =
  { put = put_varint;
    get = (fun c ->
      let n = get_varint c in
      let left = String.length c.buf - c.pos in
      if n < 0 || n > left then malformed "count %d exceeds the %d bytes left" n left;
      n) }

let int =
  { put = (fun b n -> put_varint b ((n lsl 1) lxor (n asr (Sys.int_size - 1))));
    get = (fun c -> let z = get_varint c in (z lsr 1) lxor - (z land 1)) }

(* [n] bytes of the input, checked like a count *)
let bytes c n =
  if n > String.length c.buf - c.pos then malformed "truncated payload";
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let string =
  { put = (fun b s -> put_varint b (String.length s); Buffer.add_string b s);
    get = (fun c -> bytes c (count.get c)) }

let bool =
  { put = (fun b x -> Buffer.add_char b (if x then '\001' else '\000'));
    get = (fun c -> match byte c with 0 -> false | 1 -> true | k -> malformed "bool %d" k) }

let float =
  { put = (fun b x -> Buffer.add_int64_be b (Int64.bits_of_float x));
    get = (fun c -> Int64.float_of_bits (String.get_int64_be (bytes c 8) 0)) }

let list e =
  { put = (fun b l -> put_varint b (List.length l); List.iter (e.put b) l);
    get = (fun c -> List.init (count.get c) (fun _ -> e.get c)) }

let array e =
  { put = (fun b a -> put_varint b (Array.length a); Array.iter (e.put b) a);
    get = (fun c -> Array.init (count.get c) (fun _ -> e.get c)) }

let tag b k = Buffer.add_char b (Char.chr k)
let bad_tag k = malformed "unknown tag %d" k
let variant ~put ~get = { put; get = (fun c -> get c (byte c)) }

let option e =
  variant
    ~put:(fun b -> function None -> tag b 0 | Some x -> tag b 1; e.put b x)
    ~get:(fun c -> function 0 -> None | 1 -> Some (e.get c) | k -> bad_tag k)

let pair a b =
  { put = (fun buf (x, y) -> a.put buf x; b.put buf y);
    get = (fun c -> let x = a.get c in (x, b.get c)) }

let enum cases =
  let cases = Array.of_list cases in
  let rec find x i = if cases.(i) = x then i else find x (i + 1) in
  { put = (fun b x -> tag b (find x 0));
    get = (fun c -> let k = byte c in if k < Array.length cases then cases.(k) else bad_tag k) }

let encode e x =
  let b = Buffer.create 64 in
  e.put b x;
  Buffer.contents b

let cursor s = { buf = s; pos = 0 }

let at_end c =
  if c.pos <> String.length c.buf then
    malformed "%d trailing bytes" (String.length c.buf - c.pos)

let decode e s =
  let c = cursor s in
  let x = e.get c in
  at_end c;
  x
