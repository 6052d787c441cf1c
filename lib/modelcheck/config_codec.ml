open Lbsa_util
open Lbsa_spec
open Lbsa_runtime

(* The value-dictionary codec; see the .mli for the layout. *)

(* Object vectors, compared by value: an equal vector is written once
   however many arrays hold it. *)
module Vectors = Value.Array_tbl

(* Encoding state of one section, cleared for each: a writer that
   encodes many keeps one and reuses its index and buffers.  Intern ids
   key the value index (ids may serve as internal memo keys), but
   indices are handed out in order of first occurrence, so the bytes
   never depend on the ids.  The index is two arrays over intern ids,
   [index.(id)] valid when [seen.(id)] is the current [section]: a new
   section clears it by counting up, and it grows with the largest id
   indexed, never with the number of configurations. *)
type encoder = {
  mutable section : int;
  mutable seen : int array;
  mutable index : int array;
  mutable n_values : int;
  vectors : int Vectors.t;  (* object vector -> vector table index *)
  values : Buffer.t;  (* the value table *)
  vector_table : Buffer.t;
  body : Buffer.t;  (* the configurations *)
}

let remember d id i =
  let n = Array.length d.seen in
  if id >= n then begin
    let grow a =
      let a' = Array.make (max (id + 1) (2 * n)) 0 in
      Array.blit a 0 a' 0 n;
      a'
    in
    d.seen <- grow d.seen;
    d.index <- grow d.index
  end;
  d.seen.(id) <- d.section;
  d.index.(id) <- i

let rec value_ref d (v : Value.t) =
  let id = v.Value.id in
  if id < Array.length d.seen && d.seen.(id) = d.section then d.index.(id)
  else begin
    let b = d.values in
    let int n = Codec.int.put b n in
    (match Value.node v with
    | Value.Unit -> int 0
    | Value.Bool x -> int 1; Codec.bool.put b x
    | Value.Int n -> int 2; int n
    | Value.Sym s -> int 3; Codec.string.put b s
    | Value.Bot -> int 4
    | Value.Nil -> int 5
    | Value.Done -> int 6
    | Value.Pair (x, y) ->
      let i = value_ref d x in
      let j = value_ref d y in
      int 7; int i; int j
    | Value.List vs ->
      let is = List.map (value_ref d) vs in
      int 8; Codec.(list int).put b is);
    let i = d.n_values in
    d.n_values <- i + 1;
    remember d id i;
    i
  end

(* Every encoder and decoder below is applied to all of its arguments
   and loops with [for]: without flambda a partial application or a
   closure passed to [Array.iter]/[Array.init] is allocated per call,
   and these run once per value of every configuration. *)
let put_values d b a =
  Codec.count.put b (Array.length a);
  for i = 0 to Array.length a - 1 do
    Codec.int.put b (value_ref d a.(i))
  done

(* A vector's entry is written the first time a configuration names
   it, so the table is in order of first use. *)
let vector_ref d objects =
  match Vectors.find d.vectors objects with
  | k -> k
  | exception Not_found ->
    let k = Vectors.length d.vectors in
    put_values d d.vector_table objects;
    Vectors.add d.vectors objects k;
    k

(* Entry [i] may only refer to entries before it, so the table is
   acyclic and decodes in one pass. *)
let earlier vals i c =
  let j = Codec.int.get c in
  if j < 0 || j >= i then
    Codec.malformed "value %d refers to %d, not an earlier one" i j;
  vals.(j)

type table = { vals : Value.t array; vecs : Value.t array array }

let get_value t c =
  let i = Codec.int.get c in
  if i < 0 || i >= Array.length t.vals then
    Codec.malformed "value reference %d out of range" i;
  t.vals.(i)

(* The one decode loop: [n] elements, read in order into an array. *)
let collect t get n c =
  if n = 0 then [||]
  else begin
    let a = Array.make n (get t c) in
    for i = 1 to n - 1 do
      a.(i) <- get t c
    done;
    a
  end

let get_array t get c = collect t get (Codec.count.get c) c

(* The value table, the vector table, then the count of configurations
   that refer into them. *)
let get_table c : table * int =
  let vals = Array.make (Codec.count.get c) Value.unit_ in
  for i = 0 to Array.length vals - 1 do
    vals.(i) <-
      (match Codec.int.get c with
      | 0 -> Value.unit_
      | 1 -> Value.bool (Codec.bool.get c)
      | 2 -> Value.int (Codec.int.get c)
      | 3 -> Value.sym (Codec.string.get c)
      | 4 -> Value.bot
      | 5 -> Value.nil
      | 6 -> Value.done_
      | 7 ->
        let x = earlier vals i c in
        Value.pair (x, earlier vals i c)
      | 8 -> Value.list (List.init (Codec.count.get c) (fun _ -> earlier vals i c))
      | k -> Codec.bad_tag k)
  done;
  let t = { vals; vecs = Array.make (Codec.count.get c) [||] } in
  for k = 0 to Array.length t.vecs - 1 do
    t.vecs.(k) <- get_array t get_value c
  done;
  (t, Codec.count.get c)

let put_status d b = function
  | Config.Running -> Codec.int.put b 0
  | Config.Decided v -> Codec.int.put b 1; Codec.int.put b (value_ref d v)
  | Config.Aborted -> Codec.int.put b 2
  | Config.Crashed -> Codec.int.put b 3

let get_status t c =
  match Codec.int.get c with
  | 0 -> Config.Running
  | 1 -> Config.Decided (get_value t c)
  | 2 -> Config.Aborted
  | 3 -> Config.Crashed
  | k -> Codec.bad_tag k

let put_config d (cfg : Config.t) =
  let b = d.body in
  put_values d b cfg.Config.locals;
  Codec.int.put b (vector_ref d cfg.Config.objects);
  let status = cfg.Config.status in
  Codec.count.put b (Array.length status);
  for i = 0 to Array.length status - 1 do
    put_status d b status.(i)
  done

(* Every configuration that names vector [k] gets the one array. *)
let get_config t c : Config.t =
  let locals = get_array t get_value c in
  let k = Codec.int.get c in
  if k < 0 || k >= Array.length t.vecs then
    Codec.malformed "vector reference %d out of range" k;
  { Config.locals; objects = t.vecs.(k); status = get_array t get_status c }

let encoder () =
  { section = 0; seen = [||]; index = [||]; n_values = 0;
    vectors = Vectors.create 256; values = Buffer.create 4096;
    vector_table = Buffer.create 4096; body = Buffer.create 4096 }

(* A section is the value table, the vector table, then the
   configurations that refer into them.  The configurations are encoded
   first, into their own buffer, so both tables are complete when they
   are written.  Decoding is {!get_table}, then one {!get_config} per
   configuration. *)
let put_configs d b n get =
  d.section <- d.section + 1;
  d.n_values <- 0;
  Vectors.clear d.vectors;
  Buffer.clear d.values;
  Buffer.clear d.vector_table;
  Buffer.clear d.body;
  Codec.count.put d.body n;
  for i = 0 to n - 1 do
    put_config d (get i)
  done;
  Codec.count.put b d.n_values;
  Buffer.add_buffer b d.values;
  Codec.count.put b (Vectors.length d.vectors);
  Buffer.add_buffer b d.vector_table;
  Buffer.add_buffer b d.body

let configs =
  {
    Codec.put =
      (fun b a -> put_configs (encoder ()) b (Array.length a) (Array.get a));
    get =
      (fun c ->
        let t, n = get_table c in
        collect t get_config n c);
  }
