open Lbsa_util
open Lbsa_spec
open Lbsa_runtime

(* The value-dictionary codec; see the .mli for the layout. *)

(* Encoding state of one section, cleared for each: a writer that
   encodes many keeps one and reuses its table and buffers.  Intern ids
   key the table (ids may serve as internal memo keys), but indices are
   handed out in order of first occurrence, so the bytes never depend
   on the ids. *)
type encoder = {
  index : (int, int) Hashtbl.t;  (* Value intern id -> table index *)
  table : Buffer.t;
  body : Buffer.t;
}

let rec value_ref d (v : Value.t) =
  match Hashtbl.find d.index v.Value.id with
  | i -> i
  | exception Not_found ->
    let b = d.table in
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
    let i = Hashtbl.length d.index in
    Hashtbl.add d.index v.Value.id i;
    i

(* Every encoder and decoder below is applied to all of its arguments
   and loops with [for]: without flambda a partial application or a
   closure passed to [Array.iter]/[Array.init] is allocated per call,
   and these run once per value of every configuration. *)
let put_int d n = Codec.int.put d.body n
let put_value d v = put_int d (value_ref d v)

let put_array d put a =
  Codec.count.put d.body (Array.length a);
  for i = 0 to Array.length a - 1 do
    put d a.(i)
  done

(* Entry [i] may only refer to entries before it, so the table is
   acyclic and decodes in one pass. *)
let earlier vals i c =
  let j = Codec.int.get c in
  if j < 0 || j >= i then
    Codec.malformed "value %d refers to %d, not an earlier one" i j;
  vals.(j)

type table = Value.t array

(* The value table, then the count of configurations that refer into
   it. *)
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
  (vals, Codec.count.get c)

let get_value vals c =
  let i = Codec.int.get c in
  if i < 0 || i >= Array.length vals then
    Codec.malformed "value reference %d out of range" i;
  vals.(i)

(* The one decode loop: [n] elements, read in order into an array. *)
let collect vals get n c =
  if n = 0 then [||]
  else begin
    let a = Array.make n (get vals c) in
    for i = 1 to n - 1 do
      a.(i) <- get vals c
    done;
    a
  end

let get_array vals get c = collect vals get (Codec.count.get c) c

let put_status d = function
  | Config.Running -> put_int d 0
  | Config.Decided v -> put_int d 1; put_value d v
  | Config.Aborted -> put_int d 2
  | Config.Crashed -> put_int d 3

let get_status vals c =
  match Codec.int.get c with
  | 0 -> Config.Running
  | 1 -> Config.Decided (get_value vals c)
  | 2 -> Config.Aborted
  | 3 -> Config.Crashed
  | k -> Codec.bad_tag k

let put_config d (cfg : Config.t) =
  put_array d put_value cfg.Config.locals;
  put_array d put_value cfg.Config.objects;
  put_array d put_status cfg.Config.status

let get_config vals c : Config.t =
  let locals = get_array vals get_value c in
  let objects = get_array vals get_value c in
  { Config.locals; objects; status = get_array vals get_status c }

let encoder () =
  { index = Hashtbl.create 1024; table = Buffer.create 4096;
    body = Buffer.create 4096 }

(* A section is the table, then the configurations that refer into it.
   The configurations are encoded first, into their own buffer, so the
   table is complete when it is written.  Decoding is {!get_table},
   then one {!get_config} per configuration. *)
let put_configs d b n get =
  Hashtbl.clear d.index;
  Buffer.clear d.table;
  Buffer.clear d.body;
  Codec.count.put d.body n;
  for i = 0 to n - 1 do
    put_config d (get i)
  done;
  Codec.count.put b (Hashtbl.length d.index);
  Buffer.add_buffer b d.table;
  Buffer.add_buffer b d.body

let configs =
  {
    Codec.put =
      (fun b a -> put_configs (encoder ()) b (Array.length a) (Array.get a));
    get =
      (fun c ->
        let vals, n = get_table c in
        collect vals get_config n c);
  }
