open Lbsa_util
open Lbsa_spec
open Lbsa_runtime

(* The value-dictionary codec; see the .mli for the layout. *)

(* Encoding state of one section.  Intern ids key the table (ids may
   serve as internal memo keys), but indices are handed out in order of
   first occurrence, so the bytes never depend on the ids. *)
type dict = {
  index : (int, int) Hashtbl.t;  (* Value intern id -> table index *)
  table : Buffer.t;
  body : Buffer.t;
}

let rec value_ref d (v : Value.t) =
  match Hashtbl.find_opt d.index v.Value.id with
  | Some i -> i
  | None ->
    let b = d.table and int = Codec.int.put d.table in
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

let put_int d = Codec.int.put d.body
let put_value d v = put_int d (value_ref d v)

let put_array d put a =
  Codec.count.put d.body (Array.length a);
  Array.iter (put d) a

(* An entry may only refer to entries before it, so the table is
   acyclic and decodes in one pass. *)
let get_table c =
  let vals = Array.make (Codec.count.get c) Value.unit_ in
  for i = 0 to Array.length vals - 1 do
    let earlier () =
      let j = Codec.int.get c in
      if j < 0 || j >= i then
        Codec.malformed "value %d refers to %d, not an earlier one" i j;
      vals.(j)
    in
    vals.(i) <-
      (match Codec.int.get c with
      | 0 -> Value.unit_
      | 1 -> Value.bool (Codec.bool.get c)
      | 2 -> Value.int (Codec.int.get c)
      | 3 -> Value.sym (Codec.string.get c)
      | 4 -> Value.bot
      | 5 -> Value.nil
      | 6 -> Value.done_
      | 7 -> let x = earlier () in Value.pair (x, earlier ())
      | 8 -> Value.list (List.init (Codec.count.get c) (fun _ -> earlier ()))
      | k -> Codec.bad_tag k)
  done;
  vals

let get_value vals c =
  let i = Codec.int.get c in
  if i < 0 || i >= Array.length vals then
    Codec.malformed "value reference %d out of range" i;
  vals.(i)

let get_array vals get c =
  Array.init (Codec.count.get c) (fun _ -> get vals c)

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

(* A section is the table, then the configurations that refer into it.
   The configurations are encoded first, into their own buffer, so the
   table is complete when it is written. *)
let configs =
  {
    Codec.put =
      (fun b a ->
        let d =
          { index = Hashtbl.create 1024; table = Buffer.create 4096;
            body = Buffer.create 4096 }
        in
        put_array d put_config a;
        Codec.count.put b (Hashtbl.length d.index);
        Buffer.add_buffer b d.table;
        Buffer.add_buffer b d.body);
    get =
      (fun c ->
        let vals = get_table c in
        get_array vals get_config c);
  }
