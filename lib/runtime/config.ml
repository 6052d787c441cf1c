open Lbsa_spec

(* Global configurations: the joint state of all processes and all shared
   objects, plus per-process statuses.  This is the "configuration" of
   the paper's bivalency proofs, made concrete and comparable. *)

type status =
  | Running
  | Decided of Value.t
  | Aborted
  | Crashed

type t = {
  locals : Value.t array;
  objects : Value.t array;
  status : status array;
}

let compare_status a b =
  match (a, b) with
  | Running, Running -> 0
  | Running, _ -> -1
  | _, Running -> 1
  | Decided x, Decided y -> Value.compare x y
  | Decided _, _ -> -1
  | _, Decided _ -> 1
  | Aborted, Aborted -> 0
  | Aborted, _ -> -1
  | _, Aborted -> 1
  | Crashed, Crashed -> 0

let compare a b =
  let arr cmp x y =
    let c = Stdlib.compare (Array.length x) (Array.length y) in
    if c <> 0 then c
    else
      let rec go i =
        if i >= Array.length x then 0
        else
          let c = cmp x.(i) y.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
  in
  let c = arr Value.compare a.locals b.locals in
  if c <> 0 then c
  else
    let c = arr Value.compare a.objects b.objects in
    if c <> 0 then c else arr compare_status a.status b.status

let status_equal a b =
  match (a, b) with
  | Running, Running | Aborted, Aborted | Crashed, Crashed -> true
  | Decided x, Decided y -> Value.equal x y
  | (Running | Decided _ | Aborted | Crashed), _ -> false

(* Values are hash-consed, so [Value.equal] is pointer equality: the
   frequent equal-confirm of dedup tables is a per-element pointer scan,
   O(#processes), never a tree walk — even for configurations built by
   different parents that share nothing physically at the array level. *)
let equal a b =
  a == b
  ||
  let arr_eq eq x y =
    x == y
    || Array.length x = Array.length y
       &&
       let rec go i = i >= Array.length x || (eq x.(i) y.(i) && go (i + 1)) in
       go 0
  in
  arr_eq Value.equal a.locals b.locals
  && arr_eq Value.equal a.objects b.objects
  && arr_eq status_equal a.status b.status

(* Element-wise hash: every local, object state and status contributes in
   full — but [Value.hash_fold] reads each element's cached structural
   hash, so the whole fold is O(#processes), independent of value-tree
   size.  The hashes mixed here are structural, never intern ids, so the
   result is identical across processes and construction orders (the
   explorer's determinism depends on this). *)
let hash t =
  let comb = Value.hash_combine in
  let fold_status acc = function
    | Running -> comb acc 29
    | Decided v -> Value.hash_fold (comb acc 31) v
    | Aborted -> comb acc 37
    | Crashed -> comb acc 41
  in
  let acc = Array.fold_left Value.hash_fold 0x811c9dc5 t.locals in
  let acc = comb acc 43 in
  let acc = Array.fold_left Value.hash_fold acc t.objects in
  let acc = comb acc 47 in
  Array.fold_left fold_status acc t.status land max_int

let n_processes t = Array.length t.locals

let initial ~(machine : Machine.t) ~(specs : Obj_spec.t array) ~inputs =
  let n = Array.length inputs in
  {
    locals = Array.init n (fun pid -> machine.init ~pid ~input:inputs.(pid));
    objects = Array.map (fun (s : Obj_spec.t) -> s.initial) specs;
    status = Array.make n Running;
  }

let is_running t pid = t.status.(pid) = Running

let running t =
  List.filter (is_running t) (Lbsa_util.Listx.range 0 (n_processes t - 1))

let decision t pid =
  match t.status.(pid) with
  | Decided v -> Some v
  | Running | Aborted | Crashed -> None

let decisions t =
  Array.to_list t.status
  |> List.filter_map (function
       | Decided v -> Some v
       | Running | Aborted | Crashed -> None)

let all_halted t = running t = []

let crash t pid =
  let status = Array.copy t.status in
  status.(pid) <- Crashed;
  { t with status }

(* The outcome of one step of process [pid]: what happened, for traces
   and property checkers. *)
type event =
  | Op_event of { pid : int; obj : int; op : Op.t; response : Value.t }
  | Decide_event of { pid : int; value : Value.t }
  | Abort_event of { pid : int }

(* All successor configurations of letting [pid] take its next step,
   one per nondeterministic object branch. *)
let step_branches ~(machine : Machine.t) ~(specs : Obj_spec.t array) t pid :
    (t * event) list =
  if not (is_running t pid) then
    invalid_arg (Fmt.str "Config.step_branches: process %d is not running" pid);
  match machine.delta ~pid t.locals.(pid) with
  | Machine.Decide v ->
    let status = Array.copy t.status in
    status.(pid) <- Decided v;
    [ ({ t with status }, Decide_event { pid; value = v }) ]
  | Machine.Abort ->
    let status = Array.copy t.status in
    status.(pid) <- Aborted;
    [ ({ t with status }, Abort_event { pid }) ]
  | Machine.Invoke { obj; op; resume } ->
    if obj < 0 || obj >= Array.length specs then
      invalid_arg (Fmt.str "Config.step_branches: no object %d" obj);
    let state = t.objects.(obj) in
    Obj_spec.branches specs.(obj) state op
    |> List.map (fun (b : Obj_spec.branch) ->
           let locals = Array.copy t.locals in
           locals.(pid) <- resume b.response;
           (* A branch that leaves the object as it was (a read, a
              no-op) shares the parent's object vector, as every step
              but a halt shares its status array. *)
           let objects =
             if Value.equal b.next state then t.objects
             else begin
               let objects = Array.copy t.objects in
               objects.(obj) <- b.next;
               objects
             end
           in
           ( { t with locals; objects },
             Op_event { pid; obj; op; response = b.response } ))

(* Take a step resolving object nondeterminism with [choice]. *)
let step ~machine ~specs ~choice t pid =
  match step_branches ~machine ~specs t pid with
  | [ b ] -> b
  | bs ->
    let i = choice (List.map fst bs) in
    if i < 0 || i >= List.length bs then
      invalid_arg "Config.step: choice out of range";
    List.nth bs i

let pp_status ppf = function
  | Running -> Fmt.string ppf "running"
  | Decided v -> Fmt.pf ppf "decided %a" Value.pp v
  | Aborted -> Fmt.string ppf "aborted"
  | Crashed -> Fmt.string ppf "crashed"

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun pid local ->
      Fmt.pf ppf "p%d: %a [%a]@," pid Value.pp local pp_status t.status.(pid))
    t.locals;
  Array.iteri (fun i st -> Fmt.pf ppf "obj%d: %a@," i Value.pp st) t.objects;
  Fmt.pf ppf "@]"
