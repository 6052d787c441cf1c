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
   different parents that share nothing physically at the array level.
   Loops, not closures: see [Value.hash_array]. *)
let equal a b =
  a == b
  || Value.equal_array a.locals b.locals
     && Value.equal_array a.objects b.objects
     && (a.status == b.status
        || Array.length a.status = Array.length b.status
           &&
           let n = Array.length a.status in
           let rec go i =
             i = n || (status_equal a.status.(i) b.status.(i) && go (i + 1))
           in
           go 0)

(* Element-wise hash: every local, object state and status contributes in
   full — but each element contributes its cached structural hash, so
   the whole hash is O(#processes), independent of value-tree size.  The
   hashes mixed here are structural, never intern ids, so the result is
   identical across processes and construction orders (the explorer's
   determinism depends on this).  The bits are those of the original
   [Array.fold_left Value.hash_fold] form, kept in test/oracle.ml. *)
let hash t =
  let comb = Value.hash_combine in
  let acc = Value.hash_array 0x811c9dc5 t.locals in
  let acc = Value.hash_array (comb acc 43) t.objects in
  let acc = ref (comb acc 47) in
  for i = 0 to Array.length t.status - 1 do
    acc :=
      match t.status.(i) with
      | Running -> comb !acc 29
      | Decided v -> Value.hash_fold (comb !acc 31) v
      | Aborted -> comb !acc 37
      | Crashed -> comb !acc 41
  done;
  !acc land max_int

let n_processes t = Array.length t.locals

let initial ~(machine : Machine.t) ~(specs : Obj_spec.t array) ~inputs =
  let n = Array.length inputs in
  {
    locals = Array.init n (fun pid -> machine.init ~pid ~input:inputs.(pid));
    objects = Array.map (fun (s : Obj_spec.t) -> s.initial) specs;
    status = Array.make n Running;
  }

let is_running t pid = match t.status.(pid) with Running -> true | _ -> false

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

(* --- the step rule ------------------------------------------------------ *)

(* One copy of what a step makes of [t], for [step_branches] and the
   stepper alike: a halt copies the status array and shares the rest;
   an operation's branch copies [locals], and shares the parent's
   object vector when it leaves the object as it was (a read, a no-op),
   as every step but a halt shares its status array. *)

let not_running pid =
  invalid_arg (Fmt.str "Config.step_branches: process %d is not running" pid)

let halted t pid s event =
  let status = Array.copy t.status in
  status.(pid) <- s;
  [ ({ t with status }, event) ]

(* The state of the object an operation addresses. *)
let operand ~(specs : Obj_spec.t array) t obj =
  if obj < 0 || obj >= Array.length specs then
    invalid_arg (Fmt.str "Config.step_branches: no object %d" obj);
  t.objects.(obj)

let operated t pid obj state (b : Obj_spec.branch) local =
  let locals = Array.copy t.locals in
  locals.(pid) <- local;
  let objects =
    if Value.equal b.next state then t.objects
    else begin
      let objects = Array.copy t.objects in
      objects.(obj) <- b.next;
      objects
    end
  in
  { t with locals; objects }

(* All successor configurations of letting [pid] take its next step,
   one per nondeterministic object branch. *)
let step_branches ~(machine : Machine.t) ~(specs : Obj_spec.t array) t pid :
    (t * event) list =
  if not (is_running t pid) then not_running pid;
  match machine.delta ~pid t.locals.(pid) with
  | Machine.Decide v -> halted t pid (Decided v) (Decide_event { pid; value = v })
  | Machine.Abort -> halted t pid Aborted (Abort_event { pid })
  | Machine.Invoke { obj; op; resume } ->
    let state = operand ~specs t obj in
    Obj_spec.branches specs.(obj) state op
    |> List.map (fun (b : Obj_spec.branch) ->
           ( operated t pid obj state b (resume b.response),
             Op_event { pid; obj; op; response = b.response } ))

(* --- the transition memo ------------------------------------------------ *)

(* Int-keyed tables for intern ids.  The mix spreads dense ids, and a
   move key's pid in its low byte, over every bucket. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 20
end)

(* What a process does from one local state.  A halt keeps its status
   and event; an operation keeps its object, op and [resume], and
   [after] keeps, per response id, what [resume] made of that response
   and the step's event. *)
type move =
  | Halt of status * event
  | Operate of {
      obj : int;
      op : Op.t;
      resume : Value.t -> Value.t;
      after : (Value.t * event) Itbl.t;
    }

type stepper = {
  machine : Machine.t;
  specs : Obj_spec.t array;
  moves : move Itbl.t;  (* (local id lsl 8) lor pid -> move *)
}

let stepper ~machine ~specs = { machine; specs; moves = Itbl.create 64 }

(* A key packs the pid into 8 bits, so a larger pid is refused rather
   than left to alias another key ([Graph.build] refuses such machines
   at entry). *)
let key_pid_bits = 8

let step_memo st t pid =
  if not (is_running t pid) then not_running pid;
  if pid lsr key_pid_bits <> 0 then
    invalid_arg
      (Fmt.str "Config.step_memo: pid %d does not fit a stepper key" pid);
  let local = t.locals.(pid) in
  let key = (local.Value.id lsl key_pid_bits) lor pid in
  let move =
    match Itbl.find st.moves key with
    | m -> m
    | exception Not_found ->
      let m =
        match st.machine.delta ~pid local with
        | Machine.Decide v -> Halt (Decided v, Decide_event { pid; value = v })
        | Machine.Abort -> Halt (Aborted, Abort_event { pid })
        | Machine.Invoke { obj; op; resume } ->
          Operate { obj; op; resume; after = Itbl.create 1 }
      in
      Itbl.add st.moves key m;
      m
  in
  match move with
  | Halt (s, event) -> halted t pid s event
  | Operate { obj; op; resume; after } ->
    let state = operand ~specs:st.specs t obj in
    Obj_spec.branches st.specs.(obj) state op
    |> List.map (fun (b : Obj_spec.branch) ->
           let response = b.response in
           let local, event =
             match Itbl.find after response.Value.id with
             | r -> r
             | exception Not_found ->
               let r = (resume response, Op_event { pid; obj; op; response }) in
               Itbl.add after response.Value.id r;
               r
           in
           (operated t pid obj state b local, event))

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
