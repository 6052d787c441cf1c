open Lbsa_spec

(* Pluggable execution substrates: the communication-and-fault model of
   a protocol instance, extracted behind one record so the explorer,
   valence pass, solvability checkers and liveness analysis are all
   generic in it.

   The original model — crash-fault asynchronous shared memory, exactly
   the paper's — is the [shm] instance and delegates verbatim to
   [Config]; selecting it reproduces the pre-refactor explorer
   bit-for-bit (node ids, edge order, fingerprints).

   The [mp] instance is asynchronous message passing with an
   adversarial network: sends and receives are operations on one extra
   linearizable "network" object (always the *last* object of the spec
   array — the convention every mp machine follows), and the adversary
   controls delivery by choosing among the object's nondeterministic
   branches.  The network state is kept finite with threshold-guard
   delivery counters in the style of the aba_asyn_byz TLA+ models
   (SNIPPETS.md): a global send counter [nSnt.(t)] per message type and
   a per-process receive counter [nRcvd.(p).(t)], with delivery of type
   [t] to [p] enabled while [nRcvd.(p).(t) < nSnt.(t) + byz].  The
   abstraction collapses sender identity and message payloads beyond
   the (finite) type alphabet, so:

   - delayed delivery is the always-enabled "delay" branch (state
     unchanged, response ⊥ — the receiver polls again);
   - dropped messages are unbounded delay: under the fairness
     constraint below a sent message is eventually delivered, so a
     permanent drop is exactly an inadmissible schedule;
   - duplicated delivery is absorbed by the counters (a receiver
     counts deliveries, never message instances);
   - Byzantine faults ([byz] > 0, flag-gated) are message corruption
     over the finite type alphabet: up to [byz] phantom messages of
     each type may be delivered to each receiver beyond what was sent
     — the standard +f guard slack of the threshold-automata models.

   The initial configuration ([Config.initial]) and crash faults
   (scheduler surgery: [Config.crash] / [Fault]) are the same under
   every substrate, so neither is a field of [t].

   Fairness.  Each substrate declares which enabled actions an
   admissible infinite schedule must eventually take (strong fairness
   over these actions); [mandatory_exit] is that declaration, consumed
   by the liveness analysis: a strongly connected component of the
   configuration graph is a *fair* cycle only if no configuration in it
   enables a mandatory action.  For [shm] the mandatory actions are the
   poised decide/abort commits (a process that can decide eventually
   does).  For [mp] they are additionally the network-progress steps:
   any send or guarded delivery that changes the network state.
   Soundness of using these as SCC exits: network counters are
   monotone, so a counter-changing step can never return to an earlier
   configuration — such a step always leaves the component. *)

type t = {
  sname : string;
      (* user-facing name; recorded in checkpoints and cache keys *)
  step_branches :
    machine:Machine.t ->
    specs:Obj_spec.t array ->
    Config.t ->
    int ->
    (Config.t * Config.event) list;
  mandatory_exit :
    machine:Machine.t -> specs:Obj_spec.t array -> Config.t -> int -> bool;
}

let name t = t.sname

(* A poised decide/abort is mandatory under every substrate: statuses
   are absorbing, so committing one always leaves the current SCC, and
   strong fairness on commits says a process that can halt eventually
   does. *)
let commit_mandatory ~machine config pid =
  Config.is_running config pid
  &&
  match machine.Machine.delta ~pid config.Config.locals.(pid) with
  | Machine.Decide _ | Machine.Abort -> true
  | Machine.Invoke _ -> false

let shm =
  {
    sname = "shm";
    step_branches = (fun ~machine ~specs c pid -> Config.step_branches ~machine ~specs c pid);
    mandatory_exit =
      (fun ~machine ~specs:_ config pid -> commit_mandatory ~machine config pid);
  }

(* --- the message-passing network object -------------------------------- *)

let default_cap = 8

let type_index types t =
  let rec go i = function
    | [] -> invalid_arg (Fmt.str "Substrate: unknown message type %S" t)
    | x :: _ when String.equal x t -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 types

let send t = Op.make "send" [ Value.sym t ]

let recv ~pid ?(timeout = false) listen =
  Op.make "recv"
    [
      Value.int pid;
      Value.list (List.map Value.sym listen);
      Value.bool timeout;
    ]

let timeout_response = Value.sym "timeout"

let counters_of v = List.map Value.to_int_exn (Value.to_list_exn v)
let counters_to is = Value.list (List.map Value.int is)

let set_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

let network_spec ?(byz = 0) ?(cap = default_cap) ~n ~types () =
  if byz < 0 then invalid_arg "Substrate.network_spec: byz < 0";
  if cap < 1 then invalid_arg "Substrate.network_spec: cap < 1";
  if types = [] then invalid_arg "Substrate.network_spec: empty type alphabet";
  let zeros = counters_to (List.map (fun _ -> 0) types) in
  let initial = Value.pair (zeros, Value.list (List.init n (fun _ -> zeros))) in
  let split state =
    match Value.node state with
    | Value.Pair (nsnt, nrcvd) -> (nsnt, nrcvd)
    | _ -> invalid_arg "Substrate network: malformed state"
  in
  let step state (op : Op.t) =
    let nsnt_v, nrcvd_v = split state in
    match (op.Op.name, op.Op.args) with
    | "send", [ t ] ->
      let t = match Value.node t with
        | Value.Sym s -> s
        | _ -> invalid_arg "Substrate network: send expects a type symbol"
      in
      let ti = type_index types t in
      let nsnt = counters_of nsnt_v in
      let cur = List.nth nsnt ti in
      (* Saturate at [cap]: keeps the state space finite for machines
         that send unboundedly.  A saturated send changes nothing, so
         it is (correctly) not a mandatory network-progress action. *)
      let cur' = min cap (cur + 1) in
      let nsnt_v' =
        if cur' = cur then nsnt_v else counters_to (set_nth nsnt ti cur')
      in
      [
        {
          Obj_spec.next = Value.pair (nsnt_v', nrcvd_v);
          response = Value.int cur';
        };
      ]
    | "recv", [ pid; listen; timeout ] ->
      let pid = Value.to_int_exn pid in
      let timeout =
        match Value.node timeout with
        | Value.Bool b -> b
        | _ -> invalid_arg "Substrate network: recv expects a timeout flag"
      in
      let listen =
        List.map
          (fun v ->
            match Value.node v with
            | Value.Sym s -> s
            | _ -> invalid_arg "Substrate network: recv expects type symbols")
          (Value.to_list_exn listen)
      in
      let nsnt = counters_of nsnt_v in
      let rows = Value.to_list_exn nrcvd_v in
      let row = counters_of (List.nth rows pid) in
      (* Delivery branches in listen order, then the timeout branch,
         then the always-enabled delay branch — a fixed order so node
         ids are deterministic. *)
      let deliveries =
        List.filter_map
          (fun t ->
            let ti = type_index types t in
            let rcvd = List.nth row ti in
            if rcvd < List.nth nsnt ti + byz then
              let row' = counters_to (set_nth row ti (rcvd + 1)) in
              let nrcvd_v' = Value.list (set_nth rows pid row') in
              Some
                {
                  Obj_spec.next = Value.pair (nsnt_v, nrcvd_v');
                  response = Value.pair (Value.sym t, Value.int (rcvd + 1));
                }
            else None)
          listen
      in
      let timeouts =
        if timeout then
          [ { Obj_spec.next = state; response = timeout_response } ]
        else []
      in
      let delay = [ { Obj_spec.next = state; response = Value.bot } ] in
      deliveries @ timeouts @ delay
    | _ -> Obj_spec.unknown "network" op
  in
  let name =
    Fmt.str "net:%d:%s%s" n (String.concat "," types)
      (if byz = 0 then "" else Fmt.str ":byz%d" byz)
  in
  Obj_spec.make ~name ~initial ~step ()

(* The network object of a prepared mp spec array is, by convention,
   its last entry. *)
let net_index specs = Array.length specs - 1

let mp ?(byz = 0) () =
  let mandatory_exit ~machine ~specs config pid =
    Config.is_running config pid
    &&
    match machine.Machine.delta ~pid config.Config.locals.(pid) with
    | Machine.Decide _ | Machine.Abort -> true
    | Machine.Invoke { obj; op; _ } ->
      obj = net_index specs
      &&
      let st = config.Config.objects.(obj) in
      List.exists
        (fun (b : Obj_spec.branch) -> not (Value.equal b.Obj_spec.next st))
        (Obj_spec.branches specs.(obj) st op)
  in
  {
    sname = (if byz = 0 then "mp" else Fmt.str "mp+byz:%d" byz);
    step_branches = (fun ~machine ~specs c pid -> Config.step_branches ~machine ~specs c pid);
    mandatory_exit;
  }
