(** Pluggable execution substrates: the communication-and-fault model a
    protocol instance runs under, extracted behind one record so the
    explorer, solvability checkers and liveness analysis are generic in
    it.

    [shm] is the paper's model — crash-fault asynchronous shared memory
    — and delegates verbatim to {!Config}, so selecting it reproduces
    the pre-substrate explorer bit-for-bit.  [mp] is asynchronous
    message passing with an adversarial network, kept finite-state via
    threshold-guard delivery counters (the [nSnt]/[nRcvd] style of the
    aba_asyn_byz models in SNIPPETS.md); delivery is delayed, dropped
    or duplicated by adversary branch choice, and [byz > 0] adds
    Byzantine message corruption over the finite type alphabet as +byz
    guard slack.  See the implementation header for the full model and
    the fairness semantics. *)

open Lbsa_spec

type t = {
  sname : string;
      (** User-facing name ("shm", "mp", "mp+byz:f"); recorded in
          checkpoints and cache keys — a resume under a different
          substrate is refused. *)
  step_branches :
    machine:Machine.t ->
    specs:Obj_spec.t array ->
    Config.t ->
    int ->
    (Config.t * Config.event) list;
      (** All successors of one atomic step of the given pid — the step
          relation the explorer quantifies over. *)
  mandatory_exit :
    machine:Machine.t -> specs:Obj_spec.t array -> Config.t -> int -> bool;
      (** The substrate's fairness constraint: [mandatory_exit config
          pid] holds when the pid's next step includes an action an
          admissible infinite schedule must eventually take (a poised
          decide/abort commit; for [mp] also any send or guarded
          delivery that changes the network state).  Every such action
          provably leaves its SCC, so a fair cycle may contain no
          configuration enabling one. *)
}

val name : t -> string

val shm : t
(** Crash-fault asynchronous shared memory — the paper's model. *)

val mp : ?byz:int -> unit -> t
(** Message passing over an adversarial network.  The instance's spec
    array must carry the matching {!network_spec} as its {e last}
    object (the convention [mandatory_exit] relies on). *)

(** {2 The network object} *)

val network_spec :
  ?byz:int -> ?cap:int -> n:int -> types:string list -> unit -> Obj_spec.t
(** The shared network object for [n] processes over the finite message
    [types] alphabet.  State is [(nSnt per type, nRcvd per process per
    type)]; send counters saturate at [cap] (default 8) to keep
    unbounded senders finite-state.  [byz] phantom messages of each
    type may be delivered to each receiver beyond what was sent. *)

val send : string -> Op.t
(** [send t] broadcasts one message of type [t] (increments
    [nSnt.(t)]); responds with the new count. *)

val recv : pid:int -> ?timeout:bool -> string list -> Op.t
(** [recv ~pid listen] polls for a message of any type in [listen].
    Branches: one delivery per guarded type (response
    [Pair (type, new receive count)]), a [timeout] response when
    requested (the adversary may always time the receiver out), and an
    always-enabled delay (response ⊥ — poll again). *)

val timeout_response : Value.t

val net_index : Obj_spec.t array -> int
(** The network object's index in a prepared mp spec array (its last
    entry, by convention). *)
