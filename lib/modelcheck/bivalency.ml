open Lbsa_spec
open Lbsa_runtime

(* The bivalency toolkit: mechanized counterparts of the recurring moves
   in the paper's proofs (Sections 4 and 5).

   - critical configurations: bivalent configurations whose every
     successor is univalent (Claim 4.2.5 / Claim 5.2.2);
   - the "all poised on the same object" analysis (Claim 5.2.3);
   - maintainable bivalence: the FLP adversary argument — from every
     bivalent configuration some step leads to a bivalent configuration,
     so an infinite undecided run exists. *)

(* The passes below that only follow edges read the packed steps
   ({!Graph.iter_out_steps}): no edge record is materialized, and a
   spilled graph faults no segment. *)

(* Node ids of bivalent configurations with all successors univalent. *)
let critical_configurations (a : Valence.analysis) (graph : Graph.t) =
  let result = ref [] in
  for id = Graph.n_nodes graph - 1 downto 0 do
    if
      Valence.is_bivalent a id
      && Graph.out_degree graph id > 0
      && not
           (Graph.exists_out_step graph id (fun _pid v ->
                Valence.is_bivalent a v))
    then result := id :: !result
  done;
  !result

(* What each running process is poised to do at a configuration:
   [Some obj] if its next step is an operation on object [obj], [None]
   if it is about to decide or abort. *)
let poised ~(machine : Machine.t) (config : Config.t) =
  List.map
    (fun pid ->
      match machine.delta ~pid config.locals.(pid) with
      | Machine.Invoke { obj; _ } -> (pid, Some obj)
      | Machine.Decide _ | Machine.Abort -> (pid, None))
    (Config.running config)

(* Claim 5.2.3 analog: at this configuration, are all running processes
   poised on one and the same shared object?  Returns it if so. *)
let common_poised_object ~machine config =
  match poised ~machine config with
  | [] -> None
  | (_, first) :: rest ->
    if
      Option.is_some first
      && List.for_all
           (fun (_, o) ->
             match (o, first) with
             | Some a, Some b -> a = b
             | _ -> false)
           rest
    then first
    else None

(* Detailed poised-step analysis, used to mechanize the finer structure
   of the Section 5 proof (Subclaims 5.2.8.1/5.2.8.2: at the critical
   configuration every process is poised on a *decide* operation on the
   PAC object, never a propose).  The vocabulary lives in [Canon] —
   shared with the explorer's commit-step pruning — and is re-exported
   here under its historical name. *)
type poised_step = Canon.poised =
  | Poised_op of { obj : int; op : Op.t }
  | Poised_decide of Value.t
  | Poised_abort

let poised_ops ~machine config = Canon.poised_steps ~machine config

(* Do all running processes poise the same operation *name* on the same
   object?  Returns (object, op-name) if so. *)
let common_poised_op_name ~machine config =
  match poised_ops ~machine config with
  | (_, Poised_op { obj; op }) :: rest ->
    if
      List.for_all
        (function
          | _, Poised_op { obj = obj'; op = op' } ->
            obj = obj' && String.equal op.Op.name op'.Op.name
          | _, (Poised_decide _ | Poised_abort) -> false)
        rest
    then Some (obj, op.Op.name)
    else None
  | _ -> None

type critical_report = {
  node : int;
  config : Config.t;
  common_object : int option;  (* Some obj iff Claim 5.2.3 shape holds *)
  object_name : string option;
}

let report_critical ~machine ~(specs : Obj_spec.t array) graph a =
  List.map
    (fun node ->
      let config = Graph.node graph node in
      let common_object = common_poised_object ~machine config in
      {
        node;
        config;
        common_object;
        object_name =
          Option.map (fun obj -> specs.(obj).Obj_spec.name) common_object;
      })
    (critical_configurations a graph)

(* Claim 4.2.6 shape ("hooks"): a configuration C, processes p != q and
   steps such that p's step makes C v-valent while q's step followed by
   p's step makes it v̄-valent — the pivot every bivalency proof hinges
   on.  We search the graph for concrete instances. *)
type hook = {
  node : int;  (* C *)
  p : int;
  q : int;
  valent_after_p : Value.t;  (* e_p(C) is this-valent *)
  valent_after_qp : Value.t;  (* e_q e_p'(C) is this-valent *)
}

let pp_hook ppf h =
  Fmt.pf ppf "node %d: p%d-first -> %a-valent, p%d-then-p%d -> %a-valent"
    h.node h.p Value.pp h.valent_after_p h.q h.p Value.pp h.valent_after_qp

let find_hooks ?(limit = 10) (a : Valence.analysis) (graph : Graph.t) =
  let hooks = ref [] in
  let count = ref 0 in
  for c = 0 to Graph.n_nodes graph - 1 do
    if !count < limit then
      Graph.iter_out_steps graph c (fun p after_p ->
          match Valence.classify a after_p with
          | Valence.Valent v ->
            Graph.iter_out_steps graph c (fun q after_q ->
                if q <> p && !count < limit then
                  Graph.iter_out_steps graph after_q (fun p' after_qp ->
                      if p' = p && !count < limit then
                        match Valence.classify a after_qp with
                        | Valence.Valent v' when not (Value.equal v v') ->
                          incr count;
                          hooks :=
                            {
                              node = c;
                              p;
                              q;
                              valent_after_p = v;
                              valent_after_qp = v';
                            }
                            :: !hooks
                        | _ -> ()))
          | _ -> ())
  done;
  List.rev !hooks

(* The FLP adversary argument, finitized: bivalence is *maintainable* if
   every reachable bivalent configuration has at least one bivalent
   successor.  On a finite graph this implies an infinite run that never
   commits — the executable content of "consensus is impossible here".
   Returns [Ok ()] or the first bivalent dead-end (which would be a
   critical configuration). *)
let bivalence_maintainable (a : Valence.analysis) (graph : Graph.t) =
  match
    Graph.find_id graph (fun id ->
        Valence.is_bivalent a id
        && not
             (Graph.exists_out_step graph id (fun _pid v ->
                  Valence.is_bivalent a v)))
  with
  | None -> Ok ()
  | Some id -> Error id

(* Claim 4.2.2 analog for DAC graphs: every configuration from which an
   abort by the distinguished process has *happened* must be 0-valent.
   We check the stronger executable form: every configuration where p
   has aborted has decision set ⊆ {0}. *)
let aborts_are_0_valent (a : Valence.analysis) (graph : Graph.t) =
  let bad = ref None in
  Graph.iter_nodes
    (fun id (config : Config.t) ->
      if !bad = None && config.status.(0) = Config.Aborted then
        match Valence.decision_set a id with
        | [] -> ()
        | [ v ] when Value.equal v (Value.int 0) -> ()
        | _ -> bad := Some id)
    graph;
  match !bad with
  | None -> Ok ()
  | Some id -> Error id
