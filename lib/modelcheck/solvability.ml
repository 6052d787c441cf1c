open Lbsa_spec
open Lbsa_runtime

(* Exhaustive task verification: does a protocol solve a task for *every*
   schedule and *every* resolution of object nondeterminism?

   The reachable configuration graph (Graph.build) contains every
   interleaving, so checking a safety property at every node quantifies
   over all finite executions, and liveness properties reduce to
   structural properties of the finite graph:

   - wait-free termination of process pid fails iff some reachable cycle
     contains a step of pid (pid can take infinitely many steps without
     halting);
   - solo termination of pid from configuration C fails iff the pid-solo
     subgraph from C contains a cycle, or a leaf where pid is still
     running (the solo run gets stuck). *)

type verdict = {
  ok : bool;
  outcome : Supervisor.outcome;
      (* Done = definitive verdict; anything else = partial (the
         explored prefix held, but exploration was cut short) *)
  inputs : Value.t array;
  states : int;
  failure : string option;
  stats : Graph.stats option;  (* exploration stats of the checked graph *)
  suspended : Graph.suspended option;
      (* frozen exploration for checkpoint/resume, on partial outcomes *)
}

let pp_verdict ppf v =
  if v.ok then
    Fmt.pf ppf "OK (inputs=%a, %d states)"
      Fmt.(array ~sep:(any ",") Value.pp)
      v.inputs v.states
  else if Supervisor.is_partial v.outcome then
    Fmt.pf ppf "PARTIAL [%a] (inputs=%a, %d states): %s" Supervisor.pp_outcome
      v.outcome
      Fmt.(array ~sep:(any ",") Value.pp)
      v.inputs v.states
      (Option.value v.failure ~default:"?")
  else
    Fmt.pf ppf "FAIL (inputs=%a, %d states): %s"
      Fmt.(array ~sep:(any ",") Value.pp)
      v.inputs v.states
      (Option.value v.failure ~default:"?")

let fail ?(outcome = Supervisor.Done) ?stats ?suspended ~inputs ~states msg =
  { ok = false; outcome; inputs; states; failure = Some msg; stats; suspended }

let pass ?stats ~inputs ~states () =
  {
    ok = true;
    outcome = Supervisor.Done;
    inputs;
    states;
    failure = None;
    stats;
    suspended = None;
  }

(* A graph cut short (quota, deadline, cancellation, worker failure)
   still proves safety on every explored configuration, so partial
   verdicts are produced AFTER the safety scan: a violation in the
   prefix is a definitive FAIL; absence of one is merely partial. *)
let partial ~(graph : Graph.t) ~stats ~inputs ~states () =
  fail ~outcome:graph.Graph.stop ?suspended:graph.Graph.suspended ~stats ~inputs
    ~states
    (Fmt.str "exploration stopped (%a); safety holds on the %d explored states"
       Supervisor.pp_outcome graph.Graph.stop states)

(* --- liveness primitives -------------------------------------------- *)

(* Does some reachable cycle contain a step of [pid]?  Using the SCC
   condensation [comp] ([Graph.scc], computed once for every process):
   yes iff some SCC contains an edge of [pid] internal to it (including
   self-loops).  Both searches are pure topology, so they read the
   packed targets store ([Graph.exists_out_step]) and never fault
   segments on an out-of-core graph. *)
let cycle_with_step_of (graph : Graph.t) ~comp pid =
  Graph.find_id graph (fun u ->
      Graph.exists_out_step graph u (fun pid' target ->
          pid' = pid && comp.(u) = comp.(target)))

(* Any cycle at all (some process can run forever). *)
let any_cycle (graph : Graph.t) =
  let comp, n_comps = Graph.scc graph in
  let sizes = Array.make n_comps 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  Graph.find_id graph (fun u ->
      sizes.(comp.(u)) > 1
      || Graph.exists_out_step graph u (fun _pid target -> target = u))

(* Solo termination of [pid] from [config], off the graph: explore the
   pid-solo subgraph (all nondeterministic branches), requiring that
   every run halts pid in a status satisfying [accept].  The cache keeps
   one table per pid, keyed by [Config.hash]/[Config.equal] (the
   polymorphic hash reads only a few words of a configuration): both
   outcomes of every configuration walked, and [On_path] while it is on
   the DFS path — reaching one closes a solo cycle.  No answer depends
   on the path: a [false] means a solo cycle is reachable (a cycle's
   [false] propagates only up the path, to configurations that reach
   the cycle) or some solo run halts in a status [accept] refuses; a
   [true] means the subtree was explored in full without either. *)
module Ctab = Hashtbl.Make (Config)

type solo_mark = On_path | Halts | Fails
type solo_cache = (int, solo_mark Ctab.t) Hashtbl.t

let solo_cache () : solo_cache = Hashtbl.create 8

let solo_halts ?(cache = solo_cache ()) ?(substrate = Substrate.shm) ~machine
    ~specs ~pid ~accept config =
  let marks =
    match Hashtbl.find_opt cache pid with
    | Some m -> m
    | None ->
      let m = Ctab.create 1024 in
      Hashtbl.replace cache pid m;
      m
  in
  let rec go config =
    match Ctab.find_opt marks config with
    | Some mark -> mark = Halts
    | None when not (Config.is_running config pid) ->
      accept config.Config.status.(pid)
    | None ->
      Ctab.replace marks config On_path;
      let r =
        List.for_all
          (fun (config', _) -> go config')
          (substrate.Substrate.step_branches ~machine ~specs config pid)
      in
      Ctab.replace marks config (if r then Halts else Fails);
      r
  in
  go config

(* Does some [pid]-solo run from [config] reach a configuration where
   [pid] aborted?  Each configuration is walked once, so a solo cycle
   ends the walk instead of spinning it. *)
let solo_aborts ~substrate ~machine ~specs ~pid config =
  let seen = Ctab.create 64 in
  let rec go config =
    (not (Ctab.mem seen config))
    && begin
      Ctab.replace seen config ();
      config.Config.status.(pid) = Config.Aborted
      || Config.is_running config pid
         && List.exists
              (fun (config', _) -> go config')
              (substrate.Substrate.step_branches ~machine ~specs config pid)
    end
  in
  go config

(* The same two questions on a graph that keeps every step
   ([Graph.keeps_every_step]), where node u's [pid]-edges are exactly
   pid's solo steps from u's configuration; [status.(u)] is u's status
   array.  [solo_halting_of] answers [solo_halts] for every node with
   one memoised DFS over pid's packed out-steps (int-array stacks): a
   running node halts iff every pid-edge leads to a halting node, and
   an edge to a failing node or to one on the DFS path (a solo cycle)
   fails the whole path, since every node on it reaches that edge. *)
let solo_halting_of (graph : Graph.t) ~status ~pid ~accept =
  let white = 0 and grey = 1 and halts = 2 and fails = 3 in
  let colour =
    Array.map
      (fun st ->
        if st.(pid) = Config.Running then white
        else if accept st.(pid) then halts
        else fails)
      status
  in
  let n = Array.length colour in
  let stack = Array.make n 0 and cursor = Array.make n 0 in
  let sp = ref (-1) in
  let enter u =
    colour.(u) <- grey;
    incr sp;
    stack.(!sp) <- u;
    cursor.(!sp) <- Graph.offset graph u
  in
  for root = 0 to n - 1 do
    if colour.(root) = white then enter root;
    while !sp >= 0 do
      let u = stack.(!sp) and i = cursor.(!sp) in
      if i = Graph.offset graph (u + 1) then begin
        colour.(u) <- halts;
        decr sp
      end
      else begin
        cursor.(!sp) <- i + 1;
        if Graph.step_pid graph i = pid then
          let v = Graph.step_target graph i in
          if colour.(v) = white then enter v
          else if colour.(v) <> halts then begin
            for k = 0 to !sp do
              colour.(stack.(k)) <- fails
            done;
            sp := -1
          end
      end
    done
  done;
  Array.map (fun c -> c = halts) colour

let statuses (graph : Graph.t) =
  let status = Array.make (Graph.n_nodes graph) [||] in
  Graph.iter_nodes (fun id config -> status.(id) <- config.Config.status) graph;
  status

let solo_halting graph = solo_halting_of graph ~status:(statuses graph)

(* [solo_aborts] from node [root]: reachability over [pid]'s edges with a
   visited bitmap and an int-array stack. *)
let solo_aborts_on_graph (graph : Graph.t) ~status ~pid root =
  let n = Array.length status in
  let seen = Array.make n false and stack = Array.make n root in
  let sp = ref 1 and found = ref false in
  seen.(root) <- true;
  while !sp > 0 && not !found do
    decr sp;
    let u = stack.(!sp) in
    found := status.(u).(pid) = Config.Aborted;
    Graph.iter_out_steps graph u (fun pid' v ->
        if pid' = pid && not seen.(v) then begin
          seen.(v) <- true;
          stack.(!sp) <- v;
          incr sp
        end)
  done;
  !found

(* --- task checkers --------------------------------------------------- *)

(* Every checker takes the same steps: build the graph, scan safety at
   every node (a violation is definitive even on a cut-short graph),
   and only on a complete graph check liveness.  A task fixes the
   safety judge and the liveness condition:
   - [Consensus]: agreement, validity and no aborts; wait-freedom of
     every process;
   - [Kset k]: at most k distinct valid decisions; no cycle at all;
   - [Dac]: Section 4's four n-DAC properties with the paper's weak
     termination — agreement, validity and p-only aborts at every node;
     nontriviality (no abort along p-solo runs from the initial
     configuration, exactly the runs where no q stepped); termination
     (a), p running solo halts from every node; termination (b), every
     q != p running solo decides from every node. *)
type task = Consensus | Kset of int | Dac

let ( <|> ) a b = match a with None -> b () | Some _ -> a

let of_result pp = function Ok () -> None | Error v -> Some (Fmt.str "%a" pp v)

(* The safety judge: a violation description, or None. *)
let safety task ~inputs config =
  let open Lbsa_protocols in
  match task with
  | Consensus ->
    of_result Consensus_task.pp_violation
      (Consensus_task.check_safety ~inputs config)
  | Kset k ->
    of_result Kset_task.pp_violation (Kset_task.check_safety ~k ~inputs config)
  | Dac ->
    of_result Dac.pp_violation (Dac.check_agreement config)
    <|> (fun () ->
          of_result Dac.pp_violation (Dac.check_validity ~inputs config))
    <|> fun () -> of_result Dac.pp_violation (Dac.check_aborts config)

(* Nontriviality and termination (a)/(b) of n-DAC, on a complete graph
   built under [reduce].  A graph that keeps every step answers from its
   own edges; a reduced one prunes steps or links orbit
   representatives, so its solo runs are walked off the graph.  The
   failure is the first node in id order, p's (a) before q's (b), q
   ascending.  Either way the configurations are read in one streamed
   walk ({!statuses}, or {!Graph.find_map_node} up to the failure), so
   a spilled graph reads each segment once. *)
let dac_progress ?(substrate = Substrate.shm) ~reduce ~machine ~specs
    (graph : Graph.t) =
  let p = Lbsa_protocols.Dac.distinguished in
  let accept pid = function
    | Config.Decided _ -> true
    | Config.Aborted -> pid = p
    | Config.Running | Config.Crashed -> false
  in
  (* Node [id]'s first running process that [halts] says does not. *)
  let failure ~pids id (status : Config.status array) halts =
    Option.map
      (fun pid ->
        if pid = p then Fmt.str "node %d: termination (a) fails for p" id
        else Fmt.str "node %d: termination (b) fails for q%d" id pid)
      (List.find_opt
         (fun pid -> status.(pid) = Config.Running && not (halts pid))
         pids)
  in
  let nontriviality = Some "nontriviality: p aborted in a p-solo run" in
  if Graph.keeps_every_step reduce then
    let status = statuses graph in
    let pids = List.init (Array.length status.(graph.initial)) Fun.id in
    if solo_aborts_on_graph graph ~status ~pid:p graph.initial then nontriviality
    else
      let halting =
        Array.of_list
          (List.map
             (fun pid -> solo_halting_of graph ~status ~pid ~accept:(accept pid))
             pids)
      in
      Seq.find_map
        (fun id -> failure ~pids id status.(id) (fun pid -> halting.(pid).(id)))
        (Seq.init (Array.length status) Fun.id)
  else
    let init = Graph.node graph graph.initial in
    let pids = List.init (Array.length init.Config.status) Fun.id in
    if solo_aborts ~substrate ~machine ~specs ~pid:p init then nontriviality
    else
      let cache = solo_cache () in
      Graph.find_map_node graph (fun id config ->
          failure ~pids id config.Config.status (fun pid ->
              solo_halts ~cache ~substrate ~machine ~specs ~pid
                ~accept:(accept pid) config))

(* The liveness condition, checked on a complete graph only. *)
let liveness task ~substrate ~reduce ~machine ~specs ~inputs graph =
  match task with
  | Consensus ->
    let comp, _ = Graph.scc graph in
    List.find_map
      (fun pid ->
        Option.map
          (Fmt.str
             "process %d can take infinitely many steps (cycle at node %d)" pid)
          (cycle_with_step_of graph ~comp pid))
      (List.init (Array.length inputs) Fun.id)
  | Kset _ ->
    Option.map (Fmt.str "livelock (cycle at node %d)") (any_cycle graph)
  | Dac -> dac_progress ~substrate ~reduce ~machine ~specs graph

let check ?(max_states = Graph.default_max_states) ?domains ?budget
    ?(substrate = Substrate.shm) ?(reduce = Graph.no_reduction) ?resume ?shards
    ?spill ~task ~machine ~specs ~inputs () =
  let graph =
    Graph.build ~max_states ?domains ?budget ~substrate ~reduce ?resume ?shards
      ?spill ~machine ~specs ~inputs ()
  in
  let states = Graph.n_nodes graph in
  let stats = Graph.stats graph in
  let violation id config =
    match (task, safety task ~inputs config) with
    | Dac, Some msg -> Some (Fmt.str "node %d: %s" id msg)
    | _, v -> v
  in
  match Graph.find_map_node graph violation with
  | Some msg -> fail ~stats ~inputs ~states msg
  | None when graph.truncated -> partial ~graph ~stats ~inputs ~states ()
  | None -> (
    match liveness task ~substrate ~reduce ~machine ~specs ~inputs graph with
    | Some msg -> fail ~stats ~inputs ~states msg
    | None -> pass ~stats ~inputs ~states ())

let check_dac = check ~task:Dac

(* --- counterexample witnesses ----------------------------------------- *)

(* A violating configuration together with the schedule reproducing it:
   the pids to run, in order, from the initial configuration.  With
   nondeterministic objects the witness also needs the branch picked at
   each step; [replay] therefore re-walks the stored edges. *)
type witness = {
  schedule : int list;
  violation : string;
  config : Config.t;
}

let pp_witness ppf w =
  Fmt.pf ppf "@[<v>violation: %s@,schedule: %a@,configuration:@,%a@]"
    w.violation
    Fmt.(list ~sep:(any " ") int)
    w.schedule Config.pp w.config

(* The outcome of a witness search.  A found witness is definitive even
   on a truncated graph (the violating prefix was explored in full); the
   *absence* of one is only meaningful when the whole reachable set was
   scanned, so a cut-short exploration without a hit must not masquerade
   as "no witness" — that was a false negative until this variant forced
   callers to distinguish the cases. *)
type witness_search =
  | Witness of witness
  | No_witness  (* exhaustive: the complete graph holds no violation *)
  | Search_truncated of Supervisor.outcome
      (* no violation in the explored prefix, but exploration stopped
         early — the verdict is inconclusive *)

(* Find the first configuration violating [judge] and extract its
   schedule.  [judge] returns a violation description, or None.
   Witness searches always run unreduced: the schedule must replay
   concretely from the initial configuration, which a symmetry-quotient
   graph (whose edges connect orbit representatives) does not
   guarantee. *)
let find_safety_witness ?(max_states = Graph.default_max_states) ~machine ~specs
    ~inputs ~(judge : Config.t -> string option) () =
  let graph = Graph.build ~max_states ~machine ~specs ~inputs () in
  let found =
    Graph.find_map_node graph (fun id config ->
        Option.map (fun violation -> (id, config, violation)) (judge config))
  in
  match found with
  | None ->
    if graph.truncated then Search_truncated graph.stop else No_witness
  | Some (id, config, violation) ->
    let path = Option.get (Graph.shortest_path graph ~target:id) in
    Witness { schedule = Graph.schedule_of_path path; violation; config }

let witness ?max_states ~task ~machine ~specs ~inputs () =
  find_safety_witness ?max_states ~machine ~specs ~inputs
    ~judge:(safety task ~inputs) ()

type family_stats = {
  vectors : int;
  fan_domains : int;
  total_states : int;
  wall_s : float;
  vectors_per_sec : float;
}

let pp_family_stats ppf s =
  Fmt.pf ppf
    "family: %d vectors, %d states total, %.3f s (%.0f vectors/s, %d domain%s)"
    s.vectors s.total_states s.wall_s s.vectors_per_sec s.fan_domains
    (if s.fan_domains = 1 then "" else "s")

(* The sweep is one [Supervisor.first_hit] over the vector indices: a
   failing verdict is a hit, and the partial verdicts for an exhausted
   vector or a budget stop name the vector at [completed] — the first
   one not checked — so they too are the same for every domain count. *)
let for_all_inputs_timed ?(domains = 1) ?budget check inputs_list =
  if inputs_list = [] then invalid_arg "Solvability.for_all_inputs: no inputs";
  let vectors = Array.of_list inputs_list in
  let n = Array.length vectors in
  let t0 = Unix.gettimeofday () in
  let states = Atomic.make 0 in
  let last = Atomic.make None in
  let scan =
    Supervisor.first_hit ~domains ?budget ~lo:0 ~hi:n (fun i ->
        let v = check vectors.(i) in
        ignore (Atomic.fetch_and_add states v.states);
        if not v.ok then Some v
        else begin
          if i = n - 1 then Atomic.set last (Some v);
          None
        end)
  in
  let unchecked outcome failure =
    {
      ok = false;
      outcome;
      inputs = vectors.(scan.completed);
      states = 0;
      failure = Some failure;
      stats = None;
      suspended = None;
    }
  in
  let verdict =
    match (scan.hit, scan.outcome) with
    | Some (_, v), _ -> v
    | None, Supervisor.Done -> Option.get (Atomic.get last)
    | None, (Supervisor.Worker_failed { exn; attempts; _ } as o) ->
      unchecked o
        (Fmt.str "checker raised after %d attempt%s: %s" attempts
           (if attempts = 1 then "" else "s")
           exn)
    | None, o ->
      unchecked o
        (Fmt.str "input-family sweep stopped (%a) before all %d vectors"
           Supervisor.pp_outcome o n)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  ( verdict,
    {
      vectors = n;
      fan_domains = scan.domains_used;
      total_states = Atomic.get states;
      wall_s;
      vectors_per_sec = (if wall_s > 0. then float_of_int n /. wall_s else 0.);
    } )

let for_all_inputs ?domains ?budget check inputs_list =
  fst (for_all_inputs_timed ?domains ?budget check inputs_list)
