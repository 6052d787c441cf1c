open Lbsa_runtime

(* Fairness-aware liveness checking: fair-cycle (lasso) detection over
   the reachable configuration graph, layered on the same iterative
   Tarjan SCC pass the valence analysis uses ({!Graph.scc}, here with a
   node mask) and on {!Graph.find_path} for the lasso's walks.

   A livelock is an infinite admissible execution in which some process
   runs forever without halting.  On a finite complete graph every
   infinite execution eventually stays inside one SCC, so livelock
   detection reduces to finding a *fair* SCC — one that supports an
   infinite schedule satisfying the substrate's fairness constraints —
   and a witness is a lasso: a finite prefix from the initial
   configuration to the component plus a cycle inside it.

   Statuses are absorbing (a halted process never runs again), so all
   configurations of an SCC share one status vector; "the running
   processes of a component" is well defined.

   The *no mandatory exits* constraint comes first: a configuration
   enabling a mandatory action ({!Substrate.mandatory_exit}) of a
   running process — a poised decide/abort commit, and for the
   message-passing substrate any send or guarded delivery that changes
   the (monotone-counter) network state — cannot appear on a fair
   cycle at all: the substrate's strong-fairness constraint says an
   action enabled infinitely often is eventually taken, and every
   mandatory action provably leaves its component.  So such
   configurations are masked out and SCCs are computed on the
   *restricted* subgraph.  (Masking before the SCC pass, rather than
   testing whole components of the full graph, matters: a fair cycle
   may wind through the clean part of a component whose other nodes do
   enable mandatory actions — a whole-component test would miss it and
   answer Live unsoundly.)

   A component [C] of the restricted subgraph is a fair cycle iff:

   1. it can be dwelt in at all: |C| > 1, or its single node has a
      self-loop;
   2. some process is still running (an all-halted terminal component
      is quiescence, not livelock);
   3. *process fairness*: every running process has at least one edge
      internal to [C].  A fair schedule must run every non-crashed
      process infinitely often; since [C] is strongly connected, any
      set of internal edges (one per running process) can be stitched
      into a single cycle, and conversely a process with no internal
      edge anywhere in [C] cannot take a step without leaving it.

   This is exactly the existence of a closed walk that avoids
   mandatory-enabling configurations and schedules every running
   process — the walk-level property [validate] checks witness-by-
   witness and the brute-force product-space oracle in the test
   battery decides independently.

   The criterion is exact for the unreduced graph of a complete
   exploration.  On the message-passing examples the reduction layers
   are identity (no certified symmetry group, no frozen objects), so
   verdicts agree across --reduce modes by construction; a truncated
   graph yields a partial verdict upstream. *)

type witness = {
  w_head : int;  (* node id the lasso loops through *)
  w_prefix : Graph.edge list;  (* initial -> head *)
  w_cycle : Graph.edge list;  (* head -> ... -> head, nonempty *)
}

type verdict = Live | Livelock of witness

type report = {
  verdict : verdict;
  sccs : int;  (* total SCC count *)
  cyclic_sccs : int;  (* components satisfying condition 1 *)
  fair_sccs : int;  (* components satisfying all four conditions *)
  wall_s : float;
}

let prefix_trace w = Trace.of_events (List.map (fun e -> e.Graph.event) w.w_prefix)
let cycle_trace w = Trace.of_events (List.map (fun e -> e.Graph.event) w.w_cycle)

let witness_pids w =
  List.sort_uniq Stdlib.compare (List.map (fun e -> e.Graph.pid) w.w_cycle)

(* A cycle through [head] inside the component [inside] marks,
   scheduling every pid of [must_cover] at least once: greedily walk
   (BFS, deterministic) to the nearest internal edge of a
   still-uncovered pid until all are covered, then close back at
   [head].  The stitched walk may revisit nodes — the Lasso shrinker
   exists to cut those detours. *)
let cycle_through graph ~inside ~head ~must_cover =
  let uncovered = ref must_cover in
  let cycle = ref [] in
  let cur = ref head in
  let guard = ref (List.length must_cover + 1) in
  while !uncovered <> [] && !guard > 0 do
    decr guard;
    match
      Graph.find_path ~mask:inside graph ~src:!cur ~accept:(fun pid v ->
          inside.(v) && List.mem pid !uncovered)
    with
    | None -> guard := 0 (* cannot happen for a fair component *)
    | Some path ->
      List.iter
        (fun e -> uncovered := List.filter (( <> ) e.Graph.pid) !uncovered)
        path;
      cycle := !cycle @ path;
      cur := (List.nth path (List.length path - 1)).Graph.target
  done;
  if !uncovered <> [] then None
  else if !cur = head && !cycle <> [] then Some !cycle
  else
    match
      Graph.find_path ~mask:inside graph ~src:!cur ~accept:(fun _pid v ->
          v = head)
    with
    | None -> None
    | Some path -> Some (!cycle @ path)

let analyze ~machine ~specs ~(substrate : Substrate.t) graph =
  let t0 = Unix.gettimeofday () in
  let _, full_sccs = Graph.scc graph in
  let n = Graph.n_nodes graph in
  (* Mask out configurations enabling a mandatory action of a running
     process: none may appear on a fair cycle (see the header). *)
  let good = Array.make n false in
  Graph.iter_nodes
    (fun u config ->
      good.(u) <-
        not
          (List.exists
             (fun pid ->
               substrate.Substrate.mandatory_exit ~machine ~specs config pid)
             (Config.running config)))
    graph;
  let comp, nc = Graph.scc ~mask:good graph in
  (* Internal-edge presence per restricted component, in one sweep. *)
  let has_internal = Array.make nc false in
  for u = 0 to n - 1 do
    if good.(u) then
      Graph.iter_out_steps graph u (fun _pid v ->
          if comp.(v) = comp.(u) then has_internal.(comp.(u)) <- true)
  done;
  (* Members per component, in node-id order: node ids are BFS order,
     so the first member — the component's head — is also its
     shallowest node. *)
  let members = Array.make nc [] in
  for u = n - 1 downto 0 do
    if good.(u) then members.(comp.(u)) <- u :: members.(comp.(u))
  done;
  let cyclic_sccs = ref 0 in
  let fair_sccs = ref 0 in
  let best = ref None in
  (* Components by ascending head id: [u] is a head iff it is the first
     member of its component.  The first fair one gives the witness, so
     the choice does not depend on how {!Graph.scc} numbers them. *)
  for head = 0 to n - 1 do
    let c = comp.(head) in
    if c >= 0 && List.hd members.(c) = head && has_internal.(c) then begin
      (* Condition 1: nontrivial, or a single node with a self-loop. *)
      incr cyclic_sccs;
      let running = Config.running (Graph.node graph head) in
      if running <> [] then begin
        (* Condition 3: every running pid has an internal edge. *)
        let covered = Hashtbl.create 8 in
        List.iter
          (fun u ->
            Graph.iter_out_steps graph u (fun pid v ->
                if comp.(v) = c then Hashtbl.replace covered pid ()))
          members.(c);
        let process_fair =
          List.for_all (fun pid -> Hashtbl.mem covered pid) running
        in
        if process_fair then begin
          incr fair_sccs;
          if !best = None then begin
            let inside = Array.map (fun c' -> c' = c) comp in
            match cycle_through graph ~inside ~head ~must_cover:running with
            | None -> ()
            | Some cycle -> (
              match Graph.shortest_path graph ~target:head with
              | None -> ()
              | Some prefix ->
                best := Some { w_head = head; w_prefix = prefix; w_cycle = cycle })
          end
        end
      end
    end
  done;
  {
    verdict = (match !best with None -> Live | Some w -> Livelock w);
    sccs = full_sccs;
    cyclic_sccs = !cyclic_sccs;
    fair_sccs = !fair_sccs;
    wall_s = Unix.gettimeofday () -. t0;
  }

(* Re-check a (possibly shrunk) witness against the graph — the oracle
   side of the acceptance criterion: the walk must be well-formed in
   the graph, the cycle must close at its head, schedule every running
   process, and pass through no configuration with a mandatory exit.
   A closed walk lies inside one SCC by construction, so no SCC pass is
   needed. *)
let validate ~machine ~specs ~(substrate : Substrate.t) graph w =
  let walk_ok src edges =
    let ok, last =
      List.fold_left
        (fun (ok, u) e ->
          let here =
            ok
            && Graph.exists_out_step graph u (fun pid v ->
                   pid = e.Graph.pid && v = e.Graph.target)
          in
          (here, e.Graph.target))
        (true, src) edges
    in
    (ok, last)
  in
  let pok, phead = walk_ok 0 w.w_prefix in
  let cok, cend = walk_ok w.w_head w.w_cycle in
  pok && cok && phead = w.w_head && cend = w.w_head && w.w_cycle <> []
  &&
  let nodes_on_cycle =
    w.w_head :: List.map (fun e -> e.Graph.target) w.w_cycle
  in
  let running = Config.running (Graph.node graph w.w_head) in
  let pids = witness_pids w in
  List.for_all (fun pid -> List.mem pid pids) running
  && List.for_all
       (fun u ->
         let config = Graph.node graph u in
         not
           (List.exists
              (fun pid ->
                substrate.Substrate.mandatory_exit ~machine ~specs config pid)
              running))
       nodes_on_cycle

let pp_witness ppf w =
  Fmt.pf ppf
    "@[<v>livelock lasso (head node %d):@,prefix (%d steps):@,%a@,cycle (%d \
     steps):@,%a@]"
    w.w_head (List.length w.w_prefix) Trace.pp (prefix_trace w)
    (List.length w.w_cycle) Trace.pp (cycle_trace w)

let pp_report ppf r =
  match r.verdict with
  | Live ->
    Fmt.pf ppf
      "@[<v>live: no fair cycle (%d SCCs, %d cyclic, 0 fair) [%.3f s]@]"
      r.sccs r.cyclic_sccs r.wall_s
  | Livelock w ->
    Fmt.pf ppf "@[<v>LIVELOCK: %d fair SCC%s of %d (%d cyclic) [%.3f s]@,%a@]"
      r.fair_sccs
      (if r.fair_sccs = 1 then "" else "s")
      r.sccs r.cyclic_sccs r.wall_s pp_witness w
