(* The model checker: configuration graphs, valence, the bivalency
   toolkit, and exhaustive task solvability — including the experiments
   that mechanize the paper's positive theorems on small instances. *)

open Lbsa

(* --- graph construction ----------------------------------------------- *)

let test_graph_counts_tiny () =
  (* One process, two steps: write then decide.  Graph: 3 nodes chain. *)
  let name = "wd" in
  let machine =
    Machine.make ~name
      ~init:(fun ~pid:_ ~input -> Value.pair (Value.sym "w", input))
      ~delta:(fun ~pid state ->
        match state with
        | { Value.node = Pair ({ node = Sym "w"; _ }, x); _ } ->
          Machine.invoke 0 (Register.write x) (fun _ -> Value.pair (Value.sym "d", x))
        | { Value.node = Pair ({ node = Sym "d"; _ }, x); _ } -> Machine.Decide x
        | s -> Machine.bad_state ~machine:name ~pid s)
  in
  let graph =
    Cgraph.build ~machine ~specs:[| Register.spec () |] ~inputs:[| Value.int 1 |] ()
  in
  Alcotest.(check int) "3 nodes" 3 (Cgraph.n_nodes graph);
  Alcotest.(check int) "2 edges" 2 (Cgraph.n_edges graph);
  Alcotest.(check bool) "complete" true (not graph.Cgraph.truncated)

let test_graph_nondet_branches () =
  (* Two processes each propose once to a 2-SA object: the second propose
     forks on the adversary's choice. *)
  let machine = Consensus_protocols.one_shot ~name:"sa" ~mk_op:Sa2.propose () in
  let graph =
    Cgraph.build ~machine ~specs:[| Sa2.spec () |]
      ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  (* Some node must have two out-edges for the same pid (the nondet
     fork). *)
  let forked = ref false in
  Cgraph.iter_nodes
    (fun id _ ->
      let es = Cgraph.out_edges graph id in
      List.iter
        (fun pid ->
          if
            List.length (List.filter (fun (e : Cgraph.edge) -> e.pid = pid) es)
            >= 2
          then forked := true)
        [ 0; 1 ])
    graph;
  Alcotest.(check bool) "nondeterministic fork present" true !forked

let test_graph_truncation () =
  let machine, specs = Candidates.flp_spin in
  let graph =
    Cgraph.build ~max_states:5 ~machine ~specs
      ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  Alcotest.(check bool) "truncated" true graph.Cgraph.truncated;
  match Cgraph.require_complete graph with
  | exception Cgraph.Truncated -> ()
  | _ -> Alcotest.fail "require_complete must raise"

let test_scc_on_spin_graph () =
  (* flp_spin's graph has cycles (the spin loops). *)
  let machine, specs = Candidates.flp_spin in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  Alcotest.(check bool) "cycle found" true (Solvability.any_cycle graph <> None);
  (* The spin loops are self-loops, so components are singletons; the
     SCC decomposition must still cover every node exactly once. *)
  let comp, n_comps = Cgraph.scc graph in
  Alcotest.(check int) "component array covers nodes" (Cgraph.n_nodes graph)
    (Array.length comp);
  Alcotest.(check bool) "component ids in range" true
    (Array.for_all (fun c -> c >= 0 && c < n_comps) comp);
  (* A genuinely multi-node SCC: two processes ping-ponging between two
     registers. *)
  let machine, specs = Candidates.consensus_from_pac_retry ~n:2 ~procs:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let comp, n_comps = Cgraph.scc graph in
  Alcotest.(check bool) "multi-node SCC exists (livelock ring)" true
    (n_comps < Array.length comp)

(* --- explorer determinism and statistics ------------------------------- *)

let test_build_matches_cmap_oracle () =
  (* The rewritten explorer against the seed explorer, on a branchy
     nondeterministic graph and on a consensus graph. *)
  List.iter
    (fun (label, (machine, specs), inputs) ->
      let g = Cgraph.build ~machine ~specs ~inputs () in
      let oracle = Oracle.build_cmap ~machine ~specs ~inputs () in
      Oracle.same_graph label g oracle)
    [
      ( "2-SA one-shot",
        ( Consensus_protocols.one_shot ~name:"sa" ~mk_op:Sa2.propose (),
          [| Sa2.spec () |] ),
        [| Value.int 0; Value.int 1 |] );
      ( "3-consensus",
        Consensus_protocols.from_consensus_obj ~m:3,
        [| Value.int 0; Value.int 1; Value.int 0 |] );
    ]

(* The build steps every process through its worker's transition memo:
   [delta] runs at most once per distinct (pid, local state) per worker,
   and exactly once per key at one domain.  of:3:1's peak frontier (459)
   passes the parallel threshold, so 2 and 4 domains run several
   workers.  The graph is the plain-stepping oracle's. *)
let test_build_steps_once_per_key () =
  let n = 3 and max_rounds = 1 in
  let plain = Obstruction_free.machine_spin ~n ~max_rounds in
  let specs = Obstruction_free.specs ~n ~max_rounds in
  let inputs = Array.init n (fun pid -> Value.int (pid mod 2)) in
  let calls = Atomic.make 0 in
  let machine =
    {
      plain with
      Machine.delta =
        (fun ~pid s ->
          Atomic.incr calls;
          plain.delta ~pid s);
    }
  in
  let oracle = Oracle.build_cmap ~machine:plain ~specs ~inputs () in
  List.iter
    (fun domains ->
      Atomic.set calls 0;
      let g = Cgraph.build ~domains ~machine ~specs ~inputs () in
      let delta_calls = Atomic.get calls in
      let keys = Hashtbl.create 256 in
      Cgraph.iter_nodes
        (fun _ (c : Config.t) ->
          List.iter
            (fun pid -> Hashtbl.replace keys (pid, c.locals.(pid).Value.id) ())
            (Config.running c))
        g;
      let keys = Hashtbl.length keys in
      let label = Fmt.str "of:3:1, domains=%d" domains in
      if domains = 1 then
        Alcotest.(check int) (label ^ ": one delta per key") keys delta_calls
      else if delta_calls > domains * keys then
        Alcotest.failf "%s: %d delta calls for %d keys" label delta_calls keys;
      Oracle.same_graph label g oracle)
    [ 1; 2; 4 ]

let test_build_domain_count_invariant () =
  (* Identical node ids and edges whatever the domain count.  dac5's
     peak frontier exceeds the parallel threshold, so the 4-domain build
     exercises real multi-domain expansion. *)
  let n = 5 in
  let machine = Dac_from_pac.machine ~n and specs = Dac_from_pac.specs ~n in
  let inputs = Array.init n (fun pid -> Value.int (if pid = 0 then 1 else 0)) in
  let g1 = Cgraph.build ~domains:1 ~machine ~specs ~inputs () in
  let g4 = Cgraph.build ~domains:4 ~machine ~specs ~inputs () in
  Oracle.same_graph "domains 1 vs 4" g1 (Oracle.of_graph g4);
  Alcotest.(check int) "1-domain stats" 1 (Cgraph.stats g1).Cgraph.domains;
  Alcotest.(check int) "4-domain stats" 4 (Cgraph.stats g4).Cgraph.domains

let test_build_domains_1_2_4_with_oracle () =
  (* Domain counts 1, 2 and 4 on two protocol graphs of different shape
     (branchy consensus-object graph, DAC-from-PAC graph), with the seed
     CMap explorer as a fourth, independently-computed reference. *)
  List.iter
    (fun (label, (machine, specs), inputs) ->
      let oracle = Oracle.build_cmap ~machine ~specs ~inputs () in
      List.iter
        (fun domains ->
          let g = Cgraph.build ~domains ~machine ~specs ~inputs () in
          Oracle.same_graph (Fmt.str "%s, domains=%d" label domains) g oracle)
        [ 1; 2; 4 ])
    [
      ( "cons:2",
        Consensus_protocols.from_consensus_obj ~m:2,
        [| Value.int 0; Value.int 1 |] );
      ( "dac:3",
        (Dac_from_pac.machine ~n:3, Dac_from_pac.specs ~n:3),
        [| Value.int 1; Value.int 0; Value.int 0 |] );
    ]

let test_truncation_point_domain_invariant () =
  (* A bound small enough to cut the graph mid-exploration: every domain
     count must stop at the same point — same node ids, same edges, same
     truncated flag — or downstream analyses would silently diverge on
     partial graphs. *)
  let machine, specs = (Dac_from_pac.machine ~n:3, Dac_from_pac.specs ~n:3) in
  let inputs = [| Value.int 1; Value.int 0; Value.int 0 |] in
  let g1 = Cgraph.build ~max_states:40 ~domains:1 ~machine ~specs ~inputs () in
  Alcotest.(check bool) "bound actually truncates" true g1.Cgraph.truncated;
  List.iter
    (fun domains ->
      let g =
        Cgraph.build ~max_states:40 ~domains ~machine ~specs ~inputs ()
      in
      Alcotest.(check bool)
        (Fmt.str "domains=%d truncated" domains)
        g1.Cgraph.truncated g.Cgraph.truncated;
      Oracle.same_graph
        (Fmt.str "truncated, domains 1 vs %d" domains)
        g1 (Oracle.of_graph g))
    [ 2; 4 ]

let test_intern_order_independent_across_processes () =
  (* The cross-process regression for THE ID-NEVER-ORDERS INVARIANT
     (lib/spec/value.ml): run the CLI's [fingerprint] command in two
     fresh processes, the second one interning a thousand junk values
     first so every id the graph's values receive is shifted.  Node ids,
     edge order, truncation and all structural hashes must be byte-for-
     byte identical. *)
  let exe = Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let run warmup =
    let out = Filename.temp_file "lbsa_fp" ".out" in
    let cmd =
      Fmt.str "%s fingerprint -n 3 --intern-warmup %d > %s"
        (Filename.quote exe) warmup (Filename.quote out)
    in
    let rc = Sys.command cmd in
    let ic = open_in out in
    let line = input_line ic in
    close_in ic;
    Sys.remove out;
    Alcotest.(check int) (Fmt.str "warmup=%d exit code" warmup) 0 rc;
    line
  in
  let base = run 0 and shifted = run 1000 in
  Alcotest.(check bool) "fingerprint line non-trivial" true
    (String.length base > String.length "fingerprint=");
  Alcotest.(check string) "fingerprints agree across intern orders" base
    shifted

let test_exploration_stats_sane () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let g =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let s = Cgraph.stats g in
  Alcotest.(check int) "states = node count" (Cgraph.n_nodes g) s.Cgraph.states;
  Alcotest.(check int) "edges = edge count" (Cgraph.n_edges g) s.Cgraph.edges;
  Alcotest.(check bool) "levels > 0" true (s.Cgraph.levels > 0);
  Alcotest.(check int) "one frontier size per level" s.Cgraph.levels
    (Array.length s.Cgraph.frontier_sizes);
  (* Every node passes through the frontier exactly once. *)
  Alcotest.(check int) "frontier sizes sum to states" s.Cgraph.states
    (Array.fold_left ( + ) 0 s.Cgraph.frontier_sizes);
  Alcotest.(check bool) "peak frontier sane" true
    (s.Cgraph.peak_frontier >= 1 && s.Cgraph.peak_frontier <= s.Cgraph.states);
  Alcotest.(check bool) "wall clock non-negative" true (s.Cgraph.wall_s >= 0.);
  Alcotest.(check bool) "dedup rate in [0,1]" true
    (s.Cgraph.dedup_rate >= 0. && s.Cgraph.dedup_rate <= 1.);
  Alcotest.(check bool) "not truncated" true (not s.Cgraph.truncated)

let test_verdict_carries_stats () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let v =
    Solvability.check ~task:Solvability.Consensus ~machine ~specs
      ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  match v.Solvability.stats with
  | Some s ->
    Alcotest.(check int) "stats states = verdict states" v.Solvability.states
      s.Cgraph.states
  | None -> Alcotest.fail "verdict carries no exploration stats"

(* --- valence ----------------------------------------------------------- *)

let consensus_2cons_graph inputs =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let graph = Cgraph.build ~machine ~specs ~inputs () in
  (graph, Valence.analyze graph, machine, specs)

let test_initial_config_bivalent () =
  (* With inputs 0,1 and a 2-consensus object, the schedule decides who
     proposes first, so the initial configuration is bivalent. *)
  let graph, a, _, _ = consensus_2cons_graph [| Value.int 0; Value.int 1 |] in
  Alcotest.(check bool) "initial bivalent" true
    (Valence.is_bivalent a graph.Cgraph.initial)

let test_same_inputs_univalent () =
  (* With equal inputs, validity forces 0-valence everywhere. *)
  let graph, a, _, _ = consensus_2cons_graph [| Value.int 0; Value.int 0 |] in
  Alcotest.(check bool) "0-valent" true
    (Valence.is_valent a graph.Cgraph.initial (Value.int 0))

let test_decided_configs_univalent () =
  let graph, a, _, _ = consensus_2cons_graph [| Value.int 0; Value.int 1 |] in
  Cgraph.iter_nodes
    (fun id config ->
      match Config.decisions config with
      | d :: _ ->
        Alcotest.(check bool) "decided node is d-valent" true
          (Valence.is_valent a id d)
      | [] -> ())
    graph

(* The condensation-pass valence against the seed worklist fixpoint: the
   two analyses must agree on every accessor at every node. *)
let check_valence_agrees label graph =
  let a = Valence.analyze graph in
  let o = Oracle.analyze_fixpoint graph in
  for id = 0 to Cgraph.n_nodes graph - 1 do
    let ca = Valence.classify a id and co = Oracle.classify o id in
    if ca <> co then
      Alcotest.failf "%s: node %d classified %a, oracle says %a" label id
        Valence.pp_classification ca Valence.pp_classification co;
    if
      not
        (List.equal Value.equal
           (Valence.decision_set a id)
           (Oracle.decision_set o id))
    then Alcotest.failf "%s: node %d decision sets differ" label id;
    if Valence.abort_reachable a id <> Oracle.abort_reachable o id then
      Alcotest.failf "%s: node %d abort reachability differs" label id
  done

let test_valence_matches_fixpoint_oracle () =
  (* The bench graphs, plus the cyclic candidates: flp_spin (self-loop
     spins) and pac-retry consensus (a multi-node livelock SCC), where
     the condensation pass actually has non-singleton components to
     collapse. *)
  List.iter
    (fun (label, (machine, specs), inputs) ->
      check_valence_agrees label (Cgraph.build ~machine ~specs ~inputs ()))
    [
      ( "cons:2",
        Consensus_protocols.from_consensus_obj ~m:2,
        [| Value.int 0; Value.int 1 |] );
      ( "cons:3",
        Consensus_protocols.from_consensus_obj ~m:3,
        [| Value.int 0; Value.int 1; Value.int 0 |] );
      ( "dac:3",
        (Dac_from_pac.machine ~n:3, Dac_from_pac.specs ~n:3),
        [| Value.int 1; Value.int 0; Value.int 0 |] );
      ("flp_spin (cyclic)", Candidates.flp_spin, [| Value.int 0; Value.int 1 |]);
      ( "pac-retry (livelock SCC)",
        Candidates.consensus_from_pac_retry ~n:2 ~procs:2,
        [| Value.int 0; Value.int 1 |] );
    ]

let test_valence_matches_oracle_randomized () =
  (* Randomized input vectors drive the same machines through different
     graph shapes (decided sinks move, abort sets change); ten seeded
     draws per machine. *)
  let prng = Prng.create 2026 in
  for trial = 1 to 10 do
    let inputs = Array.init 3 (fun _ -> Value.int (Prng.int prng 2)) in
    let machine, specs =
      if Prng.bool prng then
        (Dac_from_pac.machine ~n:3, Dac_from_pac.specs ~n:3)
      else Consensus_protocols.from_consensus_obj ~m:3
    in
    check_valence_agrees
      (Fmt.str "randomized trial %d (%s)" trial machine.Machine.name)
      (Cgraph.build ~machine ~specs ~inputs ())
  done

let test_valence_summary_consistent () =
  let graph, a, _, _ = consensus_2cons_graph [| Value.int 0; Value.int 1 |] in
  let s = Valence.summarize a in
  Alcotest.(check int) "counts partition nodes" (Cgraph.n_nodes graph)
    (s.Valence.n_bivalent + s.Valence.n_univalent + s.Valence.n_undecided);
  Alcotest.(check bool) "some bivalent" true (s.Valence.n_bivalent > 0);
  Alcotest.(check bool) "some univalent" true (s.Valence.n_univalent > 0)

(* --- bivalency toolkit: the proof's moves on a real protocol ---------- *)

let test_critical_configuration_structure () =
  (* Claims 5.2.2/5.2.3 mechanized on consensus-from-2-consensus among 2
     processes: critical configurations exist, and at each one every
     running process is poised on the same non-register object (the
     2-consensus object). *)
  let graph, a, machine, specs =
    consensus_2cons_graph [| Value.int 0; Value.int 1 |]
  in
  let reports = Bivalency.report_critical ~machine ~specs graph a in
  Alcotest.(check bool) "critical configurations exist" true (reports <> []);
  List.iter
    (fun (r : Bivalency.critical_report) ->
      match r.Bivalency.object_name with
      | Some name -> Alcotest.(check string) "poised on the consensus object"
          "2-consensus" name
      | None -> Alcotest.fail "critical config without common poised object")
    reports

let test_flp_trichotomy_on_register_candidates () =
  (* The FLP trichotomy, finitized.  A register-only consensus candidate
     either (i) has schedule-dependent decisions and then violates
     agreement (flp-write-read), or (ii) is safe but has a
     schedule-independent decision (flp-spin decides the minimum: the
     initial configuration is univalent) and pays with non-wait-free
     spinning. *)
  let machine, specs = Candidates.flp_write_read in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  Alcotest.(check bool) "write-read: initial bivalent" true
    (Valence.is_bivalent a graph.Cgraph.initial);
  let machine, specs = Candidates.flp_spin in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  Alcotest.(check bool) "spin: initial 0-valent (always the minimum)" true
    (Valence.is_valent a graph.Cgraph.initial (Value.int 0))

let test_bivalence_maintainable_over_bare_pac () =
  (* The FLP adversary survives over a bare 2-PAC object: the retry
     protocol's initial configuration is bivalent and every reachable
     bivalent configuration has a bivalent successor, so the adversary
     can avoid a decision forever (the livelock the paper's ⊥ responses
     create).  Evidence that an n-PAC object alone does not raise the
     consensus number above 1. *)
  let machine, specs = Candidates.consensus_from_pac_retry ~n:2 ~procs:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  Alcotest.(check bool) "initial bivalent" true
    (Valence.is_bivalent a graph.Cgraph.initial);
  match Bivalency.bivalence_maintainable a graph with
  | Ok () -> ()
  | Error id -> Alcotest.failf "bivalent dead-end at node %d" id

let test_consensus_object_breaks_bivalence_maintenance () =
  (* In contrast, over a 2-consensus object the bivalence is NOT
     maintainable: critical configurations are dead-ends into
     univalence.  (This is exactly why consensus is solvable there.) *)
  let graph, a, _, _ = consensus_2cons_graph [| Value.int 0; Value.int 1 |] in
  match Bivalency.bivalence_maintainable a graph with
  | Ok () -> Alcotest.fail "bivalence should not be maintainable"
  | Error _ -> ()

let test_dac_aborts_are_0_valent () =
  (* Claim 4.2.2 on Algorithm 2 with the paper's canonical inputs
     (p has 1, everyone else 0): any configuration where p aborted can
     only reach decision 0. *)
  let n = 3 in
  let machine = Dac_from_pac.machine ~n in
  let specs = Dac_from_pac.specs ~n in
  let inputs = [| Value.int 1; Value.int 0; Value.int 0 |] in
  let graph = Cgraph.build ~machine ~specs ~inputs () in
  let a = Valence.analyze graph in
  (match Bivalency.aborts_are_0_valent a graph with
  | Ok () -> ()
  | Error id -> Alcotest.failf "abort-yet-not-0-valent at node %d" id);
  (* Claim 4.2.4: the initial configuration I is bivalent. *)
  Alcotest.(check bool) "I bivalent" true
    (Valence.is_bivalent a graph.Cgraph.initial)

let test_poised_op_names_at_criticals () =
  (* Claims 5.2.3-5.2.5 fine structure on the solvable instance:
     consensus among m over one (n,m)-PAC (via PROPOSEC).  At every
     critical configuration, all processes are poised on the SAME
     operation name (proposeC) on the SAME object — the consensus facet,
     which is exactly where Claim 5.2.5 says the decision must happen. *)
  let machine, specs = Consensus_protocols.from_pac_nm ~n:2 ~m:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  let criticals = Bivalency.critical_configurations a graph in
  Alcotest.(check bool) "criticals exist" true (criticals <> []);
  List.iter
    (fun node ->
      match
        Bivalency.common_poised_op_name ~machine (Cgraph.node graph node)
      with
      | Some (0, "proposeC") -> ()
      | Some (obj, name) ->
        Alcotest.failf "node %d poised on obj%d.%s, expected proposeC" node
          obj name
      | None -> Alcotest.failf "node %d: mixed poised steps" node)
    criticals;
  (* Contrapositive over a bare PAC: the retry protocol has NO critical
     configuration at all (Claim 5.2.8's impossibility shape: the PAC
     cannot host the decision point). *)
  let machine, specs = Candidates.consensus_from_pac_retry ~n:2 ~procs:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  Alcotest.(check (list int)) "no critical configuration over a bare PAC" []
    (Bivalency.critical_configurations a graph)

let test_poised_reporting () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let c =
    Config.initial ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |]
  in
  (match Bivalency.poised ~machine c with
  | [ (0, Some 0); (1, Some 0) ] -> ()
  | other ->
    Alcotest.failf "unexpected poised result (%d entries)" (List.length other));
  Alcotest.(check (option int)) "common object" (Some 0)
    (Bivalency.common_poised_object ~machine c)

(* --- solvability: the paper's positive theorems, exhaustively --------- *)

let test_theorem_4_1_exhaustive () =
  (* Theorem 4.1 for n = 2 and n = 3: Algorithm 2 solves n-DAC, checked
     over all schedules, for all binary inputs. *)
  List.iter
    (fun n ->
      let machine = Dac_from_pac.machine ~n in
      let specs = Dac_from_pac.specs ~n in
      let verdict =
        Solvability.for_all_inputs
          (fun inputs -> Solvability.check_dac ~machine ~specs ~inputs ())
          (Dac.binary_inputs n)
      in
      if not verdict.Solvability.ok then
        Alcotest.failf "n=%d: %a" n Solvability.pp_verdict verdict)
    [ 2; 3 ]

let test_for_all_inputs_domains_agree () =
  (* The parallel fan-out's contract: the verdict — including WHICH
     failing vector is reported — is identical for any domain count.
     First on a real sweep (dac:3 solves DAC on all 8 binary vectors, so
     every domain count must return the same passing verdict for the
     LAST vector), then on synthetic checks failing at chosen indices
     (the fan-out must report the lowest failing index even when a
     later-failing vector finishes first in another domain). *)
  let machine = Dac_from_pac.machine ~n:3 in
  let specs = Dac_from_pac.specs ~n:3 in
  let family = Dac.binary_inputs 3 in
  let sweep d =
    Solvability.for_all_inputs ~domains:d
      (fun inputs -> Solvability.check_dac ~domains:1 ~machine ~specs ~inputs ())
      family
  in
  let reference = sweep 1 in
  Alcotest.(check bool) "dac:3 family passes" true reference.Solvability.ok;
  List.iter
    (fun d ->
      let v = sweep d in
      Alcotest.(check bool)
        (Fmt.str "domains=%d: same ok" d)
        reference.Solvability.ok v.Solvability.ok;
      Alcotest.(check bool)
        (Fmt.str "domains=%d: same reported vector" d)
        true
        (Array.for_all2 Value.equal reference.Solvability.inputs
           v.Solvability.inputs))
    [ 2; 4 ];
  let vectors = Array.of_list family in
  List.iter
    (fun failing ->
      let synthetic inputs =
        let i = ref 0 in
        Array.iteri (fun j v -> if Array.for_all2 Value.equal v inputs then i := j) vectors;
        {
          Solvability.ok = not (List.mem !i failing);
          outcome = Supervisor.Done;
          inputs;
          states = 1;
          failure = (if List.mem !i failing then Some "synthetic" else None);
          stats = None;
          suspended = None;
        }
      in
      let r1 = Solvability.for_all_inputs ~domains:1 synthetic family in
      List.iter
        (fun d ->
          let v = Solvability.for_all_inputs ~domains:d synthetic family in
          Alcotest.(check bool)
            (Fmt.str "synthetic %s, domains=%d: same ok"
               (String.concat "," (List.map string_of_int failing))
               d)
            r1.Solvability.ok v.Solvability.ok;
          Alcotest.(check bool)
            (Fmt.str "synthetic %s, domains=%d: lowest failing vector"
               (String.concat "," (List.map string_of_int failing))
               d)
            true
            (Array.for_all2 Value.equal r1.Solvability.inputs
               v.Solvability.inputs))
        [ 2; 4 ])
    [ []; [ 7 ]; [ 3; 5 ]; [ 6; 2 ]; [ 0; 1; 2; 3; 4; 5; 6; 7 ] ]

let test_consensus_solvable_exhaustive () =
  (* m-consensus object solves consensus among m, all schedules, m=2,3. *)
  List.iter
    (fun m ->
      let machine, specs = Consensus_protocols.from_consensus_obj ~m in
      let verdict =
        Solvability.for_all_inputs
          (fun inputs ->
            Solvability.check ~task:Solvability.Consensus
              ~machine ~specs ~inputs ())
          (Consensus_task.binary_inputs m)
      in
      if not verdict.Solvability.ok then
        Alcotest.failf "m=%d: %a" m Solvability.pp_verdict verdict)
    [ 2; 3 ]

let test_kset_solvable_exhaustive () =
  (* 2-set agreement among 4 processes from two 2-consensus objects
     (partition), distinct inputs, all schedules. *)
  let machine, specs = Kset_protocols.partition ~m:2 ~k:2 in
  let verdict =
    Solvability.check ~task:(Solvability.Kset 2) ~machine ~specs
      ~inputs:(Kset_task.distinct_inputs 4) ()
  in
  if not verdict.Solvability.ok then
    Alcotest.failf "partition: %a" Solvability.pp_verdict verdict;
  (* 2-set agreement among 4 from one 2-SA object (all object
     nondeterminism explored). *)
  let machine, specs = Kset_protocols.from_sa2 ~k:2 in
  let verdict =
    Solvability.check ~task:(Solvability.Kset 2) ~machine ~specs
      ~inputs:(Kset_task.distinct_inputs 4) ()
  in
  if not verdict.Solvability.ok then
    Alcotest.failf "2-SA: %a" Solvability.pp_verdict verdict;
  (* And over EVERY input vector from a 3-value domain (27 vectors),
     3 processes. *)
  let verdict =
    Solvability.for_all_inputs
      (fun inputs ->
        Solvability.check ~task:(Solvability.Kset 2)
          ~machine ~specs ~inputs ())
      (Kset_task.all_inputs ~d:3 3)
  in
  if not verdict.Solvability.ok then
    Alcotest.failf "2-SA all-inputs: %a" Solvability.pp_verdict verdict

let test_classic_constructions_exhaustive () =
  (* Herlihy's level-2 constructions solve 2-consensus, exhaustively. *)
  List.iter
    (fun (machine, specs) ->
      let verdict =
        Solvability.for_all_inputs
          (fun inputs ->
            Solvability.check ~task:Solvability.Consensus
              ~machine ~specs ~inputs ())
          (Consensus_task.binary_inputs 2)
      in
      if not verdict.Solvability.ok then
        Alcotest.failf "%s: %a" machine.Machine.name Solvability.pp_verdict
          verdict)
    [
      Consensus_protocols.from_test_and_set ();
      Consensus_protocols.from_queue ();
      Consensus_protocols.from_fetch_and_add ();
      Consensus_protocols.from_swap ();
    ];
  (* CAS and sticky seat 3 processes (they are level-∞). *)
  List.iter
    (fun (machine, specs) ->
      let verdict =
        Solvability.for_all_inputs
          (fun inputs ->
            Solvability.check ~task:Solvability.Consensus
              ~machine ~specs ~inputs ())
          (Consensus_task.binary_inputs 3)
      in
      if not verdict.Solvability.ok then
        Alcotest.failf "%s: %a" machine.Machine.name Solvability.pp_verdict
          verdict)
    [
      Consensus_protocols.from_compare_and_swap ();
      Consensus_protocols.from_sticky ();
    ]

let test_candidates_fail_exhaustive () =
  (* flp-write-read: safety violation found. *)
  let machine, specs = Candidates.flp_write_read in
  let verdict =
    Solvability.check ~task:Solvability.Consensus ~machine ~specs
      ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  Alcotest.(check bool) "flp-write-read fails" false verdict.Solvability.ok;
  (* flp-spin: wait-freedom violation (cycle) found. *)
  let machine, specs = Candidates.flp_spin in
  let verdict =
    Solvability.check ~task:Solvability.Consensus ~machine ~specs
      ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  Alcotest.(check bool) "flp-spin fails" false verdict.Solvability.ok;
  (* 3-DAC candidates (Theorem 4.2's evidence). *)
  List.iter
    (fun (label, (machine, specs)) ->
      let verdict =
        Solvability.for_all_inputs
          (fun inputs -> Solvability.check_dac ~machine ~specs ~inputs ())
          (Dac.binary_inputs 3)
      in
      Alcotest.(check bool) label false verdict.Solvability.ok)
    [
      ("3dac-sa2-then-cons2 fails", Candidates.dac3_sa2_then_cons2);
      ("3dac-cons2-announce fails", Candidates.dac3_cons2_announce);
    ];
  (* (m+1)-consensus from (n,m)-PAC (Theorem 5.2's evidence). *)
  let machine, specs = Candidates.consensus_m1_from_pac_nm ~n:2 ~m:2 in
  let verdict =
    Solvability.for_all_inputs
      (fun inputs ->
        Solvability.check ~task:Solvability.Consensus
          ~machine ~specs ~inputs ())
      (Consensus_task.binary_inputs 3)
  in
  Alcotest.(check bool) "3-consensus from (2,2)-PAC fails" false
    verdict.Solvability.ok

let test_witness_schedule_replays () =
  (* Extract the disagreement witness for flp-write-read and replay its
     schedule through the executor: the violation must reproduce. *)
  let machine, specs = Candidates.flp_write_read in
  let inputs = [| Value.int 0; Value.int 1 |] in
  match
    Solvability.witness ~task:Solvability.Consensus ~machine ~specs ~inputs ()
  with
  | Solvability.No_witness | Solvability.Search_truncated _ ->
    Alcotest.fail "expected a disagreement witness"
  | Solvability.Witness w ->
    Alcotest.(check bool) "schedule non-empty" true (w.Solvability.schedule <> []);
    let r =
      Executor.run ~machine ~specs ~inputs
        ~scheduler:(Scheduler.fixed w.Solvability.schedule) ()
    in
    (match Consensus_task.check_safety ~inputs r.Executor.final with
    | Error _ -> ()
    | Ok () ->
      Alcotest.failf "witness schedule did not reproduce:@.%a"
        (fun ppf -> Solvability.pp_witness ppf)
        w)

let test_dac_witness () =
  let machine, specs = Candidates.dac3_sa2_then_cons2 in
  let inputs = [| Value.int 1; Value.int 0; Value.int 0 |] in
  match
    Solvability.witness ~task:Solvability.Dac ~machine ~specs ~inputs ()
  with
  | Solvability.No_witness | Solvability.Search_truncated _ ->
    (* This input vector may be safe; some binary vector must witness. *)
    let witnessed =
      List.exists
        (fun inputs ->
          match
            Solvability.witness ~task:Solvability.Dac ~machine ~specs ~inputs ()
          with
          | Solvability.Witness _ -> true
          | Solvability.No_witness | Solvability.Search_truncated _ -> false)
        (Dac.binary_inputs 3)
    in
    Alcotest.(check bool) "some input vector witnesses" true witnessed
  | Solvability.Witness w ->
    Alcotest.(check bool) "violation described" true
      (String.length w.Solvability.violation > 0)

let test_hooks_exist_on_consensus_graph () =
  (* Claim 4.2.6's pivot exists concretely: on the 2-consensus protocol
     graph, swapping one p-step and one q-step flips the valence. *)
  let graph, a, _, _ = consensus_2cons_graph [| Value.int 0; Value.int 1 |] in
  let hooks = Bivalency.find_hooks a graph in
  Alcotest.(check bool) "hooks found" true (hooks <> []);
  List.iter
    (fun (h : Bivalency.hook) ->
      Alcotest.(check bool) "opposite valences" false
        (Value.equal h.Bivalency.valent_after_p h.Bivalency.valent_after_qp))
    hooks;
  (* Complementary fact: over a bare 2-PAC no hook exists at all —
     delaying the decisive step never lands in the OPPOSITE valence,
     only back in bivalence (the ⊥ response resets the race).  That is
     exactly why the adversary can maintain bivalence there. *)
  let machine, specs = Candidates.consensus_from_pac_retry ~n:2 ~procs:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  Alcotest.(check (list string)) "no hooks on the bare PAC graph" []
    (List.map
       (fun h -> Fmt.str "%a" Bivalency.pp_hook h)
       (Bivalency.find_hooks a graph))

let test_shortest_path_initial () =
  let graph, _, _, _ = consensus_2cons_graph [| Value.int 0; Value.int 1 |] in
  Alcotest.(check (option (list int)))
    "empty path to the initial node" (Some [])
    (Option.map Cgraph.schedule_of_path
       (Cgraph.shortest_path graph ~target:graph.Cgraph.initial))

(* --- the graph kernels: masked SCC and path search ----------------------- *)

let kernel_graphs () =
  let dac n =
    ( Dac_from_pac.machine ~n,
      Dac_from_pac.specs ~n,
      Array.init n (fun pid -> Value.int (if pid = 0 then 1 else 0)) )
  in
  let build ?substrate (machine, specs, inputs) =
    Cgraph.build ?substrate ~machine ~specs ~inputs ()
  in
  let cons2, cons2_specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let retry, retry_specs = Candidates.consensus_from_pac_retry ~n:2 ~procs:2 in
  let two = [| Value.int 0; Value.int 1 |] in
  [
    ("dac:3", build (dac 3));
    ("cons:2", build (cons2, cons2_specs, two));
    ( "vc:3",
      build ~substrate:(Substrate.mp ())
        ( View_change.machine ~n:3,
          View_change.specs ~n:3 (),
          View_change.inputs ~n:3 ) );
    ("pac-retry (livelock SCC)", build (retry, retry_specs, two));
  ]

(* Brute force: [reach.(u).(v)] iff [v] is reachable from [u] through
   nodes of [mask] only, read off the full edge records. *)
let reach_within g mask =
  let n = Cgraph.n_nodes g in
  Array.init n (fun u ->
      let seen = Array.make n false in
      if mask.(u) then begin
        let rec go u =
          if not seen.(u) then begin
            seen.(u) <- true;
            List.iter
              (fun (e : Cgraph.edge) -> if mask.(e.target) then go e.target)
              (Cgraph.out_edges g u)
          end
        in
        go u
      end;
      seen)

let test_masked_scc_is_mutual_reachability () =
  let prng = Prng.create 19 in
  List.iter
    (fun (label, g) ->
      let n = Cgraph.n_nodes g in
      let masks =
        Array.make n true
        :: List.init 4 (fun _ -> Array.init n (fun _ -> Prng.int prng 4 > 0))
      in
      List.iteri
        (fun k mask ->
          let label = Fmt.str "%s, mask %d" label k in
          let comp, nc = Cgraph.scc ~mask g in
          let reach = reach_within g mask in
          for u = 0 to n - 1 do
            if mask.(u) <> (comp.(u) >= 0) then
              Alcotest.failf "%s: node %d masked %b but in component %d" label
                u (not mask.(u)) comp.(u);
            if comp.(u) >= nc then
              Alcotest.failf "%s: component id %d out of range" label comp.(u);
            for v = 0 to n - 1 do
              let same = comp.(u) = comp.(v)
              and mutual = reach.(u).(v) && reach.(v).(u) in
              if mask.(u) && mask.(v) && same <> mutual then
                Alcotest.failf
                  "%s: nodes %d and %d: same component %b, mutually \
                   reachable %b"
                  label u v same mutual
            done
          done;
          let used = Array.make nc false in
          Array.iter (fun c -> if c >= 0 then used.(c) <- true) comp;
          Alcotest.(check bool)
            (label ^ ": every component id used") true
            (Array.for_all Fun.id used))
        masks;
      (* the full mask is the unmasked pass *)
      Alcotest.(check bool)
        (label ^ ": full mask = no mask") true
        (Cgraph.scc ~mask:(Array.make n true) g = Cgraph.scc g))
    (kernel_graphs ())

let dac4_builds f =
  let n = 4 in
  let machine = Dac_from_pac.machine ~n and specs = Dac_from_pac.specs ~n in
  let inputs = Array.init n (fun pid -> Value.int (if pid = 0 then 1 else 0)) in
  let dir = Filename.temp_file "lbsa-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> Segstore.clean_dir ~dir)
    (fun () ->
      let resident = Cgraph.build ~machine ~specs ~inputs () in
      let spill = { Cgraph.spill_dir = dir; spill_threshold = 40 } in
      let spilled = Cgraph.build ~shards:4 ~spill ~machine ~specs ~inputs () in
      Alcotest.(check bool) "the dac:4 build spilled" true
        ((Cgraph.stats spilled).Cgraph.spill.Cgraph.sp_segments > 0);
      f resident spilled)

let test_masked_scc_faults_nothing () =
  dac4_builds (fun resident spilled ->
      let segs = Option.get spilled.Cgraph.segs in
      let mask =
        let prng = Prng.create 4 in
        Array.init (Cgraph.n_nodes spilled) (fun _ -> Prng.int prng 4 > 0)
      in
      let before = Segstore.faults segs in
      let spilled_sccs = (Cgraph.scc spilled, Cgraph.scc ~mask spilled) in
      Alcotest.(check int) "no segment faulted" before (Segstore.faults segs);
      Alcotest.(check bool) "spilled = resident" true
        (spilled_sccs = (Cgraph.scc resident, Cgraph.scc ~mask resident)))

(* The path search against a list-based BFS over the full edge records:
   for every node, the path from the initial node is the BFS tree's,
   whose parents are the first discovering edges in CSR order. *)
let test_shortest_path_is_first_bfs_path () =
  dac4_builds (fun resident spilled ->
      let g = resident in
      let n = Cgraph.n_nodes g in
      let parent = Array.make n None in
      let dist = Array.make n (-1) in
      let queue = Queue.create () in
      dist.(g.Cgraph.initial) <- 0;
      Queue.add g.Cgraph.initial queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun (e : Cgraph.edge) ->
            if dist.(e.target) < 0 then begin
              dist.(e.target) <- dist.(u) + 1;
              parent.(e.target) <- Some (u, e);
              Queue.add e.target queue
            end)
          (Cgraph.out_edges g u)
      done;
      let rec path v acc =
        match parent.(v) with None -> acc | Some (u, e) -> path u (e :: acc)
      in
      for target = 0 to n - 1 do
        let expect = path target [] in
        Alcotest.(check int)
          (Fmt.str "BFS reaches node %d" target)
          dist.(target) (List.length expect);
        List.iter
          (fun (which, g) ->
            if Cgraph.shortest_path g ~target <> Some expect then
              Alcotest.failf "%s: path to node %d is not the first BFS path"
                which target)
          [ ("resident", resident); ("spilled", spilled) ]
      done)

let test_solo_halts_primitive () =
  let machine, specs = Candidates.flp_spin in
  let c = Config.initial ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] in
  let accept = function
    | Config.Decided _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "spin protocol: solo run of p0 never halts" false
    (Solvability.solo_halts ~machine ~specs ~pid:0 ~accept c);
  let machine = Dac_from_pac.machine ~n:2 in
  let specs = Dac_from_pac.specs ~n:2 in
  let c = Config.initial ~machine ~specs ~inputs:[| Value.int 1; Value.int 0 |] in
  Alcotest.(check bool) "Algorithm 2: q1 solo decides" true
    (Solvability.solo_halts ~machine ~specs ~pid:1 ~accept c)

let accept_a = function
  | Config.Decided _ | Config.Aborted -> true
  | Config.Running | Config.Crashed -> false

let accept_b = function
  | Config.Decided _ -> true
  | Config.Running | Config.Aborted | Config.Crashed -> false

(* Any reduction that does not keep every step sends [dac_progress] off
   the graph; the identity group keeps the graph itself a valid input. *)
let off_graph = { Cgraph.no_reduction with rname = "sleep"; sleep = true }

(* n-DAC progress on an unreduced graph, decided from its own edges,
   against the off-graph walks it replaces: at every node, for every
   process running there, [solo_halting] equals [solo_halts] from the
   node's configuration under termination (a)'s accept for p and (b)'s
   for each q; and the whole progress answer — nontriviality first —
   equals the off-graph path's on the same graph. *)
let test_dac_progress_on_graph_oracle () =
  let dac n = (Dac_from_pac.machine ~n, Dac_from_pac.specs ~n) in
  let cases =
    List.concat_map
      (fun (name, protocol, n) ->
        List.map (fun inputs -> (name, protocol, inputs)) (Dac.binary_inputs n))
      [
        ("dac:2", dac 2, 2);
        ("dac:3", dac 3, 3);
        ("dac:4", dac 4, 4);
        ("3dac-sa2-then-cons2", Candidates.dac3_sa2_then_cons2, 3);
        ("3dac-cons2-announce", Candidates.dac3_cons2_announce, 3);
        ("flp-spin", Candidates.flp_spin, 2);
      ]
  in
  List.iter
    (fun (name, (machine, specs), inputs) ->
      let label =
        Fmt.str "%s inputs=%a" name Fmt.(array ~sep:(any ",") Value.pp) inputs
      in
      let graph = Cgraph.build ~machine ~specs ~inputs () in
      Array.iteri
        (fun pid _ ->
          let accept = if pid = Dac.distinguished then accept_a else accept_b in
          let on_graph = Solvability.solo_halting graph ~pid ~accept in
          Cgraph.iter_nodes
            (fun id config ->
              if Config.is_running config pid then
                Alcotest.(check bool)
                  (Fmt.str "%s: node %d, pid %d" label id pid)
                  (Solvability.solo_halts ~machine ~specs ~pid ~accept config)
                  on_graph.(id))
            graph)
        inputs;
      Alcotest.(check (option string))
        (label ^ ": progress answer")
        (Solvability.dac_progress ~reduce:off_graph ~machine ~specs graph)
        (Solvability.dac_progress ~reduce:Cgraph.no_reduction ~machine ~specs
           graph))
    cases

(* flp-spin run as a 2-DAC: p writes, then reads an empty register
   forever.  Nontriviality used to follow that solo run without a
   visited set and never returned; both paths now stop at the cycle
   and report termination (a). *)
let test_dac_nontriviality_solo_spin () =
  let machine, specs = Candidates.flp_spin in
  let inputs = [| Value.int 0; Value.int 1 |] in
  List.iter
    (fun (reduce, expect) ->
      Alcotest.(check string) reduce.Cgraph.rname expect
        (Fmt.str "%a" Solvability.pp_verdict
           (Solvability.check_dac ~domains:1 ~reduce ~machine ~specs ~inputs ())))
    [
      ( Cgraph.no_reduction,
        "FAIL (inputs=0,1, 12 states): node 0: termination (a) fails for p" );
      ( off_graph,
        "FAIL (inputs=0,1, 7 states): node 0: termination (a) fails for p" );
    ]

(* A p that aborts at once fails nontriviality on both paths. *)
let test_dac_nontriviality_abort () =
  let name = "p-aborts" in
  let machine =
    Machine.make ~name
      ~init:(fun ~pid:_ ~input -> input)
      ~delta:(fun ~pid v ->
        if pid = Dac.distinguished then Machine.Abort else Machine.Decide v)
  in
  let specs = [| Register.spec () |] in
  let inputs = [| Value.int 0; Value.int 1 |] in
  List.iter
    (fun reduce ->
      Alcotest.(check (option string)) reduce.Cgraph.rname
        (Some "nontriviality: p aborted in a p-solo run")
        (Solvability.check_dac ~reduce ~machine ~specs ~inputs ()).failure)
    [ Cgraph.no_reduction; off_graph ]

(* A spilled graph answers from the same edges: every dac:4 vector gets
   the resident verdict when the build spills into four shards. *)
let test_dac_progress_spilled () =
  let n = 4 in
  let machine = Dac_from_pac.machine ~n and specs = Dac_from_pac.specs ~n in
  let dir = Filename.temp_file "lbsa-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> Segstore.clean_dir ~dir)
    (fun () ->
      let spill = { Cgraph.spill_dir = dir; spill_threshold = 40 } in
      List.iter
        (fun inputs ->
          let verdict v = Fmt.str "%a" Solvability.pp_verdict v in
          let spilled =
            Solvability.check_dac ~shards:4 ~spill ~machine ~specs ~inputs ()
          in
          Alcotest.(check bool) "the build spilled" true
            ((Option.get spilled.stats).Cgraph.spill.Cgraph.sp_segments > 0);
          Alcotest.(check string) "spilled = resident"
            (verdict (Solvability.check_dac ~machine ~specs ~inputs ()))
            (verdict spilled))
        (Dac.binary_inputs n))

let () =
  Alcotest.run "modelcheck"
    [
      ( "graph",
        [
          Alcotest.test_case "tiny chain" `Quick test_graph_counts_tiny;
          Alcotest.test_case "nondet branches" `Quick test_graph_nondet_branches;
          Alcotest.test_case "truncation" `Quick test_graph_truncation;
          Alcotest.test_case "scc on spin graph" `Quick test_scc_on_spin_graph;
          Alcotest.test_case "matches seed CMap oracle" `Quick
            test_build_matches_cmap_oracle;
          Alcotest.test_case "domains 1/2/4 vs CMap oracle" `Quick
            test_build_domains_1_2_4_with_oracle;
          Alcotest.test_case "identical graph for any domain count" `Quick
            test_build_domain_count_invariant;
          Alcotest.test_case "delta once per (pid, local) per worker" `Quick
            test_build_steps_once_per_key;
          Alcotest.test_case "identical truncation point for any domain count"
            `Quick test_truncation_point_domain_invariant;
          Alcotest.test_case "fingerprint independent of intern order" `Quick
            test_intern_order_independent_across_processes;
          Alcotest.test_case "exploration stats sane" `Quick
            test_exploration_stats_sane;
          Alcotest.test_case "verdict carries stats" `Quick
            test_verdict_carries_stats;
        ] );
      ( "valence",
        [
          Alcotest.test_case "initial bivalent" `Quick
            test_initial_config_bivalent;
          Alcotest.test_case "same inputs univalent" `Quick
            test_same_inputs_univalent;
          Alcotest.test_case "decided nodes univalent" `Quick
            test_decided_configs_univalent;
          Alcotest.test_case "condensation matches fixpoint oracle" `Quick
            test_valence_matches_fixpoint_oracle;
          Alcotest.test_case "oracle agreement, randomized inputs" `Quick
            test_valence_matches_oracle_randomized;
          Alcotest.test_case "summary partitions" `Quick
            test_valence_summary_consistent;
        ] );
      ( "bivalency",
        [
          Alcotest.test_case "critical configs (Claims 5.2.2/5.2.3)" `Quick
            test_critical_configuration_structure;
          Alcotest.test_case "FLP trichotomy (registers)" `Quick
            test_flp_trichotomy_on_register_candidates;
          Alcotest.test_case "FLP adversary over bare PAC" `Quick
            test_bivalence_maintainable_over_bare_pac;
          Alcotest.test_case "no maintenance over consensus obj" `Quick
            test_consensus_object_breaks_bivalence_maintenance;
          Alcotest.test_case "DAC aborts 0-valent (Claim 4.2.2)" `Quick
            test_dac_aborts_are_0_valent;
          Alcotest.test_case "poised reporting" `Quick test_poised_reporting;
          Alcotest.test_case "poised op names at criticals (Claim 5.2.x)"
            `Quick test_poised_op_names_at_criticals;
        ] );
      ( "solvability",
        [
          Alcotest.test_case "Theorem 4.1 exhaustive (n=2,3)" `Quick
            test_theorem_4_1_exhaustive;
          Alcotest.test_case "for_all_inputs domains 1/2/4 agree" `Quick
            test_for_all_inputs_domains_agree;
          Alcotest.test_case "consensus exhaustive (m=2,3)" `Quick
            test_consensus_solvable_exhaustive;
          Alcotest.test_case "k-set exhaustive" `Quick
            test_kset_solvable_exhaustive;
          Alcotest.test_case "classic constructions exhaustive" `Quick
            test_classic_constructions_exhaustive;
          Alcotest.test_case "candidates fail" `Quick
            test_candidates_fail_exhaustive;
          Alcotest.test_case "solo_halts primitive" `Quick
            test_solo_halts_primitive;
          Alcotest.test_case "DAC progress on the graph = off-graph walks"
            `Quick test_dac_progress_on_graph_oracle;
          Alcotest.test_case "DAC nontriviality stops on a solo spin" `Quick
            test_dac_nontriviality_solo_spin;
          Alcotest.test_case "DAC nontriviality catches a p-solo abort" `Quick
            test_dac_nontriviality_abort;
          Alcotest.test_case "DAC progress on a spilled graph" `Quick
            test_dac_progress_spilled;
          Alcotest.test_case "witness schedule replays" `Quick
            test_witness_schedule_replays;
          Alcotest.test_case "DAC witness" `Quick test_dac_witness;
          Alcotest.test_case "hooks (Claim 4.2.6 pivot)" `Quick
            test_hooks_exist_on_consensus_graph;
          Alcotest.test_case "shortest path to initial" `Quick
            test_shortest_path_initial;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "masked scc = mutual reachability" `Quick
            test_masked_scc_is_mutual_reachability;
          Alcotest.test_case "masked scc faults no segment" `Quick
            test_masked_scc_faults_nothing;
          Alcotest.test_case "shortest path = first BFS path" `Quick
            test_shortest_path_is_first_bfs_path;
        ] );
    ]
