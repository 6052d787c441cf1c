(* The experiment tables.

   The paper has no empirical tables or figures (it is a pure theory
   paper); DESIGN.md defines verification experiments T1-T10 in their
   place, and this executable regenerates every one of them.  Each row
   that carries a prediction (a theorem, a lemma, a negative control)
   says whether its result agrees; any row that contradicts its
   prediction makes the run exit 1, so the tables double as a CI gate.
   Performance is measured by perfbench/, not here.

   Run:  dune exec bench/main.exe            (or: bench/main.exe tables)
   Exit: 0 every prediction holds, 1 some row contradicts its
         prediction, 3 unknown argument.                                *)

open Lbsa

let hr title = Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '-')

(* Rows whose result contradicts their prediction. *)
let contradictions = ref 0

let expect ok = if not ok then incr contradictions

(* A table row; [ok] is whether the result agrees with the row's
   prediction (rows without one, e.g. plain counts, keep the default). *)
let cell ?(ok = true) label result =
  expect ok;
  Fmt.pr "| %-52s | %-36s |@." label result

let verdict_cell label (v : Solvability.verdict) ~expect_ok =
  let ok = v.Solvability.ok = expect_ok in
  cell ~ok label
    (Fmt.str "%s: %s (%d states)"
       (if ok then "as predicted" else "MISMATCH")
       (if v.Solvability.ok then "solved" else "failed")
       v.Solvability.states)

(* ---------------------------------------------------------------------- *)
(* T1: n-PAC semantics (Lemmas 3.2-3.4, Theorem 3.5).                     *)

let table_t1 () =
  hr "T1  n-PAC object semantics (Algorithm 1; Lemmas 3.2-3.4, Thm 3.5)";
  (* Exhaustive: all op sequences of depth <= 6 over 2 labels. *)
  let n = 2 in
  let pac = Pac.spec ~n () in
  let alphabet =
    [ Pac.propose (Value.int 1) 1; Pac.propose (Value.int 2) 2;
      Pac.decide 1; Pac.decide 2 ]
  in
  let histories = ref 0 and consistent = ref 0 in
  let rec go state history depth =
    incr histories;
    let h = List.rev history in
    if Pac.is_upset state = not (Pac.history_legal ~n h) then incr consistent;
    if depth > 0 then
      List.iter
        (fun op ->
          let state', response = Obj_spec.apply_det pac state op in
          go state' (Shistory.event op response :: history) (depth - 1))
        alphabet
  in
  go pac.Obj_spec.initial [] 6;
  cell "histories enumerated (depth ≤ 6, n = 2)" (string_of_int !histories);
  cell ~ok:(!consistent = !histories) "upset ⇔ illegal (Lemma 3.2) holds in"
    (Fmt.str "%d / %d" !consistent !histories);
  (* Random sweep for larger n, also checking Theorem 3.5(a). *)
  let prng = Prng.create 4242 in
  let trials = 20_000 and violations = ref 0 in
  for _ = 1 to trials do
    let n = 2 + Prng.int prng 4 in
    let pac = Pac.spec ~n () in
    let len = Prng.int prng 20 in
    let ops =
      List.init len (fun _ ->
          let i = 1 + Prng.int prng n in
          if Prng.bool prng then Pac.propose (Value.int (Prng.int prng 3)) i
          else Pac.decide i)
    in
    let h, st = Shistory.run pac ops in
    let decided =
      List.filter_map
        (fun (e : Shistory.event) ->
          if e.op.Op.name = "decide" && not (Value.is_bot e.response) then
            Some e.response
          else None)
        h
    in
    if
      Pac.is_upset st <> not (Pac.history_legal ~n h)
      || List.length (Listx.sort_uniq Value.compare decided) > 1
    then incr violations
  done;
  cell ~ok:(!violations = 0)
    (Fmt.str "random histories (n ≤ 5, %d trials): violations" trials)
    (string_of_int !violations)

(* ---------------------------------------------------------------------- *)
(* T2: Theorem 4.1 — Algorithm 2 solves n-DAC.                            *)

let table_t2 () =
  hr "T2  Theorem 4.1: Algorithm 2 solves the n-DAC problem";
  List.iter
    (fun n ->
      let machine = Dac_from_pac.machine ~n in
      let specs = Dac_from_pac.specs ~n in
      let states = ref 0 in
      let v =
        Solvability.for_all_inputs
          (fun inputs ->
            let v = Solvability.check_dac ~machine ~specs ~inputs () in
            states := max !states v.Solvability.states;
            v)
          (Dac.binary_inputs n)
      in
      cell ~ok:v.Solvability.ok
        (Fmt.str "n = %d: exhaustive (all schedules, %d input vectors)" n
           (1 lsl n))
        (Fmt.str "%s, ≤ %d states"
           (if v.Solvability.ok then "solves n-DAC" else "FAILED")
           !states))
    [ 2; 3; 4; 5 ];
  (* Randomized sweep for larger n. *)
  List.iter
    (fun n ->
      let machine = Dac_from_pac.machine ~n in
      let specs = Dac_from_pac.specs ~n in
      let prng = Prng.create (n * 99) in
      let trials = 1000 and bad = ref 0 in
      for seed = 1 to trials do
        let inputs = Array.init n (fun _ -> Value.int (Prng.int prng 2)) in
        let r =
          Executor.run ~machine ~specs ~inputs
            ~scheduler:(Scheduler.random ~seed) ()
        in
        match
          Dac.check_safety ~inputs ~trace:r.Executor.trace r.Executor.final
        with
        | Ok () -> ()
        | Error _ -> incr bad
      done;
      cell ~ok:(!bad = 0)
        (Fmt.str "n = %d: %d random schedules" n trials)
        (Fmt.str "%d violations" !bad))
    [ 6; 8 ]

(* ---------------------------------------------------------------------- *)
(* T3: Theorem 4.2 evidence — 3-DAC candidates over {2-cons, reg, 2-SA}. *)

let table_t3 () =
  hr
    "T3  Theorem 4.2 evidence: natural 3-DAC candidates over 2-consensus + \
     registers + 2-SA all fail";
  List.iter
    (fun (label, (machine, specs)) ->
      let v =
        Solvability.for_all_inputs
          (fun inputs -> Solvability.check_dac ~machine ~specs ~inputs ())
          (Dac.binary_inputs 3)
      in
      verdict_cell label v ~expect_ok:false;
      match v.Solvability.failure with
      | Some f -> Fmt.pr "|   counterexample: %-72s|@." f
      | None -> ())
    [
      ("2-SA funnel then 2-consensus", Candidates.dac3_sa2_then_cons2);
      ("2-consensus race + announce register", Candidates.dac3_cons2_announce);
    ];
  (* The positive contrast: a 3-PAC object does solve it (Thm 4.1). *)
  let machine = Dac_from_pac.machine ~n:3 in
  let specs = Dac_from_pac.specs ~n:3 in
  let v =
    Solvability.for_all_inputs
      (fun inputs -> Solvability.check_dac ~machine ~specs ~inputs ())
      (Dac.binary_inputs 3)
  in
  verdict_cell "contrast: one 3-PAC object (Theorem 4.1)" v ~expect_ok:true

(* ---------------------------------------------------------------------- *)
(* T4: Theorem 5.3 — (n,m)-PAC is at level m.                             *)

let table_t4 () =
  hr "T4  Theorem 5.3: (n,m)-PAC objects sit at level m of the hierarchy";
  List.iter
    (fun (n, m) ->
      let r = Level.pac_nm_report ~n ~m () in
      let pos = Fmt.str "(%d,%d)-PAC solves %d-consensus" n m m in
      (match r.Level.solves_at_level with
      | Level.Verified v -> verdict_cell pos v ~expect_ok:true
      | _ -> cell ~ok:false pos "POSITIVE HALF FAILED");
      let neg = Fmt.str "(%d,%d)-PAC: (m+1)-consensus candidate" n m in
      match r.Level.fails_above with
      | Level.Candidate_failed (_, v) -> verdict_cell neg v ~expect_ok:false
      | _ -> cell ~ok:false neg "?")
    [ (2, 2); (3, 2); (4, 3) ];
  (* Criticality structure (Claims 5.2.2/5.2.3) on the 2-consensus
     protocol. *)
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  let criticals = Bivalency.report_critical ~machine ~specs graph a in
  let all_common =
    List.for_all
      (fun (r : Bivalency.critical_report) -> r.Bivalency.common_object <> None)
      criticals
  in
  cell ~ok:(criticals <> [] && all_common)
    "critical configs, all poised on one object (Claim 5.2.3)"
    (Fmt.str "%d critical, common object: %b" (List.length criticals) all_common)

(* ---------------------------------------------------------------------- *)
(* T5: implementations (Obs 5.1, Lemma 6.4, snapshot substrate).          *)

let table_t5 () =
  hr "T5  Implementations are linearizable (Obs 5.1, Lemma 6.4, snapshots)";
  (let impl = Pac_nm_impl.implementation ~n:2 ~m:2 in
   let workloads =
     [|
       [ Pac_nm.propose_p (Value.int 1) 1; Pac_nm.decide_p 1 ];
       [ Pac_nm.propose_c (Value.int 9) ];
       [ Pac_nm.propose_c (Value.int 8) ];
     |]
   in
   match Harness.exhaustive ~impl ~workloads () with
   | Ok c ->
     cell "(2,2)-PAC from 2-PAC + 2-consensus (Obs 5.1a)"
       (Fmt.str "linearizable in all %d interleavings" c)
   | Error _ ->
     cell ~ok:false "(2,2)-PAC from 2-PAC + 2-consensus (Obs 5.1a)" "VIOLATED");
  (let power = O_prime.default_power ~n:2 ~max_k:2 in
   let impl = Oprime_impl.implementation ~power in
   let workloads =
     [|
       [ O_prime.propose (Value.int 1) 1; O_prime.propose (Value.int 10) 2 ];
       [ O_prime.propose (Value.int 2) 1; O_prime.propose (Value.int 20) 2 ];
     |]
   in
   match Harness.exhaustive ~impl ~workloads () with
   | Ok c ->
     cell "O'_2 from 2-consensus + 2-SA (Lemma 6.4)"
       (Fmt.str "linearizable in all %d interleavings" c)
   | Error _ ->
     cell ~ok:false "O'_2 from 2-consensus + 2-SA (Lemma 6.4)" "VIOLATED");
  (let impl = Oprime_impl.for_n ~n:2 ~max_k:4 in
   let workloads =
     [|
       [ O_prime.propose (Value.int 1) 1; O_prime.propose (Value.int 11) 2;
         O_prime.propose (Value.int 12) 3 ];
       [ O_prime.propose (Value.int 2) 1; O_prime.propose (Value.int 21) 3;
         O_prime.propose (Value.int 22) 4 ];
       [ O_prime.propose (Value.int 31) 2; O_prime.propose (Value.int 32) 4 ];
     |]
   in
   match Harness.campaign ~seed:5 ~trials:500 ~impl ~workloads () with
   | Ok t ->
     cell "O'_2 (K = 4), randomized campaign" (Fmt.str "%d/%d trials ok" t t)
   | Error (i, _) ->
     cell ~ok:false "O'_2 (K = 4), randomized campaign"
       (Fmt.str "trial %d FAILED" i));
  (let impl = Snapshot_impl.implementation ~n:3 in
   let workloads =
     Array.init 3 (fun pid ->
         [ Classic.Snapshot.update pid (Value.int (pid + 1));
           Classic.Snapshot.scan ])
   in
   match Harness.campaign ~seed:7 ~trials:300 ~impl ~workloads () with
   | Ok t ->
     cell "3-snapshot from registers (Afek et al.)"
       (Fmt.str "%d/%d trials ok" t t)
   | Error (i, _) ->
     cell ~ok:false "3-snapshot from registers (Afek et al.)"
       (Fmt.str "trial %d FAILED" i));
  let impl = Snapshot_impl.naive ~n:3 in
  let workloads =
    [|
      [ Classic.Snapshot.scan ];
      [ Classic.Snapshot.update 1 (Value.int 7) ];
      [ Classic.Snapshot.update 2 (Value.int 8) ];
    |]
  in
  match Harness.exhaustive ~max_steps:60 ~impl ~workloads () with
  | Ok _ ->
    cell ~ok:false "negative control: naive single-collect scan"
      "NOT refuted (!)"
  | Error _ ->
    cell "negative control: naive single-collect scan"
      "refuted by the checker (as predicted)"

(* ---------------------------------------------------------------------- *)
(* T6: set agreement power matrix + the separation.                       *)

let table_t6 () =
  hr
    "T6  Set agreement power (lower-bound rows machine-checked) and the \
     Corollary 6.6 separation";
  Fmt.pr "| %-14s | %-26s | %-36s |@." "object" "closed form / lower bound"
    "checked rows (k: procs, result)";
  let row name form probes =
    expect (List.for_all (fun (p : Power.probe) -> p.Power.solvable) probes);
    Fmt.pr "| %-14s | %-26s | %-36s |@." name form
      (String.concat "; "
         (List.map
            (fun (p : Power.probe) ->
              Fmt.str "k=%d: %d procs %s" p.Power.k p.Power.procs
                (if p.Power.solvable then "ok" else "FAIL"))
            probes))
  in
  row "2-consensus" "(2, 4, 6, ...)"
    [ Power.probe_consensus_family ~m:2 ~k:1 ();
      Power.probe_consensus_family ~m:2 ~k:2 () ];
  row "3-consensus" "(3, 6, 9, ...)"
    [ Power.probe_consensus_family ~m:3 ~k:1 () ];
  row "2-SA" "(1, ∞, ∞, ...)"
    [ Power.probe_sa2_family ~k:2 ~procs:4 ();
      Power.probe_sa2_family ~k:3 ~procs:5 () ];
  row "O_2" "(2, ≥4, ≥6, ...)" [ Power.probe_o_n_consensus ~n:2 () ];
  row "O'_2" "(2, 4, 6) by constr."
    [
      Power.probe_oprime_family
        ~power:(O_prime.default_power ~n:2 ~max_k:2)
        ~k:1 ();
      Power.probe_oprime_family
        ~power:(O_prime.default_power ~n:2 ~max_k:2)
        ~k:2 ();
    ];
  Fmt.pr "@.Separation artifacts (Corollary 6.6):@.";
  List.iter
    (fun (n, max_k) ->
      let report = Separation.analyze ~max_k ~n () in
      cell ~ok:(Separation.all_ok report)
        (Fmt.str "n = %d (power prefix length %d): artifacts" n max_k)
        (Fmt.str "%d checks, all as predicted: %b"
           (List.length report.Separation.artifacts)
           (Separation.all_ok report)))
    [ (2, 3); (3, 2); (4, 2) ]

(* ---------------------------------------------------------------------- *)
(* T7: the FLP baseline.                                                  *)

let table_t7 () =
  hr
    "T7  FLP baseline: register-only candidates, and the adversary over a \
     bare PAC";
  (let machine, specs = Candidates.flp_write_read in
   let v =
     Solvability.check ~task:Solvability.Consensus ~machine ~specs
       ~inputs:[| Value.int 0; Value.int 1 |] ()
   in
   verdict_cell "write-read candidate (terminating)" v ~expect_ok:false);
  (let machine, specs = Candidates.flp_spin in
   let v =
     Solvability.check ~task:Solvability.Consensus ~machine ~specs
       ~inputs:[| Value.int 0; Value.int 1 |] ()
   in
   verdict_cell "spin candidate (safe, not wait-free)" v ~expect_ok:false);
  let machine, specs = Candidates.consensus_from_pac_retry ~n:2 ~procs:2 in
  let graph =
    Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] ()
  in
  let a = Valence.analyze graph in
  let maintainable =
    match Bivalency.bivalence_maintainable a graph with
    | Ok () -> true
    | Error _ -> false
  in
  let bivalent = Valence.is_bivalent a graph.Cgraph.initial in
  cell ~ok:(bivalent && maintainable)
    "bare 2-PAC: initial bivalent, bivalence maintainable"
    (Fmt.str "%b, %b (adversary wins forever)" bivalent maintainable);
  (* The classic escape: obstruction-free consensus from registers. *)
  (let n = 2 in
   let machine = Obstruction_free.machine ~n ~max_rounds:50 in
   let specs = Obstruction_free.specs ~n ~max_rounds:50 in
   let inputs = [| Value.int 0; Value.int 1 |] in
   let graph = Cgraph.build ~max_states:20_000 ~machine ~specs ~inputs () in
   let first_bad =
     Cgraph.find_node graph (fun _ config ->
         Result.is_error (Consensus_task.check_safety ~inputs config))
   in
   let lockstep_livelocks =
     match
       Executor.run ~max_steps:10_000
         ~machine:(Obstruction_free.machine ~n ~max_rounds:6)
         ~specs:(Obstruction_free.specs ~n ~max_rounds:6)
         ~inputs ~scheduler:(Scheduler.round_robin ~n) ()
     with
     | exception Obstruction_free.Out_of_rounds _ -> true
     | _ -> false
   in
   cell ~ok:(first_bad = None && lockstep_livelocks)
     "obstruction-free consensus (registers, commit-adopt)"
     (Fmt.str "safe at %d states (first violation: %s); lockstep livelocks: %b"
        (Cgraph.n_nodes graph)
        (match first_bad with None -> "none" | Some id -> string_of_int id)
        lockstep_livelocks))

(* ---------------------------------------------------------------------- *)
(* T8: the surrounding classics — Herlihy's universal construction and
   Borowsky-Gafni safe agreement.                                         *)

let table_t8 () =
  hr
    "T8  Surrounding classics: Herlihy's universal construction and \
     Borowsky-Gafni safe agreement";
  (* Universal construction hosts three very different targets. *)
  List.iter
    (fun (label, target, workloads) ->
      let n = Array.length workloads in
      let impl = Universal.implementation ~n ~target () in
      match Harness.campaign ~seed:1 ~trials:300 ~impl ~workloads () with
      | Ok t ->
        cell
          (Fmt.str "universal: %s among %d, from %d-consensus + regs" label n n)
          (Fmt.str "%d/%d trials linearizable" t t)
      | Error (i, _) ->
        cell ~ok:false (Fmt.str "universal: %s" label)
          (Fmt.str "trial %d FAILED" i))
    [
      ( "queue",
        Classic.Queue_obj.spec (),
        [|
          [ Classic.Queue_obj.enqueue (Value.int 1); Classic.Queue_obj.dequeue ];
          [ Classic.Queue_obj.enqueue (Value.int 2) ];
          [ Classic.Queue_obj.dequeue ];
        |] );
      ( "fetch-and-add",
        Classic.Fetch_and_add.spec (),
        Array.init 3 (fun _ ->
            List.init 2 (fun _ -> Classic.Fetch_and_add.fetch_and_add 1)) );
      ( "3-PAC",
        Pac.spec ~n:3 (),
        Array.init 3 (fun pid ->
            [ Pac.propose (Value.int pid) (pid + 1); Pac.decide (pid + 1) ]) );
    ];
  (let impl =
     Universal.implementation ~n:2 ~target:(Classic.Fetch_and_add.spec ()) ()
   in
   let workloads =
     [| [ Classic.Fetch_and_add.fetch_and_add 1 ];
        [ Classic.Fetch_and_add.fetch_and_add 10 ] |]
   in
   match Harness.exhaustive ~max_steps:100 ~impl ~workloads () with
   | Ok c ->
     cell "universal: FAA among 2, exhaustive"
       (Fmt.str "all %d interleavings linearizable" c)
   | Error _ -> cell ~ok:false "universal: FAA among 2, exhaustive" "VIOLATED");
  (* Classic level-2 / level-∞ constructions, exhaustively. *)
  List.iter
    (fun (procs, (machine, specs)) ->
      let v =
        Solvability.for_all_inputs
          (fun inputs ->
            Solvability.check ~task:Solvability.Consensus
              ~machine ~specs ~inputs ())
          (Consensus_task.binary_inputs procs)
      in
      verdict_cell
        (Fmt.str "%s among %d" machine.Machine.name procs)
        v ~expect_ok:true)
    [
      (2, Consensus_protocols.from_queue ());
      (2, Consensus_protocols.from_fetch_and_add ());
      (2, Consensus_protocols.from_swap ());
      (3, Consensus_protocols.from_compare_and_swap ());
    ];
  (* Safe agreement. *)
  List.iter
    (fun n ->
      let machine = Safe_agreement.machine ~n in
      let specs = Safe_agreement.specs ~n in
      let inputs = Kset_task.distinct_inputs n in
      let graph = Cgraph.build ~machine ~specs ~inputs () in
      let first_bad =
        Cgraph.find_node graph (fun _ config ->
            Result.is_error (Consensus_task.check_safety ~inputs config))
      in
      cell ~ok:(first_bad = None)
        (Fmt.str "safe agreement n=%d: safety at every configuration" n)
        (Fmt.str "first violation: %s in %d states"
           (match first_bad with None -> "none" | Some id -> string_of_int id)
           (Cgraph.n_nodes graph)))
    [ 2; 3 ];
  (let n = 2 in
   let machine = Safe_agreement.machine ~n in
   let specs = Safe_agreement.specs ~n in
   let inputs = Kset_task.distinct_inputs n in
   let r =
     Executor.run ~machine ~specs ~inputs ~scheduler:(Scheduler.fixed [ 0 ]) ()
   in
   let r2 = Executor.run_solo ~max_steps:500 ~machine ~specs r.Executor.final 1 in
   let spins = r2.Executor.stop = Executor.Step_limit in
   cell ~ok:spins "safe agreement: crash in unsafe zone blocks the rival"
     (Fmt.str "rival spins (%s)"
        (if spins then "as predicted" else "MISMATCH")))

(* ---------------------------------------------------------------------- *)
(* T9: Theorem 7.1 (Qadri's question).                                     *)

let table_t9 () =
  hr
    "T9  Theorem 7.1: (n+1,m)-PAC is at level m but out of reach of \
     n-consensus + registers";
  List.iter
    (fun (m, n) ->
      let report = Qadri.analyze ~m ~n () in
      List.iter
        (fun (a : Separation.verdictish) ->
          cell ~ok:a.Separation.ok
            (Fmt.str "m=%d n=%d: %s" m n a.Separation.label)
            (Fmt.str "[%s] %s"
               (if a.Separation.ok then "ok" else "FAIL")
               a.Separation.detail))
        report.Qadri.artifacts)
    [ (2, 3) ]

(* ---------------------------------------------------------------------- *)
(* T10: the BG simulation.                                                 *)

let table_t10 () =
  hr
    "T10 BG simulation: fewer simulators faithfully run a larger \
     full-information snapshot protocol";
  let p = Sim_protocol.min_seen ~n_sim:3 ~steps:1 in
  let inputs = [| Value.int 10; Value.int 11; Value.int 12 |] in
  let outcomes = Sim_protocol.direct_outcomes p ~inputs in
  cell "direct 3-process outcome vectors (model-checked)"
    (string_of_int (List.length outcomes));
  let trials = 500 in
  let ok = ref 0 and agree = ref 0 and comparable = ref 0 in
  for seed = 1 to trials do
    let r =
      Bg_simulation.run ~p ~sim_inputs:inputs ~simulators:2
        ~scheduler:(Scheduler.random ~seed) ()
    in
    (match r.Bg_simulation.simulated_decisions with
    | Some ds when List.exists (Value.equal (Value.list ds)) outcomes ->
      incr ok
    | _ -> ());
    if Bg_simulation.simulators_agree r then incr agree;
    if Bg_simulation.views_comparable r.Bg_simulation.all_views then
      incr comparable
  done;
  cell ~ok:(!ok = trials)
    (Fmt.str "2 simulators, %d random schedules: genuine outcomes" trials)
    (Fmt.str "%d/%d" !ok trials);
  cell ~ok:(!agree = trials) "simulators agree on all views"
    (Fmt.str "%d/%d" !agree trials);
  cell ~ok:(!comparable = trials) "agreed views cell-wise comparable"
    (Fmt.str "%d/%d" !comparable trials);
  (* Exhaustive upgrade for the tiniest instances: EVERY simulator
     interleaving. *)
  List.iter
    (fun (n_sim, simulators) ->
      let p = Sim_protocol.min_seen ~n_sim ~steps:1 in
      let sim_inputs = Array.init n_sim (fun j -> Value.int (10 + j)) in
      let r = Bg_simulation.check_exhaustive ~p ~sim_inputs ~simulators () in
      cell ~ok:(r.Bg_simulation.bad_outcomes = 0)
        (Fmt.str "exhaustive: %d sims / %d procs, all interleavings" simulators
           n_sim)
        (Fmt.str "%d states, %d terminals, %d bad" r.Bg_simulation.states
           r.Bg_simulation.terminals r.Bg_simulation.bad_outcomes))
    [ (2, 2); (3, 2) ];
  (* Crash sweep: at most one simulated process blocked, ever. *)
  let worst = ref 0 and runs = ref 0 in
  List.iter
    (fun budget ->
      incr runs;
      let scheduler =
        Lbsa_runtime.Fault.apply [ (0, budget) ] (Scheduler.round_robin ~n:2)
      in
      let r =
        Bg_simulation.run ~max_steps:5_000 ~p ~sim_inputs:inputs ~simulators:2
          ~scheduler ()
      in
      match r.Bg_simulation.simulated_decisions with
      | Some _ -> ()
      | None ->
        let progress = r.Bg_simulation.per_simulator_progress.(1) in
        let blocked =
          Listx.count
            (fun j ->
              match List.assoc_opt j progress with
              | Some c -> c < p.Sim_protocol.steps
              | None -> true)
            (Listx.range 0 2)
        in
        if blocked > !worst then worst := blocked)
    (Listx.range 0 20);
  cell ~ok:(!worst <= 1)
    (Fmt.str "crash sweep (%d budgets): max simulated processes blocked" !runs)
    (Fmt.str "%d (theorem: ≤ 1)" !worst)

let all_tables () =
  Fmt.pr
    "Life Beyond Set Agreement — experiment tables (T1-T10 of DESIGN.md).@.\
     The paper is pure theory with no empirical tables; these are the@.\
     mechanized-verification tables defined in its place.@.";
  table_t1 ();
  table_t2 ();
  table_t3 ();
  table_t4 ();
  table_t5 ();
  table_t6 ();
  table_t7 ();
  table_t8 ();
  table_t9 ();
  table_t10 ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "tables" ] ->
    all_tables ();
    Fmt.pr "@.done.@.";
    if !contradictions > 0 then begin
      Fmt.epr "%d row(s) contradict their prediction@." !contradictions;
      exit 1
    end
  | _ ->
    Fmt.epr "usage: %s [tables]@." Sys.argv.(0);
    exit 3
