(* The runtime layer: machines, configurations, schedulers, executor,
   traces. *)

open Lbsa

let v = Alcotest.testable Value.pp Value.equal

(* A tiny two-phase machine: write own input to register pid, read the
   other register, decide the pair. *)
let two_phase : Machine.t * Obj_spec.t array =
  let name = "two-phase" in
  let init ~pid:_ ~input = Value.(pair (sym "writing", input)) in
  let delta ~pid state =
    match state with
    | { Value.node = Pair ({ node = Sym "writing"; _ }, x); _ } ->
      Machine.invoke pid (Register.write x) (fun _ ->
          Value.(pair (sym "reading", x)))
    | { Value.node = Pair ({ node = Sym "reading"; _ }, x); _ } ->
      Machine.invoke (1 - pid) Register.read (fun other ->
          Value.(pair (sym "halt", pair (x, other))))
    | { Value.node = Pair ({ node = Sym "halt"; _ }, r); _ } -> Machine.Decide r
    | s -> Machine.bad_state ~machine:name ~pid s
  in
  (Machine.make ~name ~init ~delta, [| Register.spec (); Register.spec () |])

let inputs01 = [| Value.int 0; Value.int 1 |]

let test_round_robin_runs_to_completion () =
  let machine, specs = two_phase in
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.round_robin ~n:2) ()
  in
  Alcotest.(check bool) "halted" true (r.Executor.stop = Executor.All_halted);
  Alcotest.(check int) "6 steps (2 ops + decide each)" 6 r.Executor.steps;
  (* Round-robin interleaves fully: both see each other's write. *)
  Alcotest.(check (option v)) "p0 decision"
    (Some Value.(pair (int 0, int 1)))
    (Config.decision r.Executor.final 0);
  Alcotest.(check (option v)) "p1 decision"
    (Some Value.(pair (int 1, int 0)))
    (Config.decision r.Executor.final 1)

let test_solo_scheduler () =
  let machine, specs = two_phase in
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01 ~scheduler:(Scheduler.solo 0) ()
  in
  Alcotest.(check bool) "scheduler stopped after p0 halted" true
    (r.Executor.stop = Executor.Scheduler_stopped);
  Alcotest.(check (option v)) "p0 saw NIL"
    (Some Value.(pair (int 0, nil)))
    (Config.decision r.Executor.final 0);
  Alcotest.(check (option v)) "p1 never ran" None
    (Config.decision r.Executor.final 1)

let test_fixed_scheduler_and_trace () =
  let machine, specs = two_phase in
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.fixed [ 0; 0; 1; 1; 1; 0 ])
      ()
  in
  Alcotest.(check int) "trace length" 6 (Trace.length r.Executor.trace);
  (* p0 wrote and read before p1 wrote: p0 sees NIL, p1 sees 0. *)
  Alcotest.(check (option v)) "p0 decision"
    (Some Value.(pair (int 0, nil)))
    (Config.decision r.Executor.final 0);
  Alcotest.(check (option v)) "p1 decision"
    (Some Value.(pair (int 1, int 0)))
    (Config.decision r.Executor.final 1);
  (* Trace pids follow the fixed schedule. *)
  let pids =
    List.map (fun (e : Trace.entry) -> Trace.pid_of_event e.event) r.Executor.trace
  in
  Alcotest.(check (list int)) "schedule respected" [ 0; 0; 1; 1; 1; 0 ] pids

let test_random_scheduler_deterministic_by_seed () =
  let machine, specs = two_phase in
  let run seed =
    let r =
      Executor.run ~machine ~specs ~inputs:inputs01
        ~scheduler:(Scheduler.random ~seed) ()
    in
    List.map
      (fun (e : Trace.entry) -> Trace.pid_of_event e.event)
      r.Executor.trace
  in
  Alcotest.(check (list int)) "same seed, same schedule" (run 7) (run 7);
  Alcotest.(check bool) "halts for any seed" true
    (List.for_all (fun seed -> List.length (run seed) = 6) [ 1; 2; 3; 4; 5 ])

let test_starving_scheduler () =
  let machine, specs = two_phase in
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.starving 0 (Scheduler.round_robin ~n:2))
      ()
  in
  (* p1 runs to completion first; p0 then sees p1's write. *)
  Alcotest.(check (option v)) "p0 saw p1's value"
    (Some Value.(pair (int 0, int 1)))
    (Config.decision r.Executor.final 0)

let test_excluding_scheduler () =
  let machine, specs = two_phase in
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.excluding [ 1 ] (Scheduler.round_robin ~n:2))
      ()
  in
  Alcotest.(check (option v)) "p1 crashed-like: never decided" None
    (Config.decision r.Executor.final 1);
  Alcotest.(check (option v)) "p0 decided alone"
    (Some Value.(pair (int 0, nil)))
    (Config.decision r.Executor.final 0)

let test_run_solo_continuation () =
  let machine, specs = two_phase in
  (* Let p0 take one step, then p1 solo to completion. *)
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.fixed [ 0 ]) ()
  in
  let r2 = Executor.run_solo ~machine ~specs r.Executor.final 1 in
  Alcotest.(check bool) "p1 halted" true (r2.Executor.stop = Executor.All_halted);
  Alcotest.(check (option v)) "p1 saw p0's write"
    (Some Value.(pair (int 1, int 0)))
    (Config.decision r2.Executor.final 1)

let test_config_crash () =
  let machine, specs = two_phase in
  let c = Config.initial ~machine ~specs ~inputs:inputs01 in
  let c = Config.crash c 1 in
  Alcotest.(check (list int)) "only p0 runnable" [ 0 ] (Config.running c);
  Alcotest.(check bool) "not all halted" false (Config.all_halted c)

let test_config_compare () =
  let machine, specs = two_phase in
  let c1 = Config.initial ~machine ~specs ~inputs:inputs01 in
  let c2 = Config.initial ~machine ~specs ~inputs:inputs01 in
  Alcotest.(check bool) "equal initials" true (Config.equal c1 c2);
  let c3, _ = Config.step ~machine ~specs ~choice:(fun _ -> 0) c1 0 in
  Alcotest.(check bool) "step changes config" false (Config.equal c1 c3)

let test_step_limit () =
  (* A machine that spins forever on a register read. *)
  let name = "spinner" in
  let machine =
    Machine.make ~name
      ~init:(fun ~pid:_ ~input:_ -> Value.sym "spin")
      ~delta:(fun ~pid state ->
        match state with
        | { Value.node = Sym "spin"; _ } ->
          Machine.invoke 0 Register.read (fun _ -> Value.sym "spin")
        | s -> Machine.bad_state ~machine:name ~pid s)
  in
  let r =
    Executor.run ~max_steps:50 ~machine ~specs:[| Register.spec () |]
      ~inputs:[| Value.unit_ |] ~scheduler:(Scheduler.solo 0) ()
  in
  Alcotest.(check bool) "fuel ran out" true (r.Executor.stop = Executor.Step_limit);
  Alcotest.(check int) "exactly max_steps" 50 r.Executor.steps

let test_nondet_resolution () =
  (* Two processes race proposes into a 2-SA object; under Random nondet
     the decided values are always among the proposals. *)
  let machine =
    Consensus_protocols.one_shot ~name:"sa2-race" ~mk_op:Sa2.propose ()
  in
  let specs = [| Sa2.spec () |] in
  for seed = 1 to 20 do
    let r =
      Executor.run
        ~nondet:(Executor.Random (Prng.create seed))
        ~machine ~specs ~inputs:inputs01
        ~scheduler:(Scheduler.random ~seed) ()
    in
    List.iter
      (fun d ->
        Alcotest.(check bool) "decision among proposals" true
          (List.mem d [ Value.int 0; Value.int 1 ]))
      (Config.decisions r.Executor.final)
  done

let test_strategy_nondet () =
  (* A custom adversary that always picks the branch with the largest
     2-SA STATE response: after both inputs are in STATE, every response
     is the maximum (1), so both processes decide 1. *)
  let machine =
    Consensus_protocols.one_shot ~name:"sa2-max" ~mk_op:Sa2.propose ()
  in
  let specs = [| Sa2.spec () |] in
  let pick_max (configs : Config.t list) =
    (* Branch list order follows Set_ element order (sorted ascending),
       so the last branch carries the largest response. *)
    List.length configs - 1
  in
  let r =
    Executor.run
      ~nondet:(Executor.Strategy pick_max)
      ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.fixed [ 0; 1; 0; 1 ]) ()
  in
  (* p0 proposes 0 (gets 0, STATE={0}); p1 proposes 1: branches sorted
     {0,1}, adversary picks 1.  Decisions: 0 and 1... the adversary
     maximizes per-branch, so p1 decides 1 while p0 already had 0. *)
  Alcotest.(check (option v)) "p0 decided 0" (Some (Value.int 0))
    (Config.decision r.Executor.final 0);
  Alcotest.(check (option v)) "p1 decided 1 (max branch)" (Some (Value.int 1))
    (Config.decision r.Executor.final 1)

let test_machine_bad_state_raises () =
  let machine, specs = two_phase in
  let c = Config.initial ~machine ~specs ~inputs:inputs01 in
  let broken = { c with Config.locals = [| Value.sym "garbage"; Value.sym "garbage" |] } in
  match Config.step_branches ~machine ~specs broken 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bad_state to raise"

(* Configurations share the arrays a step leaves unchanged: a read keeps
   its parent's object vector, an operation its status array, and a
   write or a decide copies what it changes, leaving the parent's arrays
   as they were. *)
let test_config_step_shares () =
  let machine, specs = two_phase in
  let step (c : Config.t) pid =
    match Config.step_branches ~machine ~specs c pid with
    | [ (c', _) ] -> c'
    | _ -> Alcotest.fail "expected one branch"
  in
  let c0 = Config.initial ~machine ~specs ~inputs:inputs01 in
  let objects0 = Array.copy c0.objects and status0 = Array.copy c0.status in
  let c1 = step c0 0 (* p0 writes its input to register 0 *) in
  Alcotest.(check bool) "a write copies the object vector" false
    (c1.objects == c0.objects);
  Alcotest.(check bool) "the parent's vector is untouched" true
    (Array.for_all2 Value.equal objects0 c0.objects);
  Alcotest.(check bool) "an operation shares the status array" true
    (c1.status == c0.status);
  let c2 = step c1 0 (* p0 reads register 1 *) in
  Alcotest.(check bool) "a read shares the object vector" true
    (c2.objects == c1.objects);
  let c3 = step c2 0 (* p0 decides *) in
  Alcotest.(check bool) "a decide copies the status array" false
    (c3.status == c2.status);
  Alcotest.(check bool) "the parent's statuses are untouched" true
    (c2.status = status0);
  Alcotest.(check bool) "a decide shares the object vector" true
    (c3.objects == c2.objects)

let test_prefix_scheduler () =
  let machine, specs = two_phase in
  (* Prefix gives p1 a head start, then round-robin finishes. *)
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.prefix [ 1; 1 ] (Scheduler.round_robin ~n:2)) ()
  in
  Alcotest.(check bool) "halted" true (r.Executor.stop = Executor.All_halted);
  (* p1 wrote and read before p0 wrote: p1 saw NIL. *)
  Alcotest.(check (option v)) "p1 read NIL"
    (Some Value.(pair (int 1, nil)))
    (Config.decision r.Executor.final 1);
  Alcotest.(check (option v)) "p0 read p1's value"
    (Some Value.(pair (int 0, int 1)))
    (Config.decision r.Executor.final 0)

(* --- fault injection ---------------------------------------------------- *)

let test_fault_plan () =
  let machine, specs = two_phase in
  (* p1 crashes after its first step: p0 reads p1's write but p1 never
     decides. *)
  let scheduler =
    Fault.apply [ (1, 1) ] (Scheduler.starving 0 (Scheduler.round_robin ~n:2))
  in
  let r = Executor.run ~machine ~specs ~inputs:inputs01 ~scheduler () in
  Alcotest.(check (option v)) "p1 never decided" None
    (Config.decision r.Executor.final 1);
  Alcotest.(check (option v)) "p0 saw p1's write"
    (Some Value.(pair (int 0, int 1)))
    (Config.decision r.Executor.final 0)

let test_fault_enumerate () =
  let plans = Fault.enumerate ~victims:[ 1; 2 ] ~max_steps:2 in
  (* Each victim: survive or crash after 0/1/2 steps = 4 options. *)
  Alcotest.(check int) "4 * 4 plans" 16 (List.length plans);
  (* Algorithm 2 stays safe under every crash plan for the non-p
     processes. *)
  let n = 3 in
  let machine = Dac_from_pac.machine ~n in
  let specs = Dac_from_pac.specs ~n in
  let inputs = [| Value.int 1; Value.int 0; Value.int 0 |] in
  List.iter
    (fun plan ->
      let scheduler = Fault.apply plan (Scheduler.round_robin ~n) in
      let r = Executor.run ~machine ~specs ~inputs ~scheduler () in
      match Dac.check_safety ~inputs ~trace:r.Executor.trace r.Executor.final with
      | Ok () -> ()
      | Error viol ->
        Alcotest.failf "plan %a: %a" Fault.pp_plan plan Dac.pp_violation viol)
    plans

let test_fault_random_plan_reproducible () =
  let mk seed =
    Fault.random ~prng:(Prng.create seed) ~victims:[ 1; 2; 3 ] ~max_steps:5
  in
  Alcotest.(check bool) "same seed same plan" true (mk 4 = mk 4)

let test_trace_lanes () =
  let machine, specs = two_phase in
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.round_robin ~n:2) ()
  in
  let rendered = Fmt.str "%a" (Trace.pp_lanes ~n:2) r.Executor.trace in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0 && String.sub rendered 0 2 = "p0");
  (* One line per step plus the header. *)
  let lines = String.split_on_char '\n' (String.trim rendered) in
  Alcotest.(check int) "7 lines" 7 (List.length lines)

(* --- regressions: hashing, scheduler/fault reuse, prng ------------------ *)

let test_config_hash_deep_differences () =
  (* Configurations that differ only deep inside a 30-element list used
     to collide en masse under the shallow [Hashtbl.hash] (it inspects
     ~10 heap nodes); the element-wise hash must keep them essentially
     all distinct. *)
  let mk i =
    {
      Config.locals =
        [|
          Value.list (List.init 30 (fun j -> Value.int (if j = 29 then i else 0)));
        |];
      objects = [| Value.nil |];
      status = [| Config.Running |];
    }
  in
  let hashes = List.init 1000 (fun i -> Config.hash (mk i)) in
  let distinct = List.length (Listx.sort_uniq Stdlib.compare hashes) in
  Alcotest.(check bool)
    (Fmt.str "%d distinct hashes out of 1000" distinct)
    true (distinct >= 990)

(* Random configurations over small value trees and every status, for
   the hash-bits property. *)
let value_gen =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 map Value.int (int_range (-3) 20);
                 map Value.sym (oneofl [ "a"; "b"; "writing" ]);
                 oneofl [ Value.bot; Value.nil; Value.unit_; Value.done_ ];
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map Value.pair (pair (self (depth - 1)) (self (depth - 1))));
                 (1, map Value.list (list_size (int_bound 3) (self (depth - 1))));
               ]))

let config_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    map3
      (fun locals objects status ->
        {
          Config.locals = Array.of_list locals;
          objects = Array.of_list objects;
          status = Array.of_list status;
        })
      (list_repeat n value_gen)
      (list_size (int_bound 4) value_gen)
      (list_repeat n
         (oneof
            [
              return Config.Running;
              map (fun v -> Config.Decided v) value_gen;
              return Config.Aborted;
              return Config.Crashed;
            ])))

let prop_config_hash_bits =
  QCheck.Test.make ~count:500 ~name:"Config.hash = the fold's bits"
    (QCheck.make ~print:(Fmt.to_to_string Config.pp) config_gen)
    (fun c -> Config.hash c = Oracle.config_hash c)

(* --- the transition memo ------------------------------------------------- *)

(* Tasks the stepper is checked on: shared-memory protocols, the mp
   demos (whose receives carry the pid), and k-set agreement through one
   (3,2)-SA object, whose proposes branch. *)
let memo_tasks =
  let api t =
    let i = Serve_api.instance t in
    (Serve_api.task_label t, i.machine, i.specs, Serve_api.input_vector t)
  in
  [
    api (Serve_api.Dac { n = 4 });
    ( "of:3:2",
      Obstruction_free.machine_spin ~n:3 ~max_rounds:2,
      Obstruction_free.specs ~n:3 ~max_rounds:2,
      Array.init 3 (fun pid -> Value.int (pid mod 2)) );
    api (Serve_api.Kset { m = 2; k = 2 });
    api (Serve_api.Vc { n = 3 });
    api (Serve_api.Bcast { n = 3 });
    (let machine, specs = Kset_protocols.from_nk_sa ~n:3 ~k:2 in
     ("(3,2)-SA", machine, specs, Array.init 3 Value.int));
  ]

(* The configurations of one random walk: a running pid and one of its
   branches at each step, until all halt or [len] steps. *)
let random_walk ~machine ~specs ~inputs ~seed ~len =
  let rng = Prng.create seed in
  let rec go c k acc =
    match Config.running c with
    | [] -> c :: acc
    | _ when k = 0 -> c :: acc
    | running ->
      let pid = Prng.pick rng running in
      let c', _ = Prng.pick rng (Config.step_branches ~machine ~specs c pid) in
      go c' (k - 1) (c :: acc)
  in
  go (Config.initial ~machine ~specs ~inputs) len []

let event_equal (a : Config.event) (b : Config.event) =
  match (a, b) with
  | Op_event a, Op_event b ->
    a.pid = b.pid && a.obj = b.obj && Op.equal a.op b.op
    && Value.equal a.response b.response
  | Decide_event a, Decide_event b -> a.pid = b.pid && Value.equal a.value b.value
  | Abort_event a, Abort_event b -> a.pid = b.pid
  | (Op_event _ | Decide_event _ | Abort_event _), _ -> false

(* Element by element: equal successors and events, and each array of
   [c] shared by one list's successor exactly when by the other's. *)
let same_steps (c : Config.t) memo plain =
  List.length memo = List.length plain
  && List.for_all2
       (fun ((m : Config.t), me) ((p : Config.t), pe) ->
         Config.equal m p && event_equal me pe
         && (m.objects == c.objects) = (p.objects == c.objects)
         && (m.status == c.status) = (p.status == c.status)
         && (m.locals == c.locals) = (p.locals == c.locals))
       memo plain

(* One stepper per task for every case, so each sees the keys of many
   walks and of every pid: a key that dropped the pid, or a substrate
   with a step rule of its own, fails here. *)
let prop_stepper_matches_step =
  let tasks =
    List.map
      (fun (label, machine, specs, inputs) ->
        (label, machine, specs, inputs, Config.stepper ~machine ~specs))
      memo_tasks
  in
  let substrates = [ Substrate.shm; Substrate.mp (); Substrate.mp ~byz:1 () ] in
  QCheck.Test.make ~count:300 ~name:"stepper = step_branches on random walks"
    QCheck.(pair (int_bound (List.length tasks - 1)) (int_bound 1_000_000))
    (fun (i, seed) ->
      let label, machine, specs, inputs, st = List.nth tasks i in
      List.for_all
        (fun c ->
          List.for_all
            (fun pid ->
              let memo = Config.step_memo st c pid in
              let steps =
                Config.step_branches ~machine ~specs c pid
                :: List.map
                     (fun (sub : Substrate.t) ->
                       sub.step_branches ~machine ~specs c pid)
                     substrates
              in
              List.for_all (same_steps c memo) steps
              || QCheck.Test.fail_reportf "%s: pid %d at@ %a" label pid
                   Config.pp c)
            (Config.running c))
        (random_walk ~machine ~specs ~inputs ~seed ~len:40))

(* The stepper raises what the plain step raises, and a raising [delta]
   or [resume] leaves nothing cached: once they stop raising, the
   stepper answers. *)
let test_stepper_raises () =
  let machine, specs = two_phase in
  let st = Config.stepper ~machine ~specs in
  let c0 = Config.initial ~machine ~specs ~inputs:inputs01 in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  let halted = Config.crash c0 1 in
  raises "not running" (fun () -> Config.step_memo st halted 1);
  raises "not running, plain" (fun () ->
      Config.step_branches ~machine ~specs halted 1);
  let delta_ok = ref false and resume_ok = ref false in
  let flaky =
    Machine.make ~name:"flaky" ~init:machine.init ~delta:(fun ~pid s ->
        if not !delta_ok then invalid_arg "flaky delta";
        match machine.delta ~pid s with
        | Machine.Invoke { obj; op; resume } ->
          Machine.Invoke
            {
              obj;
              op;
              resume =
                (fun r ->
                  if not !resume_ok then invalid_arg "flaky resume";
                  resume r);
            }
        | m -> m)
  in
  let st = Config.stepper ~machine:flaky ~specs in
  raises "delta" (fun () -> Config.step_memo st c0 0);
  delta_ok := true;
  raises "resume" (fun () -> Config.step_memo st c0 0);
  resume_ok := true;
  Alcotest.(check bool) "answers once they stop raising" true
    (same_steps c0 (Config.step_memo st c0 0)
       (Config.step_branches ~machine ~specs c0 0));
  let nowhere =
    Machine.make ~name:"nowhere" ~init:machine.init ~delta:(fun ~pid:_ _ ->
        Machine.invoke 7 Register.read Fun.id)
  in
  raises "no object" (fun () ->
      Config.step_memo (Config.stepper ~machine:nowhere ~specs) c0 0);
  raises "no object, plain" (fun () ->
      Config.step_branches ~machine:nowhere ~specs c0 0)

let test_fault_apply_reusable () =
  let machine, specs = two_phase in
  let scheduler =
    Fault.apply [ (1, 1) ] (Scheduler.starving 0 (Scheduler.round_robin ~n:2))
  in
  let run () = Executor.run ~machine ~specs ~inputs:inputs01 ~scheduler () in
  let r1 = run () in
  let r2 = run () in
  (* The crash budgets are per-run: the second run must replay the first
     (p1 still gets its one step before crashing, so p0 still observes
     p1's write) instead of starting with the victim pre-crashed. *)
  Alcotest.(check int) "same number of steps" r1.Executor.steps r2.Executor.steps;
  Alcotest.(check (option v)) "p0 saw p1's write again"
    (Some Value.(pair (int 0, int 1)))
    (Config.decision r2.Executor.final 0);
  Alcotest.(check (option v)) "p1 still crashed undecided" None
    (Config.decision r2.Executor.final 1)

let test_random_scheduler_reusable () =
  let machine, specs = two_phase in
  let scheduler = Scheduler.random ~seed:11 in
  let run () = Executor.run ~machine ~specs ~inputs:inputs01 ~scheduler () in
  let r1 = run () in
  let r2 = run () in
  (* The PRNG re-seeds at step 0, so reusing the scheduler value replays
     the same schedule instead of continuing the exhausted stream. *)
  Alcotest.(check int) "same number of steps" r1.Executor.steps r2.Executor.steps;
  Alcotest.(check bool) "same trace" true
    (Trace.events r1.Executor.trace = Trace.events r2.Executor.trace)

let test_fixed_stops_on_halted_pid () =
  let machine, specs = two_phase in
  (* p0 halts after 3 steps (write, read, decide); the schedule names it
     a 4th time: the run stops rather than skipping to another pid. *)
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.fixed [ 0; 0; 0; 0; 1 ]) ()
  in
  Alcotest.(check bool) "scheduler stopped" true
    (r.Executor.stop = Executor.Scheduler_stopped);
  Alcotest.(check int) "3 steps taken" 3 r.Executor.steps;
  Alcotest.(check (option v)) "p0 decided solo"
    (Some Value.(pair (int 0, nil)))
    (Config.decision r.Executor.final 0);
  Alcotest.(check (option v)) "p1 never stepped to a decision" None
    (Config.decision r.Executor.final 1)

let test_prefix_stops_on_halted_pid () =
  let machine, specs = two_phase in
  (* Same halted-pid semantics as [fixed]: the prefix does not fall
     through to the continuation when its scheduled pid has halted. *)
  let r =
    Executor.run ~machine ~specs ~inputs:inputs01
      ~scheduler:(Scheduler.prefix [ 0; 0; 0; 0 ] (Scheduler.round_robin ~n:2))
      ()
  in
  Alcotest.(check bool) "scheduler stopped" true
    (r.Executor.stop = Executor.Scheduler_stopped);
  Alcotest.(check int) "3 steps taken" 3 r.Executor.steps;
  Alcotest.(check (option v)) "p1 untouched" None
    (Config.decision r.Executor.final 1)

let test_prng_int_uniform () =
  let prng = Prng.create 2026 in
  let bound = 10 and draws = 20_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let x = Prng.int prng bound in
    if x < 0 || x >= bound then Alcotest.failf "draw %d out of [0,%d)" x bound;
    counts.(x) <- counts.(x) + 1
  done;
  (* Expected 2000 per bucket, sigma ~42: a +-200 corridor is ~4.7 sigma,
     so a pass is overwhelmingly likely for a uniform stream and a fail
     catches gross bias (e.g. the old modulo construction on a skewed
     bound). *)
  Array.iteri
    (fun x c ->
      if c < 1800 || c > 2200 then
        Alcotest.failf "bucket %d has %d draws (expected ~2000)" x c)
    counts

let test_prng_substream_golden () =
  (* Pinned SplitMix64 substream outputs: any change to the derivation
     breaks every recorded `--seed N` reproduction line, so it must be
     deliberate and show up here. *)
  let t = Prng.of_substream ~seed:42 ~index:0 in
  Alcotest.(check int64) "42/0 draw 1" 6332618229526065668L (Prng.next_int64 t);
  Alcotest.(check int64) "42/0 draw 2" (-816328817471504299L) (Prng.next_int64 t);
  Alcotest.(check int64) "42/0 draw 3" 8971565426155258802L (Prng.next_int64 t);
  let t = Prng.of_substream ~seed:42 ~index:1 in
  Alcotest.(check int64) "42/1 draw 1" (-245134149879684690L) (Prng.next_int64 t);
  let t = Prng.of_substream ~seed:7 ~index:100 in
  Alcotest.(check int64) "7/100 draw 1" (-3429997056032408803L) (Prng.next_int64 t)

let test_prng_substream_order_independent () =
  (* of_substream is a pure function of (seed, index): interleaving the
     creation of substreams, or drawing from one before creating
     another, must not perturb any stream — the property the fuzzer's
     multi-domain fan-out relies on for trial determinism. *)
  let sequential =
    List.map
      (fun i ->
        let t = Prng.of_substream ~seed:2026 ~index:i in
        List.init 5 (fun _ -> Prng.next_int64 t))
      [ 0; 1; 2; 3 ]
  in
  (* Reversed creation order, with extra draws between creations. *)
  let noise = Prng.create 99 in
  let interleaved =
    List.rev
      (List.map
         (fun i ->
           ignore (Prng.int noise 17);
           let t = Prng.of_substream ~seed:2026 ~index:i in
           ignore (Prng.int noise 3);
           List.init 5 (fun _ -> Prng.next_int64 t))
         [ 3; 2; 1; 0 ])
  in
  Alcotest.(check (list (list int64)))
    "streams independent of creation order" sequential interleaved;
  (* Distinct indices give distinct streams. *)
  Alcotest.(check bool) "substreams differ" true
    (List.nth sequential 0 <> List.nth sequential 1)

let test_prng_substream_negative_index () =
  match Prng.of_substream ~seed:1 ~index:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index should be rejected"

(* Property companion to the halted-pid fixes above: a [starving]
   scheduler only ever returns a runnable pid — a crashed (non-runnable)
   process is never scheduled — and it yields its victim only when the
   victim is the sole runnable process.  Holds through the wrapper for
   any inner scheduler that picks from the runnable set it is handed,
   because [starving] filters the victim out before delegating. *)
let prop_starving_never_schedules_crashed =
  QCheck.Test.make ~count:1000
    ~name:"starving never schedules a crashed pid"
    QCheck.(triple (int_range 2 5) (int_range 0 31) small_nat)
    (fun (n, crash_mask, seed) ->
      let victim = seed mod n in
      let runnable =
        List.filter
          (fun pid -> crash_mask land (1 lsl pid) = 0)
          (List.init n Fun.id)
      in
      let lawful sched =
        let s = Scheduler.starving victim sched in
        List.for_all
          (fun step ->
            match s.Scheduler.next ~step ~runnable with
            | None -> true
            | Some pid ->
              List.mem pid runnable
              && (pid <> victim || runnable = [ victim ]))
          (List.init 20 Fun.id)
      in
      lawful (Scheduler.round_robin ~n) && lawful (Scheduler.random ~seed))

let () =
  Alcotest.run "runtime"
    [
      ( "executor",
        [
          Alcotest.test_case "round robin" `Quick
            test_round_robin_runs_to_completion;
          Alcotest.test_case "solo" `Quick test_solo_scheduler;
          Alcotest.test_case "fixed + trace" `Quick
            test_fixed_scheduler_and_trace;
          Alcotest.test_case "random reproducible" `Quick
            test_random_scheduler_deterministic_by_seed;
          Alcotest.test_case "starving" `Quick test_starving_scheduler;
          Alcotest.test_case "excluding" `Quick test_excluding_scheduler;
          Alcotest.test_case "run_solo continuation" `Quick
            test_run_solo_continuation;
          Alcotest.test_case "prefix scheduler" `Quick test_prefix_scheduler;
          Alcotest.test_case "random scheduler reusable" `Quick
            test_random_scheduler_reusable;
          Alcotest.test_case "fixed stops on halted pid" `Quick
            test_fixed_stops_on_halted_pid;
          Alcotest.test_case "prefix stops on halted pid" `Quick
            test_prefix_stops_on_halted_pid;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "nondeterminism resolution" `Quick
            test_nondet_resolution;
          Alcotest.test_case "custom adversary strategy" `Quick
            test_strategy_nondet;
          QCheck_alcotest.to_alcotest prop_starving_never_schedules_crashed;
        ] );
      ( "fault",
        [
          Alcotest.test_case "plan application" `Quick test_fault_plan;
          Alcotest.test_case "plan enumeration sweep" `Quick
            test_fault_enumerate;
          Alcotest.test_case "random plan reproducible" `Quick
            test_fault_random_plan_reproducible;
          Alcotest.test_case "apply is reusable across runs" `Quick
            test_fault_apply_reusable;
          Alcotest.test_case "trace lanes rendering" `Quick test_trace_lanes;
        ] );
      ( "config",
        [
          Alcotest.test_case "crash" `Quick test_config_crash;
          Alcotest.test_case "steps share unchanged arrays" `Quick
            test_config_step_shares;
          Alcotest.test_case "compare" `Quick test_config_compare;
          Alcotest.test_case "bad state raises" `Quick
            test_machine_bad_state_raises;
          Alcotest.test_case "hash separates deep differences" `Quick
            test_config_hash_deep_differences;
          QCheck_alcotest.to_alcotest prop_config_hash_bits;
          QCheck_alcotest.to_alcotest prop_stepper_matches_step;
          Alcotest.test_case "stepper raises, caches no raise" `Quick
            test_stepper_raises;
        ] );
      ( "prng",
        [
          Alcotest.test_case "bounded draws uniform" `Quick
            test_prng_int_uniform;
          Alcotest.test_case "substream golden values" `Quick
            test_prng_substream_golden;
          Alcotest.test_case "substream draw-order independence" `Quick
            test_prng_substream_order_independent;
          Alcotest.test_case "substream negative index" `Quick
            test_prng_substream_negative_index;
        ] );
    ]
