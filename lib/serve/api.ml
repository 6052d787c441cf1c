open Lbsa_util
open Lbsa_spec
open Lbsa_runtime
open Lbsa_protocols
open Lbsa_modelcheck

(* The service API: one pure-data query language shared by every
   front-end (the unix-socket daemon today, HTTP/batch backends later),
   a canonical cross-process-stable cache key per query, the task table
   that turns a task into a protocol and a verdict (for the CLI too),
   and the cold compute path that answers a query through it.

   Everything in a query and a result is plain data — ints, strings,
   bools — never a [Value.t] or a [Config.t]: intern ids and pointer
   identity must not cross a process boundary.  The encoders below are
   the only way a query or a result becomes bytes, for the wire and
   for the store alike. *)

type reduce_mode = [ `None | `Sym | `Sym_sleep ]

type task =
  | Dac of { n : int }
  | Consensus of { m : int }
  | Kset of { m : int; k : int }
  | Candidate of { name : string }
  | Vc of { n : int }
  | Bcast of { n : int }

type question = Solve | Valence | Live

type query =
  | Verify of {
      task : task;
      question : question;
      inputs : int list;
      max_states : int;
      reduce : reduce_mode;
      substrate : string;
    }
  | Fuzz of { target : string; trials : int; procs : int; ops : int; seed : int }

(* --- results ------------------------------------------------------------ *)

type verify_payload = {
  v_ok : bool;
  v_outcome : string;
  v_partial : bool;
  v_inputs : int list;
  v_states : int;
  v_failure : string option;
}

type valence_payload = {
  l_nodes : int;
  l_edges : int;
  l_truncated : bool;  (** the [max_states] quota fired (key-determined) *)
  l_partial : bool;  (** a budget cut the build (not key-determined) *)
  l_bivalent : int;
  l_univalent : int;
  l_undecided : int;
  l_initial : string;
}

type fuzz_payload = {
  f_target : string;
  f_trials : int;
  f_completed : int;
  f_partial : bool;
  f_failure : string option;
  f_resumed_from : int;
}

type live_payload = {
  lv_live : bool;
  lv_nodes : int;
  lv_sccs : int;
  lv_fair : int;
  lv_truncated : bool;  (** the [max_states] quota fired (key-determined) *)
  lv_partial : bool;  (** a budget cut the build (not key-determined) *)
  lv_prefix : int;  (** shrunk lasso prefix length; 0 when live *)
  lv_cycle : int;  (** shrunk lasso cycle length; 0 when live *)
  lv_witness : string option;  (** the shrunk lasso rendered as traces *)
}

type result =
  | Verdict of verify_payload
  | Valences of valence_payload
  | Fuzz_report of fuzz_payload
  | Liveness_report of live_payload

(* --- canonical fingerprint --------------------------------------------- *)

let reduce_name = function
  | `None -> "none"
  | `Sym -> "sym"
  | `Sym_sleep -> "sym+sleep"

let task_label = function
  | Dac { n } -> Fmt.str "dac:%d" n
  | Consensus { m } -> Fmt.str "cons:%d" m
  | Kset { m; k } -> Fmt.str "kset:%d:%d" m k
  | Candidate { name } -> "cand:" ^ name
  | Vc { n } -> Fmt.str "vc:%d" n
  | Bcast { n } -> Fmt.str "bcast:%d" n

let question_label = function
  | Solve -> "solve"
  | Valence -> "valence"
  | Live -> "live"

let mp_task = function Vc _ | Bcast _ -> true | _ -> false

let default_substrate task = if mp_task task then "mp" else "shm"

(* The canonical preimage pins EVERYTHING the answer is a function of:
   task, question, the full input vector, the state quota, the
   reduction mode and the execution substrate.  The original `lbsa
   fingerprint` ignored everything after the inputs, so two
   semantically different queries could share a key; the serve cache
   would then return one query's verdict for the other.  /2 added the
   substrate and the liveness question — a liveness answer and a safety
   answer on the same task must never share a key, nor may the same
   task under shm and mp fairness.  Budget-side knobs (deadline,
   domains, worker count) stay out — they can change how long an answer
   takes, never what it is. *)
let canonical = function
  | Verify v ->
    Fmt.str "lbsa-query/2 verify task=%s question=%s inputs=%s max_states=%d \
             reduce=%s substrate=%s"
      (task_label v.task)
      (question_label v.question)
      (String.concat "," (List.map string_of_int v.inputs))
      v.max_states (reduce_name v.reduce) v.substrate
  | Fuzz f ->
    Fmt.str "lbsa-query/2 fuzz target=%s trials=%d procs=%d ops=%d seed=%d"
      f.target f.trials f.procs f.ops f.seed

let key q = Fnv.to_hex (Fnv.string (canonical q))

(* --- encoders ----------------------------------------------------------- *)

(* The payloads the wire and the store carry.  Each field is written in
   declaration order and read back, in the same order, into the same
   constructor. *)

let ints = Codec.(list int)
let opt_string = Codec.(option string)

let task_codec =
  let open Codec in
  variant
    ~put:(fun b -> function
      | Dac { n } -> tag b 0; int.put b n
      | Consensus { m } -> tag b 1; int.put b m
      | Kset { m; k } -> tag b 2; int.put b m; int.put b k
      | Candidate { name } -> tag b 3; string.put b name
      | Vc { n } -> tag b 4; int.put b n
      | Bcast { n } -> tag b 5; int.put b n)
    ~get:(fun c -> function
      | 0 -> Dac { n = int.get c }
      | 1 -> Consensus { m = int.get c }
      | 2 -> let m = int.get c in Kset { m; k = int.get c }
      | 3 -> Candidate { name = string.get c }
      | 4 -> Vc { n = int.get c }
      | 5 -> Bcast { n = int.get c }
      | k -> bad_tag k)

let question_codec = Codec.enum [ Solve; Valence; Live ]
let reduce_codec : reduce_mode Codec.t = Codec.enum [ `None; `Sym; `Sym_sleep ]

let query_codec =
  let open Codec in
  variant
    ~put:(fun b -> function
      | Verify v ->
        tag b 0;
        task_codec.put b v.task;
        question_codec.put b v.question;
        ints.put b v.inputs;
        int.put b v.max_states;
        reduce_codec.put b v.reduce;
        string.put b v.substrate
      | Fuzz f ->
        tag b 1;
        string.put b f.target;
        List.iter (int.put b) [ f.trials; f.procs; f.ops; f.seed ])
    ~get:(fun c -> function
      | 0 ->
        let task = task_codec.get c in
        let question = question_codec.get c in
        let inputs = ints.get c in
        let max_states = int.get c in
        let reduce = reduce_codec.get c in
        Verify { task; question; inputs; max_states; reduce; substrate = string.get c }
      | 1 ->
        let target = string.get c in
        let trials = int.get c in
        let procs = int.get c in
        let ops = int.get c in
        Fuzz { target; trials; procs; ops; seed = int.get c }
      | k -> bad_tag k)

let result_codec =
  let open Codec in
  variant
    ~put:(fun b -> function
      | Verdict v ->
        tag b 0;
        bool.put b v.v_ok; string.put b v.v_outcome; bool.put b v.v_partial;
        ints.put b v.v_inputs; int.put b v.v_states; opt_string.put b v.v_failure
      | Valences l ->
        tag b 1;
        int.put b l.l_nodes; int.put b l.l_edges;
        bool.put b l.l_truncated; bool.put b l.l_partial;
        List.iter (int.put b) [ l.l_bivalent; l.l_univalent; l.l_undecided ];
        string.put b l.l_initial
      | Fuzz_report f ->
        tag b 2;
        string.put b f.f_target; int.put b f.f_trials; int.put b f.f_completed;
        bool.put b f.f_partial; opt_string.put b f.f_failure;
        int.put b f.f_resumed_from
      | Liveness_report lv ->
        tag b 3;
        bool.put b lv.lv_live;
        List.iter (int.put b) [ lv.lv_nodes; lv.lv_sccs; lv.lv_fair ];
        bool.put b lv.lv_truncated; bool.put b lv.lv_partial;
        int.put b lv.lv_prefix; int.put b lv.lv_cycle;
        opt_string.put b lv.lv_witness)
    ~get:(fun c -> function
      | 0 ->
        let v_ok = bool.get c in
        let v_outcome = string.get c in
        let v_partial = bool.get c in
        let v_inputs = ints.get c in
        let v_states = int.get c in
        Verdict
          { v_ok; v_outcome; v_partial; v_inputs; v_states; v_failure = opt_string.get c }
      | 1 ->
        let l_nodes = int.get c in
        let l_edges = int.get c in
        let l_truncated = bool.get c in
        let l_partial = bool.get c in
        let l_bivalent = int.get c in
        let l_univalent = int.get c in
        let l_undecided = int.get c in
        Valences { l_nodes; l_edges; l_truncated; l_partial; l_bivalent; l_univalent;
                   l_undecided; l_initial = string.get c }
      | 2 ->
        let f_target = string.get c in
        let f_trials = int.get c in
        let f_completed = int.get c in
        let f_partial = bool.get c in
        let f_failure = opt_string.get c in
        Fuzz_report { f_target; f_trials; f_completed; f_partial; f_failure;
                      f_resumed_from = int.get c }
      | 3 ->
        let lv_live = bool.get c in
        let lv_nodes = int.get c in
        let lv_sccs = int.get c in
        let lv_fair = int.get c in
        let lv_truncated = bool.get c in
        let lv_partial = bool.get c in
        let lv_prefix = int.get c in
        let lv_cycle = int.get c in
        Liveness_report { lv_live; lv_nodes; lv_sccs; lv_fair; lv_truncated; lv_partial;
                          lv_prefix; lv_cycle; lv_witness = opt_string.get c }
      | k -> bad_tag k)

(* --- the task table ------------------------------------------------------- *)

(* The one place a task becomes a protocol and a verdict: the daemon's
   [compute] and the CLI's check/solve/valence/explore/fingerprint all
   resolve tasks here, so the two front-ends cannot drift apart. *)

type instance = {
  machine : Machine.t;
  specs : Obj_spec.t array;
  procs : int;
  flavor : Solvability.task;
  canon : Canon.t;
  frozen : (int -> Value.t -> bool) option;
}

(* dac's PAC object (index 0) is permanently inert once upset — the
   certification the sleep layer's [frozen] hook wants. *)
let dac_frozen obj st = obj = 0 && Lbsa_objects.Pac.is_upset st

(* The failing candidates: (flavor, processes, protocol). *)
let candidates =
  let cons = Solvability.Consensus and dac = Solvability.Dac in
  [
    ("flp-write-read", (cons, 2, fun () -> Candidates.flp_write_read));
    ("flp-spin", (cons, 2, fun () -> Candidates.flp_spin));
    ("3dac-sa2-then-cons2", (dac, 3, fun () -> Candidates.dac3_sa2_then_cons2));
    ("3dac-cons2-announce", (dac, 3, fun () -> Candidates.dac3_cons2_announce));
    ( "3cons-from-22pac",
      (cons, 3, fun () -> Candidates.consensus_m1_from_pac_nm ~n:2 ~m:2) );
    ( "pac-retry",
      (cons, 2, fun () -> Candidates.consensus_from_pac_retry ~n:2 ~procs:2) );
  ]

let candidate name =
  match List.assoc_opt name candidates with
  | Some c -> c
  | None ->
    invalid_arg
      (Fmt.str "unknown candidate %S; known: %s" name
         (String.concat ", " (List.map fst candidates)))

let too_many_processes n =
  Fmt.str "%d processes, but the explorer names at most %d" n
    Graph.max_processes

(* The process count; refuses the sizes a task's protocol is not
   defined for, and more processes than the explorer names, before any
   constructor sees them. *)
let procs task =
  let at_least what v lo =
    if v < lo then
      invalid_arg (Fmt.str "task %s needs %s >= %d" (task_label task) what lo)
  in
  let procs =
    match task with
    | Dac { n } | Vc { n } ->
      at_least "n" n 2;
      n
    | Bcast { n } ->
      at_least "n" n 1;
      n
    | Consensus { m } ->
      at_least "m" m 1;
      m
    | Kset { m; k } ->
      at_least "m" m 1;
      at_least "k" k 1;
      m * k
    | Candidate { name } ->
      let _, procs, _ = candidate name in
      procs
  in
  if procs > Graph.max_processes then invalid_arg (too_many_processes procs);
  procs

let instance ?(byz = 0) task =
  let procs = procs task in
  (* No certified symmetry group and no frozen objects: [sym] is the
     identity quotient, [sym+sleep] still prunes commit steps. *)
  let plain flavor (machine, specs) =
    { machine; specs; procs; flavor; canon = Canon.identity; frozen = None }
  in
  match task with
  | Dac { n } ->
    {
      (plain Dac (Dac_from_pac.machine ~n, Dac_from_pac.specs ~n)) with
      canon = Canon.dac ~n;
      frozen = Some dac_frozen;
    }
  | Consensus { m } ->
    {
      (plain Consensus (Consensus_protocols.from_consensus_obj ~m)) with
      canon = Canon.exchangeable ~n:m ();
    }
  | Kset { m; k } ->
    {
      (plain (Kset k) (Kset_protocols.partition ~m ~k)) with
      canon = Canon.kset_partition ~m ~k;
    }
  | Candidate { name } ->
    let flavor, _, protocol = candidate name in
    plain flavor (protocol ())
  (* Message-passing tasks: the leader breaks exchangeability, and the
     network object is built from the substrate's byz budget. *)
  | Vc { n } ->
    plain Consensus (View_change.machine ~n, View_change.specs ~byz ~n ())
  | Bcast { n } ->
    plain Consensus
      (View_change.bcast_machine ~n, View_change.bcast_specs ~byz ~n ())

let default_inputs task =
  let procs = procs task in
  match task with
  | Dac _ -> List.init procs (fun pid -> if pid = 0 then 1 else 0)
  | Kset _ -> List.init procs Fun.id
  | Consensus _ | Candidate _ -> List.init procs (fun pid -> pid mod 2)
  | Vc _ | Bcast _ ->
    (* input-free protocols; the vector only fixes the arity *)
    List.init procs (fun _ -> 0)

let input_vector ?inputs task =
  let inputs = match inputs with Some l -> l | None -> default_inputs task in
  let procs = procs task in
  if List.length inputs <> procs then
    invalid_arg
      (Fmt.str "task %s expects %d inputs, got %d" (task_label task) procs
         (List.length inputs));
  Array.of_list (List.map Value.int inputs)

let family inst =
  match inst.flavor with
  | Kset _ -> [ Kset_task.distinct_inputs inst.procs ]
  | Consensus | Dac -> Consensus_task.binary_inputs inst.procs

let reduction inst (mode : reduce_mode) : Graph.reduction =
  match mode with
  | `None -> Graph.no_reduction
  | `Sym -> { Graph.rname = "sym"; canon = inst.canon; sleep = false; frozen = None }
  | `Sym_sleep ->
    { Graph.rname = "sym+sleep"; canon = inst.canon; sleep = true;
      frozen = inst.frozen }

(* "mp+byz:f" carries its Byzantine budget because the network object's
   delivery guard depends on it — same graph-changing status as the
   reduction mode.  The substrate is not a free knob: message-passing
   tasks need the network-fairness constraints, shared-memory tasks mean
   nothing under them. *)
let substrate task name =
  let unknown () =
    invalid_arg
      (Fmt.str "unknown substrate %S (try shm, mp, mp+byz:<f>)" name)
  in
  let sub, byz =
    match String.split_on_char ':' name with
    | [ "shm" ] -> (Substrate.shm, 0)
    | [ "mp" ] -> (Substrate.mp (), 0)
    | [ "mp+byz"; f ] -> (
      match int_of_string_opt f with
      | Some f when f >= 0 -> (Substrate.mp ~byz:f (), f)
      | _ -> unknown ())
    | _ -> unknown ()
  in
  if mp_task task <> (sub.Substrate.sname <> "shm") then
    invalid_arg
      (Fmt.str "task %s is %s; use --substrate %s" (task_label task)
         (if mp_task task then "message-passing" else "shared-memory")
         (default_substrate task));
  (sub, byz)

(* What [compute] refuses before it builds anything, in the order it
   refuses it. *)
let validate = function
  | Verify v ->
    ignore (substrate v.task v.substrate);
    ignore (input_vector ~inputs:v.inputs v.task)
  | Fuzz _ -> ()

let check inst =
  Solvability.check ~task:inst.flavor ~machine:inst.machine ~specs:inst.specs

let witness inst =
  Solvability.witness ~task:inst.flavor ~machine:inst.machine ~specs:inst.specs

(* --- cold compute ------------------------------------------------------- *)

type computed = {
  res : result;
  cacheable : bool;
      (** safe to memoize forever: the result is a pure function of the
          canonical key.  [Done] results always are; [Truncated] ones
          are too, because [max_states] is part of the key; deadline /
          cancellation / worker-failure results are not. *)
  fuzz_prefix : int option;
      (** on a partial fuzz campaign: the completed-trial prefix worth
          persisting so an identical query resumes instead of replaying *)
}

let cacheable_outcome = function
  | Supervisor.Done | Supervisor.Truncated -> true
  | Supervisor.Deadline | Supervisor.Cancelled | Supervisor.Worker_failed _ ->
    false

let compute ?(budget = Supervisor.Budget.unlimited) ?(start = 0) q : computed =
  match q with
  | Verify v -> (
    let substrate, byz = substrate v.task v.substrate in
    let inst = instance ~byz v.task in
    let inputs = input_vector ~inputs:v.inputs v.task in
    let reduce = reduction inst v.reduce in
    let machine = inst.machine and specs = inst.specs in
    match v.question with
    | Solve ->
      let verdict =
        check inst ~max_states:v.max_states ~domains:1 ~budget ~substrate
          ~reduce ~inputs ()
      in
      {
        res =
          Verdict
            {
              v_ok = verdict.Solvability.ok;
              v_outcome =
                Fmt.str "%a" Supervisor.pp_outcome verdict.Solvability.outcome;
              v_partial = Supervisor.is_partial verdict.Solvability.outcome;
              v_inputs = v.inputs;
              v_states = verdict.Solvability.states;
              v_failure = verdict.Solvability.failure;
            };
        cacheable = cacheable_outcome verdict.Solvability.outcome;
        fuzz_prefix = None;
      }
    | Valence ->
      let graph =
        Graph.build ~max_states:v.max_states ~domains:1 ~budget ~substrate
          ~reduce ~machine ~specs ~inputs ()
      in
      let a = Lbsa_modelcheck.Valence.analyze graph in
      let s = Lbsa_modelcheck.Valence.summarize a in
      {
        res =
          Valences
            {
              l_nodes = Graph.n_nodes graph;
              l_edges = Graph.n_edges graph;
              l_truncated = graph.Graph.stop = Supervisor.Truncated;
              l_partial =
                graph.Graph.truncated
                && graph.Graph.stop <> Supervisor.Truncated;
              l_bivalent = s.Lbsa_modelcheck.Valence.n_bivalent;
              l_univalent = s.Lbsa_modelcheck.Valence.n_univalent;
              l_undecided = s.Lbsa_modelcheck.Valence.n_undecided;
              l_initial =
                Fmt.str "%a" Lbsa_modelcheck.Valence.pp_classification
                  (Lbsa_modelcheck.Valence.classify a graph.Graph.initial);
            };
        cacheable = cacheable_outcome graph.Graph.stop;
        fuzz_prefix = None;
      }
    | Live ->
      let graph =
        Graph.build ~max_states:v.max_states ~domains:1 ~budget ~substrate
          ~reduce ~machine ~specs ~inputs ()
      in
      let report = Liveness.analyze ~machine ~specs ~substrate graph in
      let truncated = graph.Graph.stop = Supervisor.Truncated in
      let partial =
        graph.Graph.truncated && graph.Graph.stop <> Supervisor.Truncated
      in
      let payload =
        match report.Liveness.verdict with
        | Liveness.Live ->
          {
            lv_live = true;
            lv_nodes = Graph.n_nodes graph;
            lv_sccs = report.Liveness.sccs;
            lv_fair = 0;
            lv_truncated = truncated;
            lv_partial = partial;
            lv_prefix = 0;
            lv_cycle = 0;
            lv_witness = None;
          }
        | Liveness.Livelock w ->
          let w, _steps =
            Lbsa_fuzz.Lasso.shrink ~machine ~specs ~substrate ~graph w
          in
          {
            lv_live = false;
            lv_nodes = Graph.n_nodes graph;
            lv_sccs = report.Liveness.sccs;
            lv_fair = report.Liveness.fair_sccs;
            lv_truncated = truncated;
            lv_partial = partial;
            lv_prefix = List.length w.Liveness.w_prefix;
            lv_cycle = List.length w.Liveness.w_cycle;
            lv_witness = Some (Fmt.str "%a" Liveness.pp_witness w);
          }
      in
      {
        res = Liveness_report payload;
        cacheable = cacheable_outcome graph.Graph.stop;
        fuzz_prefix = None;
      })
  | Fuzz f ->
    let target = Lbsa_fuzz.Targets.spec_target f.target in
    let report =
      Lbsa_fuzz.Engine.fuzz_spec ~domains:1 ~start ~budget ~procs:f.procs
        ~ops_per_proc:f.ops ~trials:f.trials ~seed:f.seed target
    in
    let partial =
      Supervisor.is_partial report.Lbsa_fuzz.Engine.outcome
      && report.Lbsa_fuzz.Engine.failure = None
    in
    {
      res =
        Fuzz_report
          {
            f_target = f.target;
            f_trials = f.trials;
            f_completed = report.Lbsa_fuzz.Engine.completed;
            f_partial = partial;
            f_failure =
              Option.map
                (fun (fl : Lbsa_fuzz.Engine.failure) ->
                  Fmt.str "trial %d: %a%s" fl.Lbsa_fuzz.Engine.trial
                    Lbsa_fuzz.Engine.pp_kind fl.Lbsa_fuzz.Engine.kind
                    (match fl.Lbsa_fuzz.Engine.shrunk with
                    | Some (c, _) ->
                      Fmt.str " (shrunk to %d calls)"
                        (Lbsa_fuzz.Fuzz_case.n_calls c)
                    | None -> ""))
                report.Lbsa_fuzz.Engine.failure;
            f_resumed_from = start;
          };
      (* A failure is definitive and reproducible from (seed, trial):
         cacheable.  A clean full run is cacheable.  A deadline-cut
         clean prefix is not a final answer: persist it as a prefix. *)
      cacheable = not partial;
      fuzz_prefix = (if partial then Some report.Lbsa_fuzz.Engine.completed
                     else None);
    }

(* --- rendering ---------------------------------------------------------- *)

(* The canonical one-line rendering of a result: what `lbsa query`
   prints, and the form the test battery byte-compares between cold,
   warm and cross-restart answers.  [f_resumed_from] is deliberately
   excluded — a resumed campaign must render exactly as an
   uninterrupted one (the checkpoint layer's contract). *)
let render = function
  | Verdict v ->
    let inputs = String.concat "," (List.map string_of_int v.v_inputs) in
    if v.v_ok then Fmt.str "OK (inputs=%s, %d states)" inputs v.v_states
    else if v.v_partial then
      Fmt.str "PARTIAL [%s] (inputs=%s, %d states): %s" v.v_outcome inputs
        v.v_states
        (Option.value v.v_failure ~default:"?")
    else
      Fmt.str "FAIL (inputs=%s, %d states): %s" inputs v.v_states
        (Option.value v.v_failure ~default:"?")
  | Valences l ->
    Fmt.str
      "%d configurations (%d edges)%s; valence: %d bivalent, %d univalent, \
       %d undecided; initial %s"
      l.l_nodes l.l_edges
      (if l.l_truncated then " [TRUNCATED]"
       else if l.l_partial then " [PARTIAL]"
       else "")
      l.l_bivalent l.l_univalent l.l_undecided l.l_initial
  | Fuzz_report f ->
    Fmt.str "fuzz %s: %d/%d trials, %s" f.f_target f.f_completed f.f_trials
      (match f.f_failure with
      | None -> if f.f_partial then "clean so far (partial)" else "clean"
      | Some s -> "FAILED at " ^ s)
  | Liveness_report l ->
    let qualifier =
      if l.lv_truncated then " [TRUNCATED]"
      else if l.lv_partial then " [PARTIAL]"
      else ""
    in
    if l.lv_live then
      Fmt.str "LIVE (%d configurations, %d SCCs, no fair cycle)%s" l.lv_nodes
        l.lv_sccs qualifier
    else
      Fmt.str
        "LIVELOCK (%d configurations, %d fair SCC%s of %d): lasso prefix=%d \
         cycle=%d%s"
        l.lv_nodes l.lv_fair
        (if l.lv_fair = 1 then "" else "s")
        l.lv_sccs l.lv_prefix l.lv_cycle qualifier

(* The CLI-wide exit-code policy applied to a service result.  A
   livelock is a definitive failure (1); a Live verdict on a truncated
   or budget-cut graph is only a partial answer (2) — a fair cycle
   could hide past the cut — while a livelock found in a prefix is
   already definitive. *)
let exit_code = function
  | Verdict v -> if v.v_partial then 2 else if v.v_ok then 0 else 1
  | Valences l -> if l.l_truncated || l.l_partial then 2 else 0
  | Fuzz_report f ->
    if f.f_failure <> None then 1 else if f.f_partial then 2 else 0
  | Liveness_report l ->
    if not l.lv_live then 1 else if l.lv_truncated || l.lv_partial then 2 else 0
