(* The lbsa command-line interface.

     lbsa run-dac -n 4 --scheduler random --seed 7
     lbsa check dac -n 3
     lbsa check consensus -m 2
     lbsa check kset -m 2 -k 2
     lbsa check candidate --name flp-write-read
     lbsa solve dac -n 3 --deadline 60 --checkpoint dac3.ckpt
     lbsa solve dac -n 3 --resume dac3.ckpt
     lbsa valence --protocol cons -m 2
     lbsa explore of:3:2 --fingerprint
     lbsa query cand:flp-spin
     lbsa power -n 2 --max-k 3
     lbsa separation -n 2 --max-k 3
     lbsa lin-check --impl snapshot -n 3 --trials 200
     lbsa fuzz --impl snapshot:3 --trials 1000 --faults 2 --seed 42
     lbsa objects

   A task has two spellings.  check, solve, valence and fingerprint
   take a name and size flags ([named_task]: dac -n 3, kset -m 2 -k 2,
   candidate --name N, valence's --protocol cons); query and explore
   take the colon form ([parse_task]: dac:3, kset:2:2, cand:N, and
   explore's of:<n>:<rounds>).

   Exit codes, uniformly: 0 = clean pass; 1 = definitive failure
   (unsolvable task, counterexample, violation); 2 = partial outcome
   (state quota, deadline, cancellation, worker failure — rerun bigger,
   longer, or --resume from the checkpoint; also a --resume whose
   parameters mismatch the checkpoint's, which stays resumable under its
   original parameters); 3 = usage error, Cmdliner's own parse errors
   included; 125 = an uncaught exception (a bug). *)

open Lbsa
open Cmdliner

let usage_error = 3

(* Every command's man page lists these, in place of Cmdliner's
   defaults (which give parse errors 124). *)
let exits =
  [
    Cmd.Exit.info 0
      ~doc:"on a clean pass (for $(b,check candidate): the expected failure).";
    Cmd.Exit.info 1
      ~doc:"on a definitive failure (for $(b,check candidate): a pass).";
    Cmd.Exit.info 2
      ~doc:"on a partial outcome, or a checkpoint or segment it refuses.";
    Cmd.Exit.info usage_error
      ~doc:
        "on a usage error, command line parse errors included, or when no \
         daemon answers.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on unexpected internal errors (bugs).";
  ]

(* Every usage refusal: one [lbsa <cmd>: <reason>] line on stderr,
   nothing on stdout, exit 3. *)
let refuse ~cmd fmt =
  Fmt.kstr
    (fun reason ->
      Fmt.epr "lbsa %s: %s@." cmd reason;
      usage_error)
    fmt

(* A refused --resume: one "cannot resume: <reason>" line on stderr,
   the file left as it is. *)
let cannot_resume rc fmt =
  Fmt.kstr
    (fun reason ->
      Fmt.epr "cannot resume: %s@." reason;
      rc)
    fmt

(* What the task table and the library constructors refuse (a size out
   of range, an input vector of the wrong arity, an unknown candidate
   or implementation, a substrate of the other family) is raised as
   [Invalid_argument]: a usage error.  Only the resolution [f] runs
   under the handler; the verification [k] does not, so an exception
   raised while verifying stays an internal error (exit 125). *)
let resolve ~cmd f k =
  match f () with
  | x -> k x
  | exception Invalid_argument msg -> refuse ~cmd "%s" msg

(* A size below what the library defines is a usage error, refused
   with one stderr line before anything is printed. *)
let check_at_least ~cmd ~flag ~lo v k =
  if v < lo then refuse ~cmd "%s %d is below %d" flag v lo else k ()

(* --- shared argument parsing ------------------------------------------ *)

let scheduler_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "rr" ] -> Ok `Rr
    | [ "random" ] -> Ok `Random
    | [ "solo"; pid ] -> (
      match int_of_string_opt pid with
      | Some pid -> Ok (`Solo pid)
      | None -> Error (`Msg "solo:<pid> expects an integer"))
    | _ -> Error (`Msg "scheduler is rr | random | solo:<pid>")
  in
  let print ppf = function
    | `Rr -> Fmt.string ppf "rr"
    | `Random -> Fmt.string ppf "random"
    | `Solo pid -> Fmt.pf ppf "solo:%d" pid
  in
  Arg.conv (parse, print)

let mk_scheduler ~n ~seed = function
  | `Rr -> Scheduler.round_robin ~n
  | `Random -> Scheduler.random ~seed
  | `Solo pid -> Scheduler.solo pid

(* Each flag that several commands take is defined once below; where
   the commands differ, the doc (or the default) is a parameter. *)

let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Instance size n.")

let m_arg =
  Arg.(value & opt int 2 & info [ "m" ] ~docv:"M" ~doc:"Consensus level m.")

let k_arg =
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Set agreement level k.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let max_k_arg =
  Arg.(
    value
    & opt int 3
    & info [ "max-k" ] ~docv:"K" ~doc:"Length of the power prefix.")

let max_states_arg =
  Arg.(
    value
    & opt int Lbsa_modelcheck.Graph.default_max_states
    & info [ "max-states" ] ~docv:"S"
        ~doc:"State bound for exhaustive exploration.")

let stats_flag doc = Arg.(value & flag & info [ "stats" ] ~doc)

let stats_arg =
  stats_flag
    "Print exploration statistics (states/sec, frontier profile, dedup \
     rate, domains) after the verdict."

(* --domains D; 0, the default, leaves the count to the callee: [None]. *)
let domains_arg doc =
  Term.(
    const (fun d -> if d <= 0 then None else Some d)
    $ Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc))

let explorer_domains_arg =
  domains_arg
    "Explorer worker domains (0 = auto).  Neither the graph nor the \
     verdict depends on this."

let trials_arg ?(default = 200) doc =
  Arg.(value & opt int default & info [ "trials" ] ~docv:"T" ~doc)

let procs_arg =
  Arg.(
    value & opt int 3
    & info [ "procs" ] ~docv:"P"
        ~doc:
          "Client count for spec-level fuzzing (implementations fix their \
           own).")

let ops_arg =
  Arg.(
    value & opt int 4
    & info [ "ops" ] ~docv:"K" ~doc:"Max operations per process.")

(* "1,0,0"; blanks around an entry are allowed ("1, 0,0"), and the
   empty string is the empty vector (which the task table refuses). *)
let inputs_arg =
  let parse s =
    if s = "" then Ok []
    else
      match
        List.map
          (fun x -> int_of_string (String.trim x))
          (String.split_on_char ',' s)
      with
      | l -> Ok l
      | exception Failure _ ->
        Error (`Msg (Fmt.str "%S is not a comma-separated integer list" s))
  in
  Arg.(
    value
    & opt (some (conv (parse, Fmt.(list ~sep:(any ",") int)))) None
    & info [ "inputs" ] ~docv:"I1,I2,..."
        ~doc:
          "Full input vector, one integer per process.  Defaults to the \
           task's canonical vector.")

let question_arg doc =
  Arg.(
    value
    & opt
        (enum
           [ ("solve", Serve_api.Solve); ("valence", Serve_api.Valence);
             ("live", Serve_api.Live) ])
        Serve_api.Solve
    & info [ "question" ] ~docv:"Q" ~doc)

let substrate_arg doc =
  Arg.(value & opt (some string) None & info [ "substrate" ] ~docv:"SUB" ~doc)

let substrate_doc =
  "Execution substrate: shm (crash-fault shared memory), mp (message \
   passing: adversary-controlled delivery with timeouts), or mp+byz:<f> (mp \
   plus up to <f> Byzantine message injections).  Message-passing tasks \
   (vc, bcast) default to mp, all others to shm, and a task cannot run \
   under the other family's substrate.  The substrate changes the explored \
   graph and the fairness constraints, so it is part of every cache key \
   and checkpoint."

let reduce_arg =
  Arg.(
    value
    & opt
        (enum [ ("none", `None); ("sym", `Sym); ("sym+sleep", `Sym_sleep) ])
        `None
    & info [ "reduce" ] ~docv:"MODE"
        ~doc:
          "State-space reduction: none (the exact graph), sym \
           (process-symmetry quotient), or sym+sleep (quotient plus \
           commit-step pruning).  Verdicts are identical across modes; \
           state counts, node ids and failure details are not.  See \
           DESIGN.md, 'State-space reduction'.")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"P"
        ~doc:
          "Dedup-table shards (a power of two up to 4096), routed by the \
           high bits of the configuration hash so each shard grows \
           independently.  The explored graph — node ids, edges, verdict — \
           is identical for every value.")

(* --shards, --spill-dir and --spill-threshold, as solve, valence and
   explore take them. *)
let spill_args =
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Bound resident memory: once more than --spill-threshold \
             expanded states are resident, the oldest ones move to \
             checksummed segment files under DIR and fault back in on \
             demand.  The explored graph is identical with or without \
             spilling.  Segments are scratch: stale ones are wiped on start \
             and DIR is cleaned when the run completes.")
  in
  let threshold =
    Arg.(
      value
      & opt int Lbsa_modelcheck.Graph.default_spill_threshold
      & info [ "spill-threshold" ] ~docv:"S"
          ~doc:
            "Resident expanded states beyond which the oldest spill to \
             --spill-dir; at least 1, and checked even without --spill-dir.")
  in
  Term.(const (fun shards dir threshold -> (shards, dir, threshold))
        $ shards_arg $ dir $ threshold)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget in seconds.  On expiry the run stops at its \
           next safe point and reports a partial outcome (exit 2); 0 stops \
           at the first safe point (useful to force a checkpoint).")

let chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "Supervisor self-test: deterministically inject artificial worker \
           failures (the first attempt of a shard fails per a pure \
           (seed, key) plan; the supervised retry succeeds).  The key is \
           the worker number of an explorer worker, the index of a swept \
           input vector, or the index of a fuzz trial.  Verdicts must be \
           identical with or without this flag.")

let io_chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "io-chaos-seed" ] ~docv:"SEED"
        ~doc:
          "I/O self-test: deterministically inject syscall faults (EINTR, \
           short reads/writes, ENOSPC, EIO) into the persistence and wire \
           layers per a pure (seed, call-site, call-index) plan.  Transient \
           faults are absorbed by the resilient-I/O retry loops; hard \
           faults surface as the same clean refusals a real device error \
           would.  Answers must never change.  Injection counters are \
           reported on stderr at exit.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "On a partial outcome (deadline, ^C, state quota) write a \
           resumable checkpoint to FILE.  Nothing is written on a \
           definitive verdict.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by --checkpoint.  The run \
           parameters must match the ones recorded in the checkpoint; the \
           combined verdict is identical to an uninterrupted run's.")

(* --- the two task spellings --------------------------------------------- *)

(* A size field of the colon spelling, as a cmdliner parse result. *)
let int_ge arg lo v k =
  match int_of_string_opt v with
  | Some v when v >= lo -> Ok (k v)
  | _ -> Error (`Msg (Fmt.str "%S: expected an integer >= %d" arg lo))

let task_syntax =
  "dac:<n> | cons:<m> | kset:<m>:<k> | cand:<name> | vc:<n> | bcast:<n>"

(* The colon spelling, as query and explore take it: a size below the
   task's least is a parse error here; the task table refuses the rest
   (an unknown candidate, more processes than the explorer names). *)
let parse_task ~syntax s =
  match String.split_on_char ':' s with
  | [ "dac"; n ] -> int_ge s 2 n (fun n -> Serve_api.Dac { n })
  | [ ("cons" | "consensus"); m ] ->
    int_ge s 1 m (fun m -> Serve_api.Consensus { m })
  | [ "kset"; m; k ] ->
    Result.bind (int_ge s 1 m Fun.id) (fun m ->
        int_ge s 1 k (fun k -> Serve_api.Kset { m; k }))
  | ("cand" | "candidate") :: (_ :: _ as rest) ->
    Ok (Serve_api.Candidate { name = String.concat ":" rest })
  | [ "vc"; n ] -> int_ge s 2 n (fun n -> Serve_api.Vc { n })
  | [ "bcast"; n ] -> int_ge s 1 n (fun n -> Serve_api.Bcast { n })
  | _ -> Error (`Msg ("task is " ^ syntax))

(* The positional spelling, as check, solve, valence and fingerprint
   take it: a name and the size flags that name reads.  Any other name
   is a failing candidate's own (valence's --protocol flp-spin). *)
let named_task ?(n = 0) ?(m = 0) ?(k = 0) ?(name = "") = function
  | "dac" -> Serve_api.Dac { n }
  | "consensus" | "cons" -> Serve_api.Consensus { m }
  | "kset" -> Serve_api.Kset { m; k }
  | "vc" -> Serve_api.Vc { n }
  | "bcast" -> Serve_api.Bcast { n }
  | "candidate" -> Serve_api.Candidate { name }
  | cand -> Serve_api.Candidate { name = cand }

(* A task back in the positional spelling, for the tasks solve takes:
   its checkpoint label reads "dac n=3". *)
let spelling = function
  | Serve_api.Dac { n } -> Fmt.str "dac n=%d" n
  | Serve_api.Consensus { m } -> Fmt.str "consensus m=%d" m
  | Serve_api.Kset { m; k } -> Fmt.str "kset m=%d k=%d" m k
  | t -> Serve_api.task_label t

(* The TASK positional of check and solve: one of [names]. *)
let task_name_arg names doc =
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun s -> (s, s)) names))) None
    & info [] ~docv:"TASK" ~doc:(String.concat " | " names ^ "." ^ doc))

(* A task's protocol, input vector and substrate (by default its own
   family's); every refusal is [Invalid_argument], for [resolve]. *)
let instance ?inputs ?substrate task =
  let sub, byz =
    Serve_api.substrate task
      (Option.value substrate ~default:(Serve_api.default_substrate task))
  in
  (Serve_api.instance ~byz task, Serve_api.input_vector ?inputs task, sub)

(* The daemon's question about [task], as check --live, fingerprint and
   query ask it: the task's canonical inputs and its own family's
   substrate unless given.  The inputs refuse a size the task does not
   define, so it is built under [resolve]. *)
let verify ?inputs ?substrate ~question ~max_states ~reduce task =
  Serve_api.Verify
    {
      task;
      question;
      inputs =
        (match inputs with Some l -> l | None -> Serve_api.default_inputs task);
      max_states;
      reduce;
      substrate =
        Option.value substrate ~default:(Serve_api.default_substrate task);
    }

(* --- supervision and build plumbing -------------------------------------- *)

let arm_chaos = function
  | None -> ()
  | Some seed -> Supervisor.Chaos.arm ~seed ()

let arm_io_chaos = function
  | None -> ()
  | Some seed ->
    Lbsa.Rio.arm ~seed ();
    at_exit (fun () ->
        Fmt.epr "io-chaos: %a@." Lbsa.Rio.pp_counters (Lbsa.Rio.counters ()))

(* A NaN deadline never expires ([now >= start +. nan] is false): a
   usage error, refused with one stderr line before anything runs. *)
let check_deadline ~cmd deadline k =
  match deadline with
  | Some d when Float.is_nan d ->
    refuse ~cmd "--deadline nan is not a number of seconds"
  | _ -> k ()

(* Every supervised command: arm chaos if asked, route SIGINT to a
   cancellation token (first ^C = graceful stop + checkpoint, second =
   exit 130), fold the deadline in. *)
let with_budget ~cmd ?deadline ~chaos k =
  check_deadline ~cmd deadline @@ fun () ->
  arm_chaos chaos;
  let token = Supervisor.token () in
  Supervisor.install_sigint token;
  k (Supervisor.Budget.make ?deadline_s:deadline ~token ())

(* A bad --shards or --spill-threshold raises [Invalid_argument]: a
   usage error, refused before anything is built. *)
let check_shards shards =
  if shards < 1 || shards > 4096 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Fmt.str "--shards %d is not a power of two in [1, 4096]" shards)

let mk_spill ~shards dir threshold =
  check_shards shards;
  if threshold < 1 then
    invalid_arg (Fmt.str "--spill-threshold %d is below 1" threshold);
  Option.map
    (fun spill_dir -> { Cgraph.spill_dir; spill_threshold = threshold })
    dir

(* solve, valence and explore: the spill flags and [resolve_task] are
   resolved as usage errors; [k] builds with them and returns its exit
   code and whether its graph is complete.  A complete run's spill
   directory is removed: segments are scratch, and a partial run's are
   left for inspection (a resume re-spills from scratch anyway).

   A spill that cannot be written or read back ends the run like a
   damaged checkpoint: one stderr line naming the site and the error,
   exit 2.  [Segstore.Corrupt] is a segment that failed validation or
   kept failing to read; a [Unix_error] is a hard device error the
   resilient-I/O layer passed on (its third field names the site of an
   injected one).  A machine with more processes than a packed step's
   pid holds is refused by the build before it explores: exit 3. *)
let with_build ~cmd (shards, spill_dir, spill_threshold) resolve_task k =
  resolve ~cmd
    (fun () ->
      let x = resolve_task () in
      (mk_spill ~shards spill_dir spill_threshold, x))
  @@ fun (spill, x) ->
  match k ~shards ~spill x with
  | rc, complete ->
    (match spill with
    | Some s when complete -> Segstore.clean_dir ~dir:s.Cgraph.spill_dir
    | _ -> ());
    rc
  | exception Cgraph.Too_many_processes n ->
    refuse ~cmd "%s" (Serve_api.too_many_processes n)
  | exception Segstore.Corrupt msg ->
    Fmt.epr "lbsa %s: refused at segstore.read: %s@." cmd msg;
    2
  | exception Unix.Unix_error (e, fn, site) ->
    Fmt.epr "lbsa %s: I/O failed at %s: %s@." cmd
      (if site = "" then fn else site)
      (Unix.error_message e);
    2

(* --- run-dac ----------------------------------------------------------- *)

let run_dac n seed sched_kind =
  let machine = Dac_from_pac.machine ~n in
  let specs = Dac_from_pac.specs ~n in
  let prng = Prng.create seed in
  let inputs = Array.init n (fun _ -> Value.int (Prng.int prng 2)) in
  let scheduler = mk_scheduler ~n ~seed sched_kind in
  let r = Executor.run ~machine ~specs ~inputs ~scheduler () in
  Fmt.pr "inputs: %a@." Fmt.(array ~sep:(any " ") Value.pp) inputs;
  Fmt.pr "%a@." Trace.pp r.Executor.trace;
  Array.iteri
    (fun pid st -> Fmt.pr "p%d: %a@." pid Config.pp_status st)
    r.Executor.final.Config.status;
  match Dac.check_safety ~inputs ~trace:r.Executor.trace r.Executor.final with
  | Ok () ->
    Fmt.pr "safety: ok@.";
    0
  | Error viol ->
    Fmt.pr "safety VIOLATION: %a@." Dac.pp_violation viol;
    1

let run_dac_cmd =
  let sched =
    Arg.(
      value
      & opt scheduler_conv `Random
      & info [ "scheduler" ] ~docv:"SCHED" ~doc:"rr | random | solo:<pid>.")
  in
  Cmd.v
    (Cmd.info ~exits "run-dac"
       ~doc:"Run Algorithm 2 (n-DAC from one n-PAC) under a schedule.")
    Term.(const run_dac $ n_arg $ seed_arg $ sched)

(* --- check ------------------------------------------------------------- *)

let report ?(stats = false) ?family verdict =
  Fmt.pr "%a@." Solvability.pp_verdict verdict;
  (if stats then begin
     (match verdict.Solvability.stats with
     | Some s -> Fmt.pr "%a@." Cgraph.pp_stats s
     | None -> Fmt.pr "(no exploration statistics recorded)@.");
     match family with
     | Some fs -> Fmt.pr "%a@." Solvability.pp_family_stats fs
     | None -> ()
   end);
  Supervisor.exit_code ~ok:verdict.Solvability.ok verdict.Solvability.outcome

(* A witness search answers one of three things; only an exhaustive miss
   may be printed as a liveness-only failure — a truncated search saying
   "no witness" was the false negative this message replaces. *)
let report_witness = function
  | Solvability.Witness w -> Fmt.pr "witness:@.%a@." Solvability.pp_witness w
  | Solvability.No_witness ->
    Fmt.pr "(liveness failure: no safety witness configuration)@."
  | Solvability.Search_truncated o ->
    Fmt.pr
      "(witness search stopped early (%a): no safety violation in the \
       explored prefix; raise --max-states for a definitive witness)@."
      Supervisor.pp_outcome o

(* A candidate is expected to fail, so check candidate inverts 0/1: a
   definitive failure exits 0 (with a witness when safety is what
   broke), a pass exits 1.  A partial sweep confirms nothing: it exits 2
   and skips the witness search. *)
let report_candidate inst ~name ~max_states (v : Solvability.verdict) =
  Fmt.pr "candidate %s (%s) — expected to FAIL:@.%a@." name
    (match inst.Serve_api.flavor with
    | Solvability.Dac -> Fmt.str "%d-DAC" inst.procs
    | _ -> Fmt.str "consensus among %d" inst.procs)
    Solvability.pp_verdict v;
  if Supervisor.is_partial v.outcome then 2
  else if v.ok then 1
  else begin
    report_witness (Serve_api.witness inst ~max_states ~inputs:v.inputs ());
    0
  end

let check name n m k cand max_states stats domains rmode shards deadline
    chaos substrate live =
  with_budget ~cmd:"check" ?deadline ~chaos @@ fun budget ->
  let task = named_task ~n ~m ~k ~name:cand name in
  if live || Serve_api.mp_task task then
    (* mp tasks without --live get the solvability question on the mp
       substrate (agreement/validity/wait-freedom); --live asks for a
       fair cycle instead, on any task.  Both are answered through the
       daemon's compute path, so a CLI answer and a cached daemon answer
       cannot diverge. *)
    resolve ~cmd:"check"
      (fun () ->
        check_shards shards;
        let q =
          verify ?substrate ~max_states ~reduce:rmode task
            ~question:(if live then Serve_api.Live else Serve_api.Solve)
        in
        Serve_api.validate q;
        q)
    @@ fun q ->
    let res = (Serve_api.compute ~budget q).Serve_api.res in
    Fmt.pr "%s@." (Serve_api.render res);
    (match res with
    | Serve_api.Liveness_report { Serve_api.lv_witness = Some w; _ } ->
      Fmt.pr "%s@." w
    | _ -> ());
    Serve_api.exit_code res
  else
    resolve ~cmd:"check"
      (fun () ->
        check_shards shards;
        instance ?substrate task)
    @@ fun (inst, _, substrate) ->
    let reduce = Serve_api.reduction inst rmode in
    let check ?domains inputs =
      Serve_api.check inst ~max_states ?domains ~budget ~substrate ~reduce
        ~shards ~inputs ()
    in
    let verdict, family =
      match Serve_api.family inst with
      | [ inputs ] ->
        (* One input vector: [--domains] drives its explorer. *)
        (check ?domains inputs, None)
      | vectors ->
        (* A fanned sweep (D > 1) pins each vector's exploration to one
           domain to avoid oversubscription; with D unset the explorer
           keeps its auto parallelism. *)
        let sweep, inner =
          match domains with None -> (1, None) | Some d -> (d, Some 1)
        in
        let v, fs =
          Solvability.for_all_inputs_timed ~domains:sweep ~budget
            (check ?domains:inner) vectors
        in
        (v, Some fs)
    in
    match task with
    | Serve_api.Candidate { name } ->
      report_candidate inst ~name ~max_states verdict
    | _ -> report ~stats ?family verdict

let check_cmd =
  let cand_name =
    Arg.(
      value
      & opt string "flp-write-read"
      & info [ "name" ] ~docv:"NAME" ~doc:"Candidate name (for candidate).")
  in
  let live =
    Arg.(
      value
      & flag
      & info [ "live" ]
          ~doc:
            "Ask the liveness question instead of solvability: search the \
             configuration graph for a fair cycle — an admissible livelock \
             under the substrate's fairness constraints — and print a shrunk \
             lasso witness (prefix + cycle, as execution traces) when one \
             exists.  Exit 0 = live, 1 = livelock, 2 = partial (truncated \
             graph, so a Live answer is not definitive).")
  in
  Cmd.v
    (Cmd.info ~exits "check"
       ~doc:
         "Exhaustively model-check a task (all schedules, all object \
          nondeterminism); with --live, check liveness (fair-cycle \
          search) instead.")
    Term.(
      const check
      $ task_name_arg
          [ "dac"; "consensus"; "kset"; "candidate"; "vc"; "bcast" ]
          "  vc and bcast are message-passing protocols (substrate mp): vc \
           is a view change with a split-vote livelock, bcast its live \
           control."
      $ n_arg $ m_arg $ k_arg $ cand_name $ max_states_arg $ stats_arg
      $ domains_arg
          "Parallelism for input-family sweeps: fan the input vectors \
           across D domains, exploring each vector's graph on a single \
           domain.  0 (default) keeps the sequential sweep with an \
           auto-parallel explorer; 1 is fully sequential.  The verdict — \
           including which failing vector is reported, and which \
           unchecked vector a deadline-stopped sweep names — never \
           depends on this."
      $ reduce_arg $ shards_arg $ deadline_arg $ chaos_arg
      $ substrate_arg substrate_doc $ live)

(* --- solve -------------------------------------------------------------- *)

(* Single-vector solvability check with the full supervision surface:
   --deadline and ^C stop exploration at a level boundary, --checkpoint
   persists the frozen frontier, --resume thaws and continues it.
   stdout carries only the verdict (checkpoint notes go to stderr), so
   an interrupted-then-resumed run prints byte-for-byte what the
   uninterrupted run prints. *)
let solve name n m k max_states stats rmode domains spill deadline chaos
    io_chaos ckpt_file resume_file inputs =
  arm_io_chaos io_chaos;
  with_budget ~cmd:"solve" ?deadline ~chaos @@ fun budget ->
  let task = named_task ~n ~m ~k name in
  with_build ~cmd:"solve" spill (fun () -> instance ?inputs task)
  @@ fun ~shards ~spill (inst, inputs, substrate) ->
  (* The label pins exactly what defines the graph — task, sizes,
     inputs, reduction mode.  Budget-side knobs (max_states, deadline,
     domains) stay out: a frozen prefix is valid under any of them, and
     resuming a quota-hit run with a larger quota is the point.  A
     mismatch is a graph-shape divergence, not a usage typo, so it
     rejects with the partial-outcome exit code 2: the checkpointed
     work is intact and resumable under the original parameters. *)
  let label =
    Fmt.str "solve %s inputs=%a reduce=%s" (spelling task)
      Fmt.(array ~sep:(any ",") Value.pp)
      inputs
      (Serve_api.reduce_name rmode)
  in
  match Option.map (fun file -> Checkpoint.load ~file) resume_file with
  | exception Checkpoint.Version_mismatch msg ->
    (* Old-version checkpoints exit like a parameter mismatch (2): the
       file is coherent, this build just refuses to read it. *)
    (cannot_resume 2 "%s" msg, false)
  | exception Checkpoint.Corrupt msg ->
    (* The file is a current-version checkpoint with a damaged body (a
       torn write this format is designed to make impossible, bit rot,
       or an injected fault).  Refuse like a partial outcome: the
       exploration is resumable only by re-running it. *)
    (cannot_resume 2 "corrupt checkpoint: %s" msg, false)
  | exception Failure msg -> (cannot_resume 3 "%s" msg, false)
  | Some c when Checkpoint.substrate c <> Substrate.name substrate ->
    (* A checkpoint frozen under another substrate is a different graph:
       refused like any other graph-shape divergence. *)
    ( cannot_resume 2
        "checkpoint was explored under substrate %S, this command explores \
         under %S"
        (Checkpoint.substrate c) (Substrate.name substrate),
      false )
  | Some c when Checkpoint.label c <> label ->
    ( cannot_resume 2
        "checkpoint is for %S, this invocation is %S; rerun with the \
         original parameters (or drop --resume)"
        (Checkpoint.label c) label,
      false )
  | resume ->
    let v =
      Serve_api.check inst ~max_states
        ?domains
        ~budget ~substrate
        ~reduce:(Serve_api.reduction inst rmode)
        ?resume:(Option.map Checkpoint.thaw resume)
        ~shards ?spill ~inputs ()
    in
    (match (ckpt_file, v.Solvability.suspended) with
    | Some file, Some s when Supervisor.is_partial v.Solvability.outcome ->
      Checkpoint.save ~file (Checkpoint.freeze ~label s);
      Fmt.epr "checkpoint written to %s (resume with --resume %s)@." file file
    | _ -> ());
    (report ~stats v, v.Solvability.outcome = Supervisor.Done)

let solve_cmd =
  Cmd.v
    (Cmd.info ~exits "solve"
       ~doc:
         "Model-check a single input vector under a supervision budget: \
          --deadline and ^C stop at a safe point with a partial verdict \
          (exit 2), --checkpoint persists the frozen exploration, --resume \
          continues it to the same verdict an uninterrupted run prints.")
    Term.(
      const solve
      $ task_name_arg [ "dac"; "consensus"; "kset" ] ""
      $ n_arg $ m_arg $ k_arg $ max_states_arg $ stats_arg $ reduce_arg
      $ explorer_domains_arg $ spill_args $ deadline_arg $ chaos_arg
      $ io_chaos_arg $ checkpoint_arg $ resume_arg $ inputs_arg)

(* --- valence ------------------------------------------------------------ *)

(* cons and dac are sized by -m and -n; the others are candidate rows of
   the task table (pac-retry's graph is the same for every -n). *)
let valence_protocols =
  [ "cons"; "flp-write-read"; "flp-spin"; "pac-retry"; "dac" ]

let valence name n m max_states stats rmode spill =
  with_build ~cmd:"valence" spill
    (fun () ->
      if not (List.mem name valence_protocols) then
        invalid_arg
          (Fmt.str "unknown protocol %S; known: %s" name
             (String.concat ", " valence_protocols));
      instance (named_task ~n ~m name))
  @@ fun ~shards ~spill (inst, inputs, substrate) ->
  let machine = inst.machine and specs = inst.specs in
  let graph =
    Cgraph.build ~max_states ~substrate
      ~reduce:(Serve_api.reduction inst rmode)
      ~shards ?spill ~machine ~specs ~inputs ()
  in
  if stats then Fmt.pr "%a@." Cgraph.pp_stats (Cgraph.stats graph);
  let a = Valence.analyze graph in
  let s = Valence.summarize a in
  Fmt.pr "protocol %s, inputs %a: %d configurations (%d edges)%s@." name
    Fmt.(array ~sep:(any " ") Value.pp)
    inputs (Cgraph.n_nodes graph) (Cgraph.n_edges graph)
    (if graph.Cgraph.truncated then " [TRUNCATED]" else "");
  Fmt.pr "valence: %d bivalent, %d univalent, %d undecided@."
    s.Valence.n_bivalent s.Valence.n_univalent s.Valence.n_undecided;
  Fmt.pr "initial: %a@." Valence.pp_classification
    (Valence.classify a graph.Cgraph.initial);
  let criticals = Bivalency.report_critical ~machine ~specs graph a in
  Fmt.pr "critical configurations: %d@." (List.length criticals);
  List.iteri
    (fun i (r : Bivalency.critical_report) ->
      if i < 3 then
        Fmt.pr "  node %d: common poised object = %s@." r.Bivalency.node
          (Option.value r.Bivalency.object_name ~default:"(none)"))
    criticals;
  (match Bivalency.bivalence_maintainable a graph with
  | Ok () when s.Valence.n_bivalent > 0 ->
    Fmt.pr "bivalence maintainable: adversary avoids decisions forever@."
  | Ok () -> Fmt.pr "no bivalent configurations@."
  | Error id -> Fmt.pr "bivalent dead-end at node %d@." id);
  (0, not graph.Cgraph.truncated)

let valence_cmd =
  let proto_name =
    Arg.(
      value
      & opt string "cons"
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:(String.concat " | " valence_protocols ^ "."))
  in
  Cmd.v
    (Cmd.info ~exits "valence"
       ~doc:"Compute the valence structure of a protocol's configuration graph.")
    Term.(
      const valence $ proto_name $ n_arg $ m_arg $ max_states_arg $ stats_arg
      $ reduce_arg $ spill_args)

(* --- explore ------------------------------------------------------------ *)

(* Machine-readable single-graph exploration, built for the out-of-core
   benchmarks: each case runs in its own process so the reported peak
   RSS (VmHWM from /proc/self/status) is honestly per-run — the parent
   bench never inherits a child's high-water mark — and the key=value
   stdout is trivially parseable.  [--fingerprint] appends the
   structural graph fingerprint used by the spilled-vs-resident
   equivalence checks; it reads every configuration back, streaming
   each spilled segment once, one configuration at a time, so it costs
   a spilled run time but next to no memory. *)

(* The colon spelling plus of:<n>:<rounds>, obstruction-free consensus
   with <rounds> commit-adopt rounds. *)
let explore_syntax = task_syntax ^ " | of:<n>:<rounds>"

let explore_task =
  let parse s =
    match String.split_on_char ':' s with
    | [ "of"; n; r ] ->
      Result.bind (int_ge s 2 n Fun.id) (fun n ->
          int_ge s 1 r (fun r -> `Of (n, r)))
    | _ -> Result.map (fun t -> `Task t) (parse_task ~syntax:explore_syntax s)
  in
  let print ppf = function
    | `Task t -> Fmt.string ppf (Serve_api.task_label t)
    | `Of (n, r) -> Fmt.pf ppf "of:%d:%d" n r
  in
  Arg.conv (parse, print)

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              try
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d" Fun.id
              with Scanf.Scan_failure _ | Failure _ -> 0
            else go ()
        in
        go ())

(* The structural graph fold `explore --fingerprint` and `fingerprint`
   print: per-node [Config.hash] in id order, then each node's (pid,
   target) out-steps, then [extra].  Intern ids never enter, so the
   value is identical across processes, shard counts, domain counts and
   spill settings. *)
let graph_fingerprint ?(extra = []) graph =
  let h = ref 0x811c9dc5 in
  let comb k = h := Value.hash_combine !h k land max_int in
  Cgraph.iter_nodes
    (fun id config ->
      comb (Config.hash config);
      Cgraph.iter_out_steps graph id (fun pid target ->
          comb pid;
          comb target))
    graph;
  List.iter comb extra;
  !h land 0xffffffff

let explore task max_states rmode domains spill deadline chaos want_fp
    want_stats =
  with_budget ~cmd:"explore" ?deadline ~chaos @@ fun budget ->
  with_build ~cmd:"explore" spill
    (fun () ->
      match task with
      | `Task t -> instance t
      | `Of (n, r) ->
        (* Obstruction-free consensus stays off the task table: no
           checker is certified for it (explore only builds, so
           [flavor] is never read), nor a symmetry group, so [sym]
           degrades to the identity quotient, like free-form candidates.
           [`Spin] makes spun-out states absorbing livelock leaves, so
           the bounded graph is finite and the exploration can actually
           complete. *)
        ( {
            Serve_api.machine = Obstruction_free.machine_spin ~n ~max_rounds:r;
            specs = Obstruction_free.specs ~n ~max_rounds:r;
            procs = n;
            flavor = Solvability.Consensus;
            canon = Canon.identity;
            frozen = None;
          },
          Array.init n (fun pid -> Value.int (pid mod 2)),
          Substrate.shm ))
  @@ fun ~shards ~spill (inst, inputs, substrate) ->
  let graph =
    Cgraph.build ~max_states
      ?domains
      ~budget ~substrate
      ~reduce:(Serve_api.reduction inst rmode)
      ~shards ?spill ~machine:inst.machine ~specs:inst.specs ~inputs ()
  in
  let s = Cgraph.stats graph in
  let outcome =
    match graph.Cgraph.stop with
    | Supervisor.Done -> "done"
    | Supervisor.Truncated -> "truncated"
    | Supervisor.Deadline -> "deadline"
    | Supervisor.Cancelled -> "cancelled"
    | Supervisor.Worker_failed _ -> "worker_failed"
  in
  let fp = if want_fp then Some (graph_fingerprint graph) else None in
  if want_stats then Fmt.epr "%a@." Cgraph.pp_stats s;
  Fmt.pr "task=%a@." (Arg.conv_printer explore_task) task;
  Fmt.pr "reduce=%s@." (Serve_api.reduce_name rmode);
  Fmt.pr "states=%d@." s.Cgraph.states;
  Fmt.pr "edges=%d@." s.Cgraph.edges;
  Fmt.pr "levels=%d@." s.Cgraph.levels;
  Fmt.pr "truncated=%b@." graph.Cgraph.truncated;
  Fmt.pr "outcome=%s@." outcome;
  Fmt.pr "wall_s=%.6f@." s.Cgraph.wall_s;
  Fmt.pr "states_per_sec=%.1f@." s.Cgraph.states_per_sec;
  Fmt.pr "domains=%d@." s.Cgraph.domains;
  Fmt.pr "shards=%d@." s.Cgraph.shards;
  Fmt.pr "dedup_rate=%.4f@." s.Cgraph.dedup_rate;
  Fmt.pr "spill_segments=%d@." s.Cgraph.spill.Cgraph.sp_segments;
  Fmt.pr "spill_bytes=%d@." s.Cgraph.spill.Cgraph.sp_bytes;
  Fmt.pr "seg_faults=%d@." s.Cgraph.spill.Cgraph.sp_seg_faults;
  Fmt.pr "frozen_keys=%d@." s.Cgraph.spill.Cgraph.sp_frozen;
  Fmt.pr "key_faults=%d@." s.Cgraph.spill.Cgraph.sp_key_faults;
  Fmt.pr "peak_rss_kb=%d@." (peak_rss_kb ());
  (match fp with
  | Some fp -> Fmt.pr "fingerprint=%08x@." fp
  | None -> ());
  ( Supervisor.exit_code ~ok:true graph.Cgraph.stop,
    graph.Cgraph.stop = Supervisor.Done )

let explore_cmd =
  let task =
    Arg.(
      required
      & pos 0 (some explore_task) None
      & info [] ~docv:"TASK"
          ~doc:
            (explore_syntax
           ^ ".  vc and bcast explore under mp, the others under shm."))
  in
  let fp =
    Arg.(
      value
      & flag
      & info [ "fingerprint" ]
          ~doc:
            "Append the structural graph fingerprint.  It reads every \
             configuration back (spilled ones streamed from disk, each \
             segment once), so on a spilled graph it also checks that \
             every segment still decodes.")
  in
  Cmd.v
    (Cmd.info ~exits "explore"
       ~doc:
         "Build one configuration graph and print machine-readable \
          key=value telemetry (states, throughput, shard/spill \
          counters, per-process peak RSS).  The benchmark harness runs \
          each case through this command in a fresh process so peak-RSS \
          numbers are honest.  Exit 0 on a complete graph, 2 on a \
          partial one.")
    Term.(
      const explore $ task $ max_states_arg $ reduce_arg $ explorer_domains_arg
      $ spill_args $ deadline_arg $ chaos_arg $ fp $ stats_arg)

(* --- power / separation ------------------------------------------------- *)

let power n max_k max_states =
  check_at_least ~cmd:"power" ~flag:"-n" ~lo:2 n @@ fun () ->
  Fmt.pr "closed forms / lower bounds:@.";
  Fmt.pr "  %d-consensus: (%a)@." n
    Fmt.(list ~sep:(any ", ") Power.pp_bound)
    (Power.consensus_power ~m:n ~max_k);
  Fmt.pr "  2-SA:        (%a)@."
    Fmt.(list ~sep:(any ", ") Power.pp_bound)
    (Power.sa2_power ~max_k);
  Fmt.pr "  O_%d (>=):    (%a)@." n
    Fmt.(list ~sep:(any ", ") Power.pp_bound)
    (Power.o_n_power_lower ~n ~max_k);
  Fmt.pr "probes (exhaustive lower-bound checks):@.";
  let p = Power.probe_o_n_consensus ~n ~max_states () in
  Fmt.pr "  O_%d consensus: %a@." n Power.pp_probe p;
  let power = O_prime.default_power ~n ~max_k in
  List.iter
    (fun k ->
      let p = Power.probe_oprime_family ~power ~k ~max_states () in
      Fmt.pr "  O'_%d level %d: %a@." n k Power.pp_probe p)
    (Listx.range 1 (min max_k 2));
  0

let power_cmd =
  Cmd.v
    (Cmd.info ~exits "power" ~doc:"Set agreement power: closed forms and probes.")
    Term.(const power $ n_arg $ max_k_arg $ max_states_arg)

(* The artifacts start from O'_n's k = 1 level, so the power prefix
   holds at least one level. *)
let separation n max_k max_states =
  check_at_least ~cmd:"separation" ~flag:"-n" ~lo:2 n @@ fun () ->
  check_at_least ~cmd:"separation" ~flag:"--max-k" ~lo:1 max_k @@ fun () ->
  let report = Separation.analyze ~max_k ~max_states ~n () in
  Fmt.pr "%a@." Separation.pp_report report;
  if Separation.all_ok report then 0 else 1

let separation_cmd =
  Cmd.v
    (Cmd.info ~exits "separation"
       ~doc:"Assemble the Corollary 6.6 artifacts for a given n.")
    Term.(const separation $ n_arg $ max_k_arg $ max_states_arg)

(* --- lin-check ----------------------------------------------------------- *)

let impls ~n ~m ~max_k =
  [
    ("snapshot", fun () -> Snapshot_impl.implementation ~n);
    ("naive-snapshot", fun () -> Snapshot_impl.naive ~n);
    ("pacnm", fun () -> Pac_nm_impl.implementation ~n ~m);
    ( "oprime",
      fun () ->
        Oprime_impl.implementation ~power:(O_prime.default_power ~n ~max_k) );
  ]

let default_workloads name ~n ~max_k =
  match name with
  | "snapshot" | "naive-snapshot" ->
    Array.init n (fun pid ->
        [ Classic.Snapshot.update pid (Value.int (pid + 1));
          Classic.Snapshot.scan ])
  | "pacnm" ->
    Array.init n (fun pid ->
        [ Pac_nm.propose_p (Value.int pid) (pid + 1); Pac_nm.decide_p (pid + 1);
          Pac_nm.propose_c (Value.int pid) ])
  | "oprime" ->
    Array.init n (fun pid ->
        List.map
          (fun k -> O_prime.propose (Value.int (pid + (10 * k))) k)
          (Listx.range 1 max_k))
  | _ -> [||]

(* An unknown name, and a size its constructor refuses, are usage
   errors. *)
let lin_check name n m max_k trials seed deadline =
  resolve ~cmd:"lin-check"
    (fun () ->
      match List.assoc_opt name (impls ~n ~m ~max_k) with
      | Some mk -> mk ()
      | None ->
        invalid_arg
          (Fmt.str "unknown implementation %S; known: %s" name
             (String.concat ", " (List.map fst (impls ~n ~m ~max_k)))))
  @@ fun impl ->
  with_budget ~cmd:"lin-check" ?deadline ~chaos:None @@ fun budget ->
  let workloads = default_workloads name ~n ~max_k in
  Fmt.pr "implementation %s over %d clients, %d random trials...@."
    impl.Implementation.name (Array.length workloads) trials;
  match Harness.campaign_supervised ~budget ~seed ~trials ~impl ~workloads () with
  | Harness.All_pass t ->
    Fmt.pr "all %d trials linearizable@." t;
    0
  | Harness.Failed (i, run) ->
    Fmt.pr "trial %d NOT linearizable; history:@.%a@." i Chistory.pp
      run.Harness.history;
    1
  | Harness.Stopped { completed; outcome } ->
    Fmt.pr "stopped (%a) after %d/%d trials, all linearizable@."
      Supervisor.pp_outcome outcome completed trials;
    2

let lin_check_cmd =
  let impl_name =
    Arg.(
      value
      & opt string "snapshot"
      & info [ "impl" ] ~docv:"NAME"
          ~doc:"snapshot | naive-snapshot | pacnm | oprime.")
  in
  Cmd.v
    (Cmd.info ~exits "lin-check"
       ~doc:
         "Drive an implementation with concurrent clients and check \
          linearizability.")
    Term.(
      const lin_check $ impl_name $ n_arg $ m_arg $ max_k_arg
      $ trials_arg "Random trials." $ seed_arg $ deadline_arg)

(* --- fuzz ----------------------------------------------------------------- *)

(* A target either flag names but the registry cannot build is a usage
   error: the whole run is refused, not just that campaign. *)
let fuzz impl_names spec_names trials procs ops faults seed no_shrink domains
    deadline chaos shrink_budget ckpt_file resume_file =
  resolve ~cmd:"fuzz"
    (fun () ->
      let targets what parse =
        List.map (fun name ->
            try parse name
            with Invalid_argument msg ->
              invalid_arg (Fmt.str "unknown %s target %S: %s" what name msg))
      in
      let impls = targets "impl" Fuzz_targets.impl_target impl_names in
      (impls, targets "spec" Fuzz_targets.spec_target spec_names))
  @@ fun (impls, specs) ->
  with_budget ~cmd:"fuzz" ?deadline ~chaos @@ fun budget ->
  let shrink = not no_shrink in
  match
    Option.map (fun file -> Fuzz_engine.load_checkpoint ~file) resume_file
  with
  | exception Fuzz_engine.Corrupt msg ->
    cannot_resume 2 "corrupt checkpoint: %s" msg
  | exception Failure msg -> cannot_resume 3 "%s" msg
  | Some c when c.Fuzz_engine.ckpt_seed <> seed ->
    cannot_resume 3 "checkpoint records --seed %d, this run uses %d"
      c.Fuzz_engine.ckpt_seed seed
  | resume ->
    let start_of ~cap name =
      match resume with
      | None -> 0
      | Some c -> min cap (Fuzz_engine.resume_start c ~name)
    in
    (* Default campaign: every registry spec at full budget, every honest
       construction at a fifth of it (harness trials are ~5x dearer). *)
    let specs, impls, impl_trials =
      if impls = [] && specs = [] then
        (Fuzz_targets.all_specs (), Fuzz_targets.all_impls (),
         max 1 (trials / 5))
      else (specs, impls, trials)
    in
    let reports =
      List.map
        (fun t ->
          Fuzz_engine.fuzz_spec ?domains ~shrink ~shrink_budget ~budget
            ~start:(start_of ~cap:trials ("spec " ^ t.Fuzz_targets.desc))
            ~procs ~ops_per_proc:ops ~trials ~seed t)
        specs
      @ List.map
          (fun t ->
            Fuzz_engine.fuzz_impl ?domains ~shrink ~shrink_budget ~budget
              ~start:
                (start_of ~cap:impl_trials ("impl " ^ t.Fuzz_targets.idesc))
              ~faults ~ops_per_proc:ops ~trials:impl_trials ~seed t)
          impls
    in
    List.iter (fun r -> Fmt.pr "%a@." Fuzz_engine.pp_report r) reports;
    let failed =
      Listx.count (fun r -> r.Fuzz_engine.failure <> None) reports
    in
    let partial =
      List.exists (fun r -> Supervisor.is_partial r.Fuzz_engine.outcome) reports
    in
    (match ckpt_file with
    | Some file when partial ->
      Fuzz_engine.save_checkpoint ~file
        (Fuzz_engine.checkpoint_of_reports ~seed reports);
      Fmt.epr "checkpoint written to %s (resume with --resume %s)@." file file
    | _ -> ());
    if failed > 0 then begin
      Fmt.pr "fuzz: %d/%d campaigns FAILED@." failed (List.length reports);
      1
    end
    else if partial then begin
      Fmt.pr "fuzz: %d campaigns stopped early, no failures@."
        (List.length reports);
      2
    end
    else begin
      Fmt.pr "fuzz: %d campaigns clean@." (List.length reports);
      0
    end

let fuzz_cmd =
  let impl_names =
    Arg.(
      value
      & opt_all string []
      & info [ "impl" ] ~docv:"NAME"
          ~doc:
            "Implementation target (repeatable): snapshot:<n>, \
             naive-snapshot:<n>, pacnm:<n>:<m>, oprime:<n>:<K>, \
             universal:<n>, pac-facet:<n>:<m>, cons-facet:<n>:<m>, \
             mutant-pac:<n>, identity:<object>.  Without --impl/--spec, \
             fuzzes every registry spec and every honest construction.")
  in
  let spec_names =
    Arg.(
      value
      & opt_all string []
      & info [ "spec" ] ~docv:"NAME"
          ~doc:"Spec target in registry syntax (repeatable), e.g. pac:2.")
  in
  let faults =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"F"
          ~doc:"Max crash victims per implementation trial.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip counterexample shrinking.")
  in
  let shrink_budget =
    Arg.(
      value
      & opt int Fuzz_engine.default_shrink_budget
      & info [ "shrink-budget" ] ~docv:"B"
          ~doc:
            "Candidate evaluations allowed per shrink descent (0 keeps the \
             unshrunk counterexample).  Shrinking also stops when \
             --deadline fires.")
  in
  Cmd.v
    (Cmd.info ~exits "fuzz"
       ~doc:
         "Conformance-fuzz objects and implementations: random workloads, \
          schedules, and crash faults under the linearizability oracle, with \
          seed-reproducible shrunk counterexamples.")
    Term.(
      const fuzz $ impl_names $ spec_names
      $ trials_arg ~default:1000 "Trials per campaign."
      $ procs_arg $ ops_arg $ faults $ seed_arg $ no_shrink
      $ domains_arg "Worker domains (0 = auto).  Results never depend on this."
      $ deadline_arg $ chaos_arg $ shrink_budget $ checkpoint_arg $ resume_arg)

(* --- universal / bg / qadri ------------------------------------------------ *)

let universal n trials seed =
  let target = Classic.Queue_obj.spec () in
  resolve ~cmd:"universal" (fun () -> Universal.implementation ~n ~target ())
  @@ fun impl ->
  let workloads =
    Array.init n (fun pid ->
        [ Classic.Queue_obj.enqueue (Value.int (100 + pid));
          Classic.Queue_obj.dequeue ])
  in
  Fmt.pr
    "universal construction: FIFO queue among %d clients from %d-consensus + \
     registers; %d random schedules...@."
    n n trials;
  match Harness.campaign ~seed ~trials ~impl ~workloads () with
  | Ok t ->
    Fmt.pr "all %d runs linearizable@." t;
    0
  | Error (i, run) ->
    Fmt.pr "trial %d NOT linearizable:@.%a@." i Chistory.pp run.Harness.history;
    1

let universal_cmd =
  Cmd.v
    (Cmd.info ~exits "universal"
       ~doc:"Run Herlihy's universal construction (queue target) and check \
             linearizability.")
    Term.(const universal $ n_arg $ trials_arg "Random trials." $ seed_arg)

let bg simulators trials seed =
  check_at_least ~cmd:"bg" ~flag:"--simulators" ~lo:1 simulators @@ fun () ->
  let p = Sim_protocol.min_seen ~n_sim:3 ~steps:1 in
  let sim_inputs = [| Value.int 10; Value.int 11; Value.int 12 |] in
  let outcomes = Sim_protocol.direct_outcomes p ~inputs:sim_inputs in
  Fmt.pr
    "BG simulation: %d simulators run a 3-process protocol; %d direct \
     outcomes possible; %d random schedules...@."
    simulators (List.length outcomes) trials;
  let prng = Prng.create seed in
  let bad = ref 0 in
  for _ = 1 to trials do
    let r =
      Bg_simulation.run ~p ~sim_inputs ~simulators
        ~scheduler:(Scheduler.random ~seed:(Prng.int prng 1_000_000_000)) ()
    in
    match r.Bg_simulation.simulated_decisions with
    | Some ds when List.exists (Value.equal (Value.list ds)) outcomes -> ()
    | _ -> incr bad
  done;
  Fmt.pr "%d/%d runs produced genuine simulated outcomes@." (trials - !bad)
    trials;
  if !bad = 0 then 0 else 1

let bg_cmd =
  let simulators =
    Arg.(value & opt int 2 & info [ "simulators" ] ~docv:"S" ~doc:"Simulator count.")
  in
  Cmd.v
    (Cmd.info ~exits "bg" ~doc:"Run the Borowsky-Gafni simulation and validate outcomes.")
    Term.(const bg $ simulators $ trials_arg "Random trials." $ seed_arg)

let qadri m n max_states =
  check_at_least ~cmd:"qadri" ~flag:"-m" ~lo:2 m @@ fun () ->
  check_at_least ~cmd:"qadri" ~flag:"-n" ~lo:(m + 1) n @@ fun () ->
  let report = Qadri.analyze ~max_states ~m ~n () in
  Fmt.pr "%a@." Qadri.pp_report report;
  if Qadri.all_ok report then 0 else 1

let qadri_cmd =
  Cmd.v
    (Cmd.info ~exits "qadri"
       ~doc:"Assemble the Theorem 7.1 artifacts for given m and n (needs \
             m >= 2, n >= m+1).")
    Term.(const qadri $ m_arg $ n_arg $ max_states_arg)

(* --- objects -------------------------------------------------------------- *)

let objects () =
  Fmt.pr "object registry (for --protocol style arguments):@.";
  List.iter (fun (syntax, doc) -> Fmt.pr "  %-16s %s@." syntax doc) Registry.known;
  0

let objects_cmd =
  Cmd.v
    (Cmd.info ~exits "objects" ~doc:"List the object zoo.")
    Term.(const objects $ const ())

(* --- fingerprint ----------------------------------------------------------- *)

(* Structural fingerprint of a fixed configuration graph, for the
   cross-process determinism regression: two runs of this command must
   print identical lines no matter how many unrelated values were
   interned first.  Intern ids are allocation-order-dependent, so if one
   ever leaked into a hash, a node id or an ordering, shifting the id
   space with [--intern-warmup] would change the output.  The fold below
   deliberately touches only structural data: per-node [Config.hash]
   (purely structural by construction) in node-id order, then each
   node's out-edge (pid, target) sequence.

   The fingerprint must also pin every parameter the graph is a function
   of.  It originally folded structure only and ignored the reduction
   mode, the input vector and the state quota — so `--reduce sym` on
   inputs 0,1,1 could collide with the exact graph on the default
   inputs.  Those parameters now join the fold, and the printed [key=]
   field is the serve cache's canonical digest for the equivalent
   solvability query ({!Serve_api.key}), tying the two fingerprint
   notions together. *)
let fingerprint warmup n max_states mode question substrate inputs =
  for i = 1 to warmup do
    ignore (Value.list [ Value.int (1_000_000 + i); Value.sym "warmup" ])
  done;
  let task = named_task ~n "dac" in
  let substrate =
    Option.value substrate ~default:(Serve_api.default_substrate task)
  in
  (* The query comes first and the graph is built from the same task,
     inputs, quota and mode, so [key=] addresses the explored graph. *)
  resolve ~cmd:"fingerprint"
    (fun () ->
      ( verify ?inputs ~substrate ~question ~max_states ~reduce:mode task,
        Serve_api.instance task,
        Serve_api.input_vector ?inputs task ))
  @@ fun (q, inst, inputs) ->
  let graph =
    Cgraph.build ~max_states ~reduce:(Serve_api.reduction inst mode)
      ~machine:inst.machine ~specs:inst.specs ~inputs ()
  in
  let chars s = List.init (String.length s) (fun i -> Char.code s.[i]) in
  (* The question and substrate don't change the dac graph (the command
     always explores dac under shm), but they do change which serve
     query the printed key addresses — and the key separation is the
     point: a liveness answer and a safety answer, or the same task
     under different fairness, must never share a cache slot. *)
  let fp =
    graph_fingerprint graph
      ~extra:
        (chars (Serve_api.reduce_name mode)
        @ List.map Value.hash (Array.to_list inputs)
        @ [ max_states ]
        @ chars (Serve_api.question_label question)
        @ chars substrate)
  in
  Fmt.pr
    "states=%d edges=%d truncated=%b reduce=%s question=%s substrate=%s \
     fingerprint=%08x key=%s@."
    (Cgraph.n_nodes graph) (Cgraph.n_edges graph) graph.Cgraph.truncated
    (Serve_api.reduce_name mode)
    (Serve_api.question_label question)
    substrate fp (Serve_api.key q);
  0

let fingerprint_cmd =
  let warmup =
    Arg.(
      value
      & opt int 0
      & info [ "intern-warmup" ] ~docv:"N"
          ~doc:
            "Construct N throwaway values before building the graph, \
             shifting every subsequent intern id.  The printed fingerprint \
             must not change.")
  in
  Cmd.v
    (Cmd.info ~exits "fingerprint"
       ~doc:
         "Print a structural fingerprint of the dac configuration graph \
          (cross-process determinism probe: output must be independent of \
          value-interning order, and must pin the reduction mode, input \
          vector, state quota, question and substrate).")
    Term.(
      const fingerprint $ warmup $ n_arg $ max_states_arg $ reduce_arg
      $ question_arg
          "Which question the printed key addresses (solve | valence | \
           live); distinct questions must print distinct keys."
      $ substrate_arg
          "Which substrate the printed key addresses (default shm); \
           distinct substrates must print distinct keys."
      $ inputs_arg)

(* --- serve / query / shutdown ---------------------------------------------- *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "lbsa-serve.sock"

let default_store =
  Filename.concat (Filename.get_temp_dir_name ()) "lbsa-store"

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let store_arg =
  Arg.(
    value
    & opt string default_store
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent result-store directory (content-addressed, \
           checksummed; survives daemon restarts).")

let wait_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "wait" ] ~docv:"SEC"
        ~doc:
          "Keep retrying the connection for up to SEC seconds while the \
           daemon's socket is absent (start-then-query races in scripts).")

let serve socket store workers default_deadline store_probe io_chaos quiet =
  arm_io_chaos io_chaos;
  let cfg =
    {
      Serve_daemon.socket;
      store_dir = store;
      workers;
      default_deadline_s = default_deadline;
      store_probe_s = store_probe;
      log = not quiet;
    }
  in
  match Serve_daemon.run cfg with
  | stats ->
    Fmt.pr "%a@." Serve_wire.pp_stats stats;
    0
  | exception Failure msg ->
    Fmt.epr "lbsa serve: %s@." msg;
    1

let serve_cmd =
  let workers =
    Arg.(
      value
      & opt int 2
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains in the pool.")
  in
  let default_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"SEC"
          ~doc:
            "Per-query wall-clock cap applied when the client sets none; \
             a cut query reports a partial result and (for fuzz) persists \
             its completed prefix.")
  in
  let store_probe =
    Arg.(
      value
      & opt float 5.
      & info [ "store-probe" ] ~docv:"SEC"
          ~doc:
            "While the store is degraded (ENOSPC, EROFS, persistent I/O \
             errors) the daemon keeps answering from computation alone and \
             re-probes the store every SEC seconds, re-enabling persistence \
             once a probe write commits.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No chatter on stderr.")
  in
  Cmd.v
    (Cmd.info ~exits "serve"
       ~doc:
         "Run the persistent verification daemon: a worker pool answering \
          solvability/valence/fuzz queries over a unix socket, memoizing \
          every key-determined answer in a content-addressed store.  A \
          failing store degrades the daemon to compute-only answers (with \
          periodic re-probing), never to failed queries.  Blocks until \
          `lbsa shutdown`; prints the final counters.")
    Term.(const serve $ socket_arg $ store_arg $ workers $ default_deadline
          $ store_probe $ io_chaos_arg $ quiet)

let query task fuzz_target question substrate inputs max_states mode trials
    procs ops seed socket wait_s deadline want_stats =
  check_deadline ~cmd:"query" deadline @@ fun () ->
  let fail msg = refuse ~cmd:"query" "%s" msg in
  let with_client f =
    match Serve_client.connect ~wait_s ~socket () with
    | Error msg -> fail msg
    | Ok c -> Fun.protect ~finally:(fun () -> Serve_client.close c)
                (fun () -> f c)
  in
  let ask q =
    with_client (fun c ->
        match Serve_client.query ?deadline_s:deadline c q with
        | Error msg -> fail msg
        | Ok (res, cached, wall_us) ->
          Fmt.epr "lbsa query: %s in %.1f ms@."
            (if cached then "cache hit" else "computed")
            (wall_us /. 1000.);
          Fmt.pr "%s@." (Serve_api.render res);
          Serve_api.exit_code res)
  in
  if want_stats then
    with_client (fun c ->
        match Serve_client.stats c with
        | Error msg -> fail msg
        | Ok s ->
          Fmt.pr "%a@." Serve_wire.pp_stats s;
          0)
  else
    match (task, fuzz_target) with
    | Some _, Some _ -> fail "give either a TASK or --fuzz, not both"
    | None, None -> fail "nothing to ask: give a TASK, --fuzz, or --stats"
    | Some task, None ->
      resolve ~cmd:"query"
        (fun () ->
          verify ?inputs ?substrate ~question ~max_states ~reduce:mode task)
        ask
    | None, Some target ->
      ask (Serve_api.Fuzz { target; trials; procs; ops; seed })

let query_cmd =
  let task =
    Arg.(
      value
      & pos 0
          (some
             (conv
                ( parse_task ~syntax:task_syntax,
                  fun ppf t -> Fmt.string ppf (Serve_api.task_label t) )))
          None
      & info [] ~docv:"TASK" ~doc:(task_syntax ^ "."))
  in
  let fuzz_target =
    Arg.(
      value
      & opt (some string) None
      & info [ "fuzz" ] ~docv:"IMPL"
          ~doc:
            "Instead of a verification question, run (or resume) a \
             conformance-fuzz campaign against this registry \
             implementation.")
  in
  Cmd.v
    (Cmd.info ~exits "query"
       ~doc:
         "Ask the verification daemon.  Cold answers are computed by the \
          worker pool and memoized; identical queries — across clients and \
          daemon restarts — come back from the cache, byte-identical.  \
          Exit codes follow the CLI-wide 0/1/2 policy for the answer \
          itself; 3 means the daemon could not be reached or the query was \
          malformed.")
    Term.(
      const query $ task $ fuzz_target
      $ question_arg
          "solve (solvability verdict), valence (graph summary), or live \
           (fair-cycle liveness verdict with a shrunk lasso witness)."
      $ substrate_arg substrate_doc $ inputs_arg $ max_states_arg $ reduce_arg
      $ trials_arg "Fuzz trials." $ procs_arg $ ops_arg $ seed_arg
      $ socket_arg $ wait_arg $ deadline_arg
      $ stats_flag "Print the daemon's counters instead of asking.")

(* No daemon to reach is a usage error, as for query; a drain that
   fails once connected is a failure. *)
let shutdown socket wait_s =
  match Serve_client.connect ~wait_s ~socket () with
  | Error msg -> refuse ~cmd:"shutdown" "%s" msg
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Serve_client.close c)
      (fun () ->
        match Serve_client.shutdown c with
        | Ok (Some stats) ->
          Fmt.pr "%a@." Serve_wire.pp_stats stats;
          0
        | Ok None -> 0
        | Error msg ->
          Fmt.epr "lbsa shutdown: %s@." msg;
          1)

let shutdown_cmd =
  Cmd.v
    (Cmd.info ~exits "shutdown"
       ~doc:
         "Drain and stop the verification daemon: it finishes and answers \
          every queued and in-flight query, then exits; this command \
          blocks until the drain completes and prints the final counters.")
    Term.(const shutdown $ socket_arg $ wait_arg)

(* --- main ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "lbsa" ~exits ~version:"1.0.0"
      ~doc:
        "Executable reproduction of 'Life Beyond Set Agreement' (PODC 2017)."
  in
  let cmd =
    Cmd.group info
      [
        run_dac_cmd; check_cmd; solve_cmd; valence_cmd; explore_cmd;
        power_cmd; separation_cmd; lin_check_cmd; fuzz_cmd; universal_cmd;
        bg_cmd; qadri_cmd; objects_cmd; fingerprint_cmd; serve_cmd;
        query_cmd; shutdown_cmd;
      ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok rc) -> rc
    | Ok (`Help | `Version) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> usage_error
    | Error `Exn -> Cmd.Exit.internal_error)
