open Lbsa_spec
open Lbsa_runtime
open Lbsa_implement
open Lbsa_linearizability

(* The fuzzing engine.  Implementation campaigns run random (workload,
   schedule, fault, nondeterminism) cases through Implement.Harness and
   feed the recorded concurrent history — pending calls included — to
   the Wing-Gong oracle; spec campaigns round-trip the positive and
   negative history generators through the checker.  Trials fan out
   across domains through [Supervisor.first_hit] with one pure PRNG
   substream per trial, so the first failing trial index (and hence the
   report) is identical for every domain count. *)

module Prng = Lbsa_util.Prng

type kind =
  | Violation  (* harness history rejected by the linearizability oracle *)
  | Broken of string  (* spec-level generator round-trip failed *)
  | Crash of string  (* harness or program raised *)

type failure = {
  target : string;
  trial : int;  (* lowest failing trial index — the reproduction handle *)
  seed : int;
  kind : kind;
  case : Fuzz_case.t;
  history : Chistory.t;
  pending : Checker.pending list;
  shrunk : (Fuzz_case.t * Chistory.t) option;
}

type report = {
  rtarget : string;
  trials : int;
  completed : int;
      (* trials [0, completed) all ran clean: the contiguous prefix that
         a resumed campaign can skip.  The failing trial on a failing
         run, [trials] on a clean full run. *)
  failure : failure option;
  outcome : Supervisor.outcome;  (* Done unless the campaign was cut short *)
  domains_used : int;
  wall_s : float;
}

(* --- evaluation -------------------------------------------------------- *)

type eval =
  | Ok_run
  | Bad of kind * Chistory.t * Checker.pending list

let same_kind a b =
  match (a, b) with
  | Violation, Violation -> true
  | Broken _, Broken _ -> true
  | Crash _, Crash _ -> true
  | _ -> false

(* Checker sessions are not thread-safe and [Supervisor.first_hit] runs
   trials on several domains, so campaigns hold one session per domain
   in domain-local storage.  Value interning itself is global and
   domain-safe now (the hash-consed [Value] core), so what a session
   shares across a domain's trials is only the spec-transition and
   state-set memos.  [session] below is a thunk fetching the calling
   domain's session; outcomes never depend on session state, so
   determinism across domain counts is untouched. *)
let dls_sessions spec =
  let key = Domain.DLS.new_key (fun () -> Checker.session spec) in
  fun () -> Domain.DLS.get key

let eval_impl_case ?session ~(impl : Implementation.t) (case : Fuzz_case.t) :
    eval =
  let n = Array.length case.workloads in
  let scheduler = Fuzz_case.scheduler ~n case in
  let nondet = Harness.Random (Prng.create case.nondet_seed) in
  let session = Option.map (fun get -> get ()) session in
  match
    Harness.check ?session ~nondet ~impl ~workloads:case.workloads ~scheduler
      ()
  with
  | _, Checker.Linearizable _ -> Ok_run
  | run, Checker.Not_linearizable -> Bad (Violation, run.history, run.pending)
  | exception e -> Bad (Crash (Printexc.to_string e), [], [])

(* Spec-level round trip, driven only by the case's workloads and
   nondet seed: the positive generator must produce a well-formed
   linearizable history, and [Gen.corrupt] must either certify a
   non-linearizable perturbation or give up — never raise. *)
let eval_spec_case ?session ~(spec : Obj_spec.t) (case : Fuzz_case.t) : eval =
  let prng = Prng.create case.nondet_seed in
  let check h =
    match session with
    | Some get -> Checker.check_with (get ()) h
    | None -> Checker.check spec h
  in
  match Gen.linearizable_history ~prng ~spec ~workloads:case.workloads with
  | exception e -> Bad (Crash (Printexc.to_string e), [], [])
  | h -> (
    if not (Chistory.well_formed h) then
      Bad (Broken "generated history ill-formed", h, [])
    else
      match check h with
      | Checker.Not_linearizable ->
        Bad (Broken "positive fixture rejected by checker", h, [])
      | Checker.Linearizable _ -> (
        match Gen.corrupt ~prng ~spec h with
        | exception e ->
          Bad (Crash ("Gen.corrupt: " ^ Printexc.to_string e), h, [])
        | Some _ | None -> Ok_run))

(* --- shrinking --------------------------------------------------------- *)

(* Greedy first-improvement descent over [Fuzz_case.shrinks], keeping a
   candidate only when it fails with the SAME kind (an oracle violation
   must not shrink into a mere crash and vice versa).  Bounded by a
   candidate-evaluation budget (default {!default_shrink_budget},
   configurable end to end from the CLI) and by the run's deadline: a
   fired [deadline] stops the descent at the best case found so far —
   shrinking is a convenience, never worth blowing the run's budget.
   The returned step count says how many candidates were actually
   accepted: 0 means the result IS the original case (budget 0, or a
   deadline that fired before any candidate was evaluated) and must not
   be reported as a shrink. *)
let default_shrink_budget = 400

let shrink_case ?(budget = default_shrink_budget)
    ?(deadline = Supervisor.Budget.unlimited) ~eval ~kind
    ~(case : Fuzz_case.t) ~history ~pending () =
  let budget = ref budget in
  let steps = ref 0 in
  let expired () = Supervisor.Budget.stop deadline <> None in
  let rec descend case history pending =
    let next =
      List.find_map
        (fun c ->
          if !budget <= 0 || expired () then None
          else begin
            decr budget;
            match eval c with
            | Bad (k, h, p) when same_kind kind k -> Some (c, h, p)
            | _ -> None
          end)
        (Fuzz_case.shrinks case)
    in
    match next with
    | Some (c, h, p) ->
      incr steps;
      descend c h p
    | None -> (case, history, pending, !steps)
  in
  descend case history pending

(* --- campaigns --------------------------------------------------------- *)

let campaign ?domains ?(shrink = true) ?shrink_budget ?(start = 0) ?budget
    ~trials ~seed ~name ~gen_case ~eval () =
  if trials < 1 then invalid_arg "Engine.campaign: trials must be >= 1";
  let t0 = Unix.gettimeofday () in
  let run trial =
    let case = gen_case (Prng.of_substream ~seed ~index:trial) in
    match eval case with
    | Ok_run -> None
    | Bad (kind, history, pending) -> Some (kind, case, history, pending)
  in
  let r = Supervisor.first_hit ?domains ?budget ~lo:start ~hi:trials run in
  let failure =
    Option.map
      (fun (trial, (kind, case, history, pending)) ->
        let shrunk =
          if not shrink then None
          else
            let c, _, _, steps =
              shrink_case ?budget:shrink_budget ?deadline:budget ~eval ~kind
                ~case ~history ~pending ()
            in
            (* A zero-step descent (budget 0, or the deadline fired
               before the first candidate) is the original case — not a
               shrink.  And a deadline firing mid-descent must not let a
               stale candidate through: re-run the final case and report
               it only if it still fails the same way.  [eval] is
               deterministic, so a reproduction failure here is a bug in
               the shrinker itself — fall back to the unshrunk case. *)
            if steps = 0 then None
            else
              match eval c with
              | Bad (k, h', _) when same_kind kind k -> Some (c, h')
              | Bad _ | Ok_run -> None
        in
        { target = name; trial; seed; kind; case; history; pending; shrunk })
      r.hit
  in
  {
    rtarget = name;
    trials;
    completed = r.completed;
    failure;
    outcome = r.outcome;
    domains_used = r.domains_used;
    wall_s = Unix.gettimeofday () -. t0;
  }

let fuzz_impl ?domains ?shrink ?shrink_budget ?start ?budget ?(faults = 0)
    ?(ops_per_proc = 4) ~trials ~seed (t : Targets.impl_target) =
  let gen_case prng =
    Fuzz_case.gen ~prng
      ~gen_workloads:(t.gen_workloads ~ops_per_proc)
      ~procs:t.iprocs ~max_faults:faults ()
  in
  campaign ?domains ?shrink ?shrink_budget ?start ?budget ~trials ~seed
    ~name:("impl " ^ t.idesc) ~gen_case
    ~eval:(eval_impl_case ~session:(dls_sessions t.impl.target) ~impl:t.impl)
    ()

let fuzz_spec ?domains ?shrink ?shrink_budget ?start ?budget ?(procs = 3)
    ?(ops_per_proc = 4) ~trials ~seed (t : Targets.spec_target) =
  let gen_case prng =
    Fuzz_case.gen ~prng
      ~gen_workloads:(Targets.spec_workloads t ~procs ~ops_per_proc)
      ~procs ~max_faults:0 ()
  in
  campaign ?domains ?shrink ?shrink_budget ?start ?budget ~trials ~seed
    ~name:("spec " ^ t.desc) ~gen_case
    ~eval:(eval_spec_case ~session:(dls_sessions t.spec) ~spec:t.spec) ()

(* --- campaign checkpoints ----------------------------------------------- *)

(* A fuzz checkpoint is tiny: trials are pure functions of
   (seed, trial index), so "where we were" is just the completed-prefix
   length per target — no case material, no values, no re-interning
   concerns.  Resuming replays nothing and re-randomizes nothing. *)
type checkpoint = { ckpt_seed : int; ckpt_done : (string * int) list }

(* The payload is one checksummed {!Lbsa_util.Codec} section committed
   through {!Lbsa_util.Rio}, like the model checker's checkpoints: a
   damaged file must be refused, never resumed from a wrong count.
   Files of another version are refused as foreign. *)
let checkpoint_magic = "LBSA-FUZZ-CHECKPOINT/3\n"
let checkpoint_tag = "FUZZCKPT"

module Codec = Lbsa_util.Codec

let checkpoint_codec =
  let c = Codec.(pair int (list (pair string int))) in
  { Codec.put = (fun b k -> c.put b (k.ckpt_seed, k.ckpt_done));
    get = (fun cur -> let ckpt_seed, ckpt_done = c.get cur in { ckpt_seed; ckpt_done }) }

exception Corrupt of string

let save_checkpoint ~file (c : checkpoint) =
  Lbsa_util.Rio.with_atomic_file ~site:"fuzz.checkpoint" ~path:file (fun w ->
      let sink = Lbsa_util.Rio.write_string w in
      sink checkpoint_magic;
      Codec.write_section sink ~tag:checkpoint_tag
        (Codec.encode checkpoint_codec c))

let load_checkpoint ~file : checkpoint =
  let ic =
    try open_in_bin file
    with Sys_error e -> failwith (Fmt.str "Engine.load_checkpoint: %s" e)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* A path that opens but cannot be read (a directory) has no magic
         line either. *)
      let header =
        try In_channel.really_input_string ic (String.length checkpoint_magic)
        with Sys_error _ -> None
      in
      if header <> Some checkpoint_magic then
        failwith
          (Fmt.str
             "Engine.load_checkpoint: %s is not a version-3 fuzz checkpoint"
             file);
      let defect msg =
        raise (Corrupt (Fmt.str "Engine.load_checkpoint: %s: %s" file msg))
      in
      try
        let payload = Codec.input_section ic ~tag:checkpoint_tag in
        if pos_in ic <> in_channel_length ic then defect "trailing bytes";
        Codec.decode checkpoint_codec payload
      with Codec.Malformed msg | Sys_error msg -> defect msg)

let checkpoint_of_reports ~seed reports =
  { ckpt_seed = seed; ckpt_done = List.map (fun r -> (r.rtarget, r.completed)) reports }

let resume_start (c : checkpoint) ~name =
  match List.assoc_opt name c.ckpt_done with Some n -> n | None -> 0

(* --- reporting --------------------------------------------------------- *)

let pp_kind ppf = function
  | Violation -> Fmt.string ppf "linearizability violation"
  | Broken why -> Fmt.pf ppf "generator round-trip failure: %s" why
  | Crash exn -> Fmt.pf ppf "crash: %s" exn

let pp_pending ppf (pending : Checker.pending list) =
  match pending with
  | [] -> ()
  | ps ->
    Fmt.pf ppf "@,pending: %a"
      Fmt.(
        list ~sep:(any "; ") (fun ppf (p : Checker.pending) ->
            pf ppf "p%d:%a" p.pid Op.pp p.op))
      ps

let pp_failure ppf f =
  Fmt.pf ppf
    "@[<v>FAIL %s: %a@,  reproduce with --seed %d (trial %d)@,@[<v 2>case:@,%a@]@,@[<v 2>history:@,%a%a@]@]"
    f.target pp_kind f.kind f.seed f.trial Fuzz_case.pp f.case Chistory.pp
    f.history pp_pending f.pending;
  match f.shrunk with
  | None -> ()
  | Some (c, h) ->
    Fmt.pf ppf "@,@[<v 2>shrunk to %d calls:@,%a@,@[<v 2>history:@,%a@]@]"
      (Fuzz_case.n_calls c) Fuzz_case.pp c Chistory.pp h

let pp_report ppf r =
  match r.failure with
  | None when Supervisor.is_partial r.outcome ->
    Fmt.pf ppf "STOP %-24s %6d/%d trials  (%a)  %d domains  %.2fs" r.rtarget
      r.completed r.trials Supervisor.pp_outcome r.outcome r.domains_used
      r.wall_s
  | None ->
    Fmt.pf ppf "PASS %-24s %6d trials  %d domains  %.2fs" r.rtarget r.trials
      r.domains_used r.wall_s
  | Some f -> pp_failure ppf f
