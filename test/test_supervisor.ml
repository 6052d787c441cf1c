(* The supervision layer: structured partial outcomes where truncation
   used to raise, worker fault isolation across the pipeline,
   deterministic chaos injection, and checkpoint/resume equivalence. *)

open Lbsa

let expired () = Supervisor.Budget.make ~deadline_s:0. ()

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_outcome label want got =
  if got <> want then
    Alcotest.failf "%s: expected %a, got %a" label Supervisor.pp_outcome want
      Supervisor.pp_outcome got

let dac_instance n =
  ( Dac_from_pac.machine ~n,
    Dac_from_pac.specs ~n,
    Array.init n (fun pid -> Value.int (if pid = 0 then 1 else 0)) )

(* Two graphs with the same nodes, offsets and packed steps, compared
   element by element: how their stores are chunked is not content. *)
let same_contents a b =
  let all n p = Seq.for_all p (Seq.init n Fun.id) in
  Cgraph.n_nodes a = Cgraph.n_nodes b
  && Cgraph.n_edges a = Cgraph.n_edges b
  && all (Cgraph.n_nodes a) (fun id ->
         Config.equal (Cgraph.node a id) (Cgraph.node b id))
  && all (Cgraph.n_nodes a + 1) (fun id -> Cgraph.offset a id = Cgraph.offset b id)
  && all (Cgraph.n_edges a) (fun i ->
         Cgraph.step_pid a i = Cgraph.step_pid b i
         && Cgraph.step_target a i = Cgraph.step_target b i)

(* --- structured outcomes (the old raise-through Truncated path) -------- *)

let test_truncation_is_partial_verdict () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let v =
    Solvability.check ~task:Solvability.Consensus
      ~max_states:1 ~machine ~specs ~inputs ()
  in
  Alcotest.(check bool) "partial is not ok" false v.Solvability.ok;
  expect_outcome "quota" Supervisor.Truncated v.Solvability.outcome;
  Alcotest.(check bool)
    "suspension captured" true
    (v.Solvability.suspended <> None)

let test_deadline_is_partial_verdict () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let v =
    Solvability.check ~task:Solvability.Consensus
      ~budget:(expired ()) ~machine ~specs ~inputs ()
  in
  Alcotest.(check bool) "partial is not ok" false v.Solvability.ok;
  expect_outcome "deadline" Supervisor.Deadline v.Solvability.outcome;
  Alcotest.(check bool)
    "suspension captured" true
    (v.Solvability.suspended <> None)

let test_zero_deadline_expired_at_first_poll () =
  (* A zero budget polled in the same clock tick it was made must
     already be expired; with a strict comparison it was not, and the
     supervised loops then ran one unit of work past a deadline of 0. *)
  for i = 1 to 10_000 do
    match Supervisor.Budget.stop (expired ()) with
    | Some Supervisor.Deadline -> ()
    | o ->
      Alcotest.failf "zero budget %d polled as %s" i
        (match o with
        | None -> "not expired"
        | Some o -> Fmt.str "%a" Supervisor.pp_outcome o)
  done

let test_cancellation_is_partial_verdict () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let token = Supervisor.token () in
  Supervisor.cancel token;
  let budget = Supervisor.Budget.make ~deadline_s:3600. ~token () in
  let v =
    Solvability.check ~task:Solvability.Consensus
      ~budget ~machine ~specs ~inputs ()
  in
  (* Cancellation wins over a live deadline. *)
  expect_outcome "cancelled" Supervisor.Cancelled v.Solvability.outcome

let test_sigint_routes_to_token () =
  (* The CLI's ^C path, minus the terminal: install the handler, send
     ourselves a real SIGINT, and watch it land in the token.  (The
     interrupt/resume CLI test below uses --deadline 0 instead — every
     run here is far too fast to signal from outside without racing —
     and cancellation and deadline share the same stop path.) *)
  let token = Supervisor.token () in
  Supervisor.install_sigint token;
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint Sys.Signal_default)
    (fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* OCaml delivers signals at poll points; spin on one until then. *)
      let give_up = Unix.gettimeofday () +. 5. in
      while
        (not (Supervisor.cancelled token))
        && Unix.gettimeofday () < give_up
      do
        ignore (Sys.opaque_identity (ref 0))
      done;
      Alcotest.(check bool) "SIGINT cancels the token" true
        (Supervisor.cancelled token);
      let budget = Supervisor.Budget.make ~token () in
      match Supervisor.Budget.stop budget with
      | Some Supervisor.Cancelled -> ()
      | Some o ->
        Alcotest.failf "expected Cancelled, got %a" Supervisor.pp_outcome o
      | None -> Alcotest.fail "budget ignored the cancelled token")

(* --- worker fault isolation -------------------------------------------- *)

let test_graph_isolates_raising_machine () =
  let machine =
    Machine.make ~name:"raiser"
      ~init:(fun ~pid:_ ~input -> input)
      ~delta:(fun ~pid:_ _ -> failwith "injected machine fault")
  in
  let g =
    Cgraph.build ~machine ~specs:[||] ~inputs:[| Value.int 0 |] ()
  in
  (match g.Cgraph.stop with
  | Supervisor.Worker_failed { worker = 0; _ } -> ()
  | o ->
    Alcotest.failf "expected a worker failure, got %a" Supervisor.pp_outcome o);
  Alcotest.(check bool) "marked truncated" true g.Cgraph.truncated;
  Alcotest.(check int) "the explored prefix survives" 1 (Cgraph.n_nodes g)

(* A level whose expansion keeps raising is abandoned whole, however
   many of its blocks were merged before the failing one.  of:3:2 with
   p2 raising in round 2's B-collect once it has read two registers:
   the first such node is index 674 of a 765-node level, so ten blocks
   of 64 are merged before the failure.  The build keeps the 16
   completed levels and nothing of the 17th at every domain count (the
   worker number is left unchecked: at more than one domain it is
   whichever domain claimed the failing block), and resuming it with the
   healthy machine gives the uninterrupted graph and counters. *)
let test_failing_level_abandoned_whole () =
  let n = 3 and max_rounds = 2 in
  let healthy = Obstruction_free.machine_spin ~n ~max_rounds in
  let specs = Obstruction_free.specs ~n ~max_rounds in
  let inputs = Array.init n (fun pid -> Value.int (pid mod 2)) in
  let poisoned =
    {
      healthy with
      Machine.delta =
        (fun ~pid state ->
          match state.Value.node with
          | List
              [
                { node = Sym "b-collect"; _ };
                { node = Int 2; _ };
                _;
                _;
                { node = List [ _; _ ]; _ };
              ]
            when pid = 2 ->
            failwith "poisoned b-collect"
          | _ -> healthy.Machine.delta ~pid state);
    }
  in
  let full = Cgraph.build ~domains:1 ~machine:healthy ~specs ~inputs () in
  List.iter
    (fun d ->
      let label = Fmt.str "domains=%d" d in
      let g = Cgraph.build ~domains:d ~machine:poisoned ~specs ~inputs () in
      (match g.Cgraph.stop with
      | Supervisor.Worker_failed { exn; attempts; _ } ->
        Alcotest.(check (pair string int))
          (label ^ ": exception and attempts")
          ("Failure(\"poisoned b-collect\")", 3)
          (exn, attempts)
      | o ->
        Alcotest.failf "%s: expected a worker failure, got %a" label
          Supervisor.pp_outcome o);
      let s = Cgraph.stats g in
      Alcotest.(check (list int))
        (label ^ ": states, edges, levels, expanded")
        [ 3754; 8844; 16; 2989 ]
        [ s.Cgraph.states; s.Cgraph.edges; s.Cgraph.levels; g.Cgraph.expanded ];
      let resumed =
        Cgraph.build ~domains:d ~resume:(Option.get g.Cgraph.suspended)
          ~machine:healthy ~specs ~inputs ()
      in
      expect_outcome (label ^ ": resume completes") Supervisor.Done
        resumed.Cgraph.stop;
      Alcotest.(check (list int))
        (label ^ ": resumed states, edges, dedup hits")
        [ 104_871; 300_706; (Cgraph.stats full).Cgraph.dedup_hits ]
        [
          Cgraph.n_nodes resumed;
          Cgraph.n_edges resumed;
          (Cgraph.stats resumed).Cgraph.dedup_hits;
        ];
      Alcotest.(check bool)
        (label ^ ": resumed graph = uninterrupted graph")
        true
        (same_contents resumed full))
    [ 1; 2; 4 ]

let test_sweep_survives_raising_checker () =
  (* Regression for the latent for_all_inputs bug: an exception escaping
     a spawned domain used to abort the whole sweep through
     [Domain.join].  Now it becomes a failing [Worker_failed] verdict for
     that vector, and the winning vector is domain-count-invariant. *)
  let vectors = Consensus_task.binary_inputs 2 in
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let check inputs =
    if Value.equal inputs.(0) (Value.int 1) then failwith "checker bug";
    Solvability.check ~task:Solvability.Consensus ~machine ~specs ~inputs ()
  in
  let reference = Solvability.for_all_inputs ~domains:1 check vectors in
  Alcotest.(check bool) "sweep fails" false reference.Solvability.ok;
  (match reference.Solvability.outcome with
  | Supervisor.Worker_failed { attempts = 3; _ } -> ()
  | o ->
    Alcotest.failf "expected exhausted retries, got %a" Supervisor.pp_outcome
      o);
  (match reference.Solvability.failure with
  | Some msg when contains_sub ~sub:"checker raised" msg -> ()
  | Some msg -> Alcotest.failf "unexpected failure message %S" msg
  | None -> Alcotest.fail "no failure message");
  List.iter
    (fun d ->
      let v = Solvability.for_all_inputs ~domains:d check vectors in
      Alcotest.(check bool) (Fmt.str "domains=%d fails" d) false
        v.Solvability.ok;
      if
        not
          (Value.equal
             (Value.list (Array.to_list v.Solvability.inputs))
             (Value.list (Array.to_list reference.Solvability.inputs)))
      then Alcotest.failf "domains=%d picked a different failing vector" d)
    [ 2; 3; 4 ]

let test_run_shard_retries_then_fails () =
  let calls = ref 0 in
  (match
     Supervisor.run_shard ~backoff_s:1e-6 ~worker:7 (fun () ->
         incr calls;
         failwith "always")
   with
  | Ok () -> Alcotest.fail "expected failure"
  | Error (msg, attempts) ->
    Alcotest.(check int) "three attempts" 3 attempts;
    Alcotest.(check bool) "message kept" true (contains_sub ~sub:"always" msg));
  Alcotest.(check int) "body ran once per attempt" 3 !calls;
  match
    Supervisor.run_shard ~backoff_s:1e-6 ~worker:7 (fun () ->
        incr calls;
        if !calls < 5 then failwith "flaky" else 42)
  with
  | Ok v -> Alcotest.(check int) "recovers" 42 v
  | Error (msg, _) -> Alcotest.failf "should have recovered: %s" msg

(* --- deterministic chaos ----------------------------------------------- *)

let with_chaos seed f =
  Supervisor.Chaos.arm ~seed ();
  Fun.protect ~finally:Supervisor.Chaos.disarm f

let test_chaos_preserves_graph_and_verdict () =
  let machine, specs, inputs = dac_instance 4 in
  let clean = Cgraph.build ~domains:2 ~machine ~specs ~inputs () in
  List.iter
    (fun d ->
      let g =
        with_chaos 11 (fun () ->
            Cgraph.build ~domains:d ~machine ~specs ~inputs ())
      in
      expect_outcome (Fmt.str "chaos domains=%d completes" d) Supervisor.Done
        g.Cgraph.stop;
      Oracle.same_graph
        (Fmt.str "chaos domains=%d" d)
        g (Oracle.of_graph clean))
    [ 1; 2; 4 ];
  (* dac:4's levels stay under the parallel threshold, so the builds
     above run on one domain whatever they ask for; dac:5's peak
     frontier (715) spreads its big levels' blocks over real domains. *)
  let machine5, specs5, inputs5 = dac_instance 5 in
  let clean5 =
    Cgraph.build ~domains:1 ~machine:machine5 ~specs:specs5 ~inputs:inputs5 ()
  in
  Alcotest.(check int) "dac:5 peak frontier" 715
    (Cgraph.stats clean5).Cgraph.peak_frontier;
  let oracle5 = Oracle.of_graph clean5 in
  List.iter
    (fun d ->
      let g =
        with_chaos 11 (fun () ->
            Cgraph.build ~domains:d ~machine:machine5 ~specs:specs5
              ~inputs:inputs5 ())
      in
      expect_outcome (Fmt.str "chaos dac:5 domains=%d completes" d)
        Supervisor.Done g.Cgraph.stop;
      Oracle.same_graph (Fmt.str "chaos dac:5 domains=%d" d) g oracle5)
    [ 2; 3; 4 ];
  let vectors = Dac.binary_inputs 3 in
  let machine3, specs3, _ = dac_instance 3 in
  let check inputs =
    Solvability.check_dac ~domains:1 ~machine:machine3 ~specs:specs3 ~inputs
      ()
  in
  let reference = Solvability.for_all_inputs ~domains:1 check vectors in
  List.iter
    (fun d ->
      let v =
        with_chaos 23 (fun () ->
            Solvability.for_all_inputs ~domains:d check vectors)
      in
      Alcotest.(check bool)
        (Fmt.str "chaos domains=%d verdict" d)
        reference.Solvability.ok v.Solvability.ok;
      expect_outcome
        (Fmt.str "chaos domains=%d outcome" d)
        reference.Solvability.outcome v.Solvability.outcome)
    [ 1; 2; 4 ]

(* A fuzz campaign's failing trial, completed prefix and outcome are the
   same for every domain count, and chaos (which keys the first attempt
   of each trial by its index) changes none of them. *)
let test_chaos_preserves_fuzz_campaigns () =
  let impl = Fuzz_targets.impl_target "mutant-pac:2" in
  let spec = Fuzz_targets.spec_target "pac:2" in
  let summary (r : Fuzz_engine.report) =
    ( Option.map (fun f -> f.Fuzz_engine.trial) r.Fuzz_engine.failure,
      r.Fuzz_engine.completed,
      r.Fuzz_engine.outcome )
  in
  List.iter
    (fun (name, failing_trial, campaign) ->
      let trial, completed, outcome = summary (campaign 1) in
      Alcotest.(check (option int)) (name ^ ": failing trial") failing_trial
        trial;
      List.iter
        (fun (armed, d) ->
          let label =
            Fmt.str "%s, domains=%d%s" name d (if armed then ", chaos" else "")
          in
          let trial', completed', outcome' =
            summary
              (if armed then with_chaos 31 (fun () -> campaign d)
               else campaign d)
          in
          Alcotest.(check (option int)) (label ^ ": failing trial") trial trial';
          Alcotest.(check int) (label ^ ": completed") completed completed';
          expect_outcome (label ^ ": outcome") outcome outcome')
        [ (false, 2); (false, 4); (true, 1); (true, 2); (true, 4) ])
    [
      ( "impl mutant-pac:2",
        Some 10,
        fun d ->
          Fuzz_engine.fuzz_impl ~domains:d ~shrink:false ~trials:200 ~seed:42
            impl );
      ( "spec pac:2",
        None,
        fun d -> Fuzz_engine.fuzz_spec ~domains:d ~trials:60 ~seed:42 spec );
    ]

(* Without a budget stop, [first_hit] answers as a sequential scan does:
   the lowest index that hits or keeps raising decides [hit], [completed]
   and [outcome], for every domain count, armed or not.  An index that
   exhausts its retries hides every hit above it. *)
let test_first_hit_is_a_sequential_scan () =
  let hi = 60 in
  List.iter
    (fun (raises, hits) ->
      let body i =
        if List.mem i raises then failwith (Fmt.str "index %d" i)
        else if List.mem i hits then Some (i * 7)
        else None
      in
      let first = List.fold_left min hi (raises @ hits) in
      let want_hit, want_outcome =
        if first = hi then (None, Supervisor.Done)
        else if List.mem first raises then
          ( None,
            Supervisor.Worker_failed
              {
                worker = first;
                exn = Printexc.to_string (Failure (Fmt.str "index %d" first));
                attempts = 3;
              } )
        else (Some (first, first * 7), Supervisor.Done)
      in
      List.iter
        (fun d ->
          List.iter
            (fun armed ->
              let label =
                Fmt.str "raises %a, hits %a, domains=%d%s"
                  Fmt.(Dump.list int) raises
                  Fmt.(Dump.list int) hits
                  d
                  (if armed then ", chaos" else "")
              in
              let scan () = Supervisor.first_hit ~domains:d ~lo:0 ~hi body in
              let r = if armed then with_chaos 17 scan else scan () in
              Alcotest.(check (option (pair int int)))
                (label ^ ": hit") want_hit r.Supervisor.hit;
              Alcotest.(check int)
                (label ^ ": completed") first r.Supervisor.completed;
              expect_outcome (label ^ ": outcome") want_outcome
                r.Supervisor.outcome)
            [ false; true ])
        [ 1; 2; 3; 4; 8 ])
    [
      ([], []);
      ([], [ 37 ]);
      ([], [ 5; 6; 51 ]);
      ([ 13 ], [ 20 ]);
      ([ 13 ], [ 9; 40 ]);
      ([ 2; 30 ], []);
    ]

(* --- checkpoint / resume ----------------------------------------------- *)

let roundtrip_through_disk ~label s =
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Checkpoint.save ~file (Checkpoint.freeze ~label s);
      let c = Checkpoint.load ~file in
      Alcotest.(check string) "label survives" label (Checkpoint.label c);
      (* Shift the intern id space before thawing: resumed graphs must
         not depend on the ids this process happened to assign. *)
      for i = 1 to 1_000 do
        ignore (Value.list [ Value.int (5_000_000 + i); Value.sym "junk" ])
      done;
      Checkpoint.thaw c)

(* Resumed graphs are compared with the seed explorer, whose events
   come from its own BFS rather than from a re-derivation. *)
let test_resume_from_deadline_checkpoint () =
  let machine, specs, inputs = dac_instance 3 in
  let full = Oracle.build_cmap ~machine ~specs ~inputs () in
  let partial =
    Cgraph.build ~budget:(expired ()) ~machine ~specs ~inputs ()
  in
  expect_outcome "stopped at the first level" Supervisor.Deadline
    partial.Cgraph.stop;
  let s = Option.get partial.Cgraph.suspended in
  let resumed =
    Cgraph.build
      ~resume:(roundtrip_through_disk ~label:"dac3 from-initial" s)
      ~machine ~specs ~inputs ()
  in
  expect_outcome "resume runs to completion" Supervisor.Done
    resumed.Cgraph.stop;
  Oracle.same_graph "deadline-0 resume = uninterrupted" resumed full

let test_resume_from_midway_checkpoint () =
  (* Truncate mid-exploration (nonzero expanded prefix, partially built
     edge array), persist, thaw, finish: identical graph. *)
  let machine, specs, inputs = dac_instance 3 in
  let full = Oracle.build_cmap ~machine ~specs ~inputs () in
  let partial =
    Cgraph.build ~max_states:40 ~machine ~specs ~inputs ()
  in
  expect_outcome "quota fired" Supervisor.Truncated partial.Cgraph.stop;
  let s = Option.get partial.Cgraph.suspended in
  let resumed =
    Cgraph.build
      ~resume:(roundtrip_through_disk ~label:"dac3 midway" s)
      ~machine ~specs ~inputs ()
  in
  Oracle.same_graph "midway resume = uninterrupted" resumed full;
  (* And resuming across domain counts still agrees. *)
  let resumed4 =
    Cgraph.build ~domains:4 ~resume:(Option.get partial.Cgraph.suspended)
      ~machine ~specs ~inputs ()
  in
  Oracle.same_graph "midway resume, 4 domains" resumed4 full

let test_checkpoint_rejects_foreign_files () =
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc "not a checkpoint at all";
      close_out oc;
      match Checkpoint.load ~file with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "foreign file accepted")

(* --- fuzz engine under budgets ----------------------------------------- *)

let test_fan_budget_stops_and_resumes () =
  let run i = if i = 25 then Some (i * 3) else None in
  let stopped =
    Supervisor.first_hit ~domains:2 ~budget:(expired ()) ~lo:0 ~hi:40 run
  in
  Alcotest.(check (option (pair int int))) "no hit" None stopped.Supervisor.hit;
  Alcotest.(check int) "nothing completed" 0 stopped.Supervisor.completed;
  expect_outcome "deadline surfaces" Supervisor.Deadline
    stopped.Supervisor.outcome;
  (* Resume from an arbitrary completed prefix: same hit, any domains. *)
  List.iter
    (fun d ->
      let r = Supervisor.first_hit ~domains:d ~lo:10 ~hi:40 run in
      Alcotest.(check (option (pair int int)))
        (Fmt.str "resumed, domains=%d" d)
        (Some (25, 75)) r.Supervisor.hit)
    [ 1; 2; 4 ]

let test_fuzz_checkpoint_roundtrip () =
  let t = Fuzz_targets.spec_target "pac:2" in
  let full = Fuzz_engine.fuzz_spec ~domains:1 ~trials:50 ~seed:5 t in
  let stopped =
    Fuzz_engine.fuzz_spec ~domains:1 ~budget:(expired ()) ~trials:50 ~seed:5 t
  in
  expect_outcome "campaign stopped" Supervisor.Deadline
    stopped.Fuzz_engine.outcome;
  let ckpt = Fuzz_engine.checkpoint_of_reports ~seed:5 [ stopped ] in
  let file = Filename.temp_file "lbsa-fuzz" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Fuzz_engine.save_checkpoint ~file ckpt;
      let c = Fuzz_engine.load_checkpoint ~file in
      Alcotest.(check int) "seed" 5 c.Fuzz_engine.ckpt_seed;
      let start =
        Fuzz_engine.resume_start c ~name:stopped.Fuzz_engine.rtarget
      in
      Alcotest.(check int) "completed prefix" stopped.Fuzz_engine.completed
        start;
      let resumed = Fuzz_engine.fuzz_spec ~domains:1 ~start ~trials:50 ~seed:5 t in
      expect_outcome "resumed campaign finishes" Supervisor.Done
        resumed.Fuzz_engine.outcome;
      Alcotest.(check int) "all trials accounted for" full.Fuzz_engine.completed
        resumed.Fuzz_engine.completed;
      Alcotest.(check bool) "same (absent) failure" true
        (full.Fuzz_engine.failure = None && resumed.Fuzz_engine.failure = None))

(* --- one damage sweep over every format ----------------------------- *)

(* Every byte that leaves the process goes through one codec, so every
   format gets the same sweep: each single-bit flip of each byte, and
   each truncation, of a pristine artifact must end in that format's
   typed refusal — never a decoded value, never another exception. *)

exception Refused

type artifact = {
  pristine : string;
  magic_len : int;  (** damage before this offset may be refused as foreign *)
  load : string -> unit;
      (** installs the bytes and reads them back: returns iff they
          decoded, raises the format's typed refusal otherwise *)
  refusal : foreign:bool -> exn -> bool;
}

let read_file f = In_channel.with_open_bin f In_channel.input_all
let write_file f s = Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

let sweep a =
  let check what ~at bytes =
    match a.load bytes with
    | () -> Alcotest.failf "%s: damaged artifact decoded" what
    | exception e when a.refusal ~foreign:(at < a.magic_len) e -> ()
    | exception e ->
      Alcotest.failf "%s: unexpected %s" what (Printexc.to_string e)
  in
  String.iteri
    (fun i c ->
      for bit = 0 to 7 do
        let b = Bytes.of_string a.pristine in
        Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
        check (Fmt.str "byte %d bit %d flipped" i bit) ~at:i (Bytes.to_string b)
      done)
    a.pristine;
  for n = 0 to String.length a.pristine - 1 do
    check (Fmt.str "truncated to %d bytes" n) ~at:n (String.sub a.pristine 0 n)
  done

let magic_len s = String.index s '\n' + 1

let with_temp suffix f =
  let file = Filename.temp_file "lbsa-damage" suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> f file)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "lbsa-damage" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A frame sent over a socketpair whose sender shuts down after
   writing, so a length that claims more bytes meets end of stream. *)
let wire_frame () =
  let recv bytes =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ a; b ])
      (fun () ->
        ignore (Unix.write_substring a bytes 0 (String.length bytes));
        Unix.shutdown a Unix.SHUTDOWN_SEND;
        Serve_wire.recv_request b)
  in
  let q =
    Serve_api.Verify
      { task = Serve_api.Dac { n = 3 }; question = Serve_api.Solve;
        inputs = [ 1; 0; 0 ]; max_states = 5_000; reduce = `Sym;
        substrate = "shm" }
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let pristine =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ a; b ])
      (fun () ->
        Serve_wire.send_request a
          (Serve_wire.Query { q; deadline_s = Some 2.5 });
        Unix.shutdown a Unix.SHUTDOWN_SEND;
        In_channel.input_all (Unix.in_channel_of_descr b))
  in
  (match recv pristine with
  | Serve_wire.Query { q = q'; _ } when q' = q -> ()
  | _ -> Alcotest.fail "pristine frame did not decode");
  {
    pristine;
    magic_len = 0;
    load = (fun bytes -> ignore (recv bytes));
    refusal =
      (fun ~foreign:_ -> function
        | Failure _ | Serve_wire.Closed -> true | _ -> false);
  }

let store_entry dir =
  let s = Serve_store.open_ ~dir in
  let key = "00000000deadbeef" and canonical = "the canonical question" in
  (match Serve_store.put s ~key ~canonical ~data:"the stored answer" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "Store.put: %s" msg);
  let file = Serve_store.path s ~key in
  {
    pristine = read_file file;
    magic_len = 0;
    load =
      (fun bytes ->
        write_file file bytes;
        let before = Serve_store.corrupt_count s in
        match Serve_store.get s ~key ~canonical with
        | Some _ -> ()
        | None when Serve_store.corrupt_count s = before + 1 -> raise Refused
        | None -> failwith "a miss that was not counted corrupt");
    refusal = (fun ~foreign:_ e -> e = Refused);
  }

(* A quota stop after the first level, so the file carries an edge
   chunk (the initial node's packed steps) as well as node chunks. *)
let checkpoint file =
  let machine, specs, inputs = dac_instance 3 in
  let partial = Cgraph.build ~max_states:2 ~machine ~specs ~inputs () in
  let s = Option.get partial.Cgraph.suspended in
  Alcotest.(check bool) "the checkpoint holds steps" true
    (Array.length s.Cgraph.s_targets > 0);
  Checkpoint.save ~file (Checkpoint.freeze ~label:"dac:3 quota 2" s);
  let pristine = read_file file in
  {
    pristine;
    magic_len = magic_len pristine;
    load =
      (fun bytes ->
        write_file file bytes;
        ignore (Checkpoint.load ~file));
    refusal =
      (fun ~foreign -> function
        | Checkpoint.Corrupt _ -> true
        | Failure _ | Checkpoint.Version_mismatch _ -> foreign
        | _ -> false);
  }

let segment dir =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let g = Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] () in
  let n = min 4 (Cgraph.n_nodes g) in
  let t = Segstore.create ~dir in
  Segstore.write_segment t ~lo:0 ~hi:n (Cgraph.node g);
  let file =
    match Array.to_list (Sys.readdir dir) with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one segment file, got %d" (List.length l)
  in
  (* The bytes go through both read-backs: the cached load of a point
     lookup and the streamed walk.  Both must refuse, and each refusal
     is counted. *)
  let refused f =
    match f () with () -> false | exception Segstore.Corrupt _ -> true
  in
  {
    pristine = read_file file;
    magic_len = 0;
    load =
      (fun bytes ->
        write_file file bytes;
        let before = Segstore.corrupt_count t in
        let cached = refused (fun () -> ignore (Segstore.node t 0)) in
        let streamed =
          refused (fun () -> ignore (Segstore.find_map t (fun _ _ -> None)))
        in
        if cached <> streamed then
          failwith "the cached load and the streamed walk disagree";
        if cached then begin
          if Segstore.corrupt_count t <> before + 2 then
            failwith "a refusal was not counted";
          raise Refused
        end);
    refusal = (fun ~foreign:_ e -> e = Refused);
  }

let fuzz_checkpoint file =
  Fuzz_engine.save_checkpoint ~file
    { Fuzz_engine.ckpt_seed = 7; ckpt_done = [ ("impl pacnm:2:2", 63) ] };
  let pristine = read_file file in
  {
    pristine;
    magic_len = magic_len pristine;
    load =
      (fun bytes ->
        write_file file bytes;
        ignore (Fuzz_engine.load_checkpoint ~file));
    refusal =
      (fun ~foreign -> function
        | Fuzz_engine.Corrupt _ -> true
        | Failure _ -> foreign
        | _ -> false);
  }

let damage_sweep =
  [
    ("wire frame refuses damaged bytes", fun () -> sweep (wire_frame ()));
    ( "store entry refuses damaged bytes",
      fun () -> with_temp_dir (fun dir -> sweep (store_entry dir)) );
    ( "checkpoint refuses damaged bytes",
      fun () -> with_temp ".ckpt" (fun file -> sweep (checkpoint file)) );
    ( "spilled segment refuses damaged bytes",
      fun () -> with_temp_dir (fun dir -> sweep (segment dir)) );
    ( "fuzz checkpoint refuses damaged bytes",
      fun () -> with_temp ".ckpt" (fun file -> sweep (fuzz_checkpoint file)) );
  ]

(* A failure found before a checkpoint is found again after it: the
   failing campaign's completed prefix stops at the failing trial, so
   the resumed campaign runs that trial again. *)
let test_resume_keeps_found_failure () =
  let t = Fuzz_targets.impl_target "mutant-pac:2" in
  let trial (r : Fuzz_engine.report) =
    Option.map (fun f -> f.Fuzz_engine.trial) r.Fuzz_engine.failure
  in
  List.iter
    (fun d ->
      let campaign ?start () =
        Fuzz_engine.fuzz_impl ~domains:d ~shrink:false ?start ~trials:200
          ~seed:42 t
      in
      let first = campaign () in
      Alcotest.(check (option int)) "mutant caught" (Some 10) (trial first);
      Alcotest.(check int)
        (Fmt.str "domains=%d: completed stops at the failing trial" d)
        10 first.Fuzz_engine.completed;
      let file = Filename.temp_file "lbsa-fuzz" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          Fuzz_engine.save_checkpoint ~file
            (Fuzz_engine.checkpoint_of_reports ~seed:42 [ first ]);
          let start =
            Fuzz_engine.resume_start
              (Fuzz_engine.load_checkpoint ~file)
              ~name:first.Fuzz_engine.rtarget
          in
          Alcotest.(check (option int))
            (Fmt.str "domains=%d: the resumed campaign reports it again" d)
            (trial first)
            (trial (campaign ~start ()))))
    [ 1; 2; 3; 4 ]

let test_shrink_budget_zero_reports_no_shrink () =
  (* Regression: a 0-budget descent returns the original case, which
     used to be reported as [shrunk = Some original] — a "shrunk to N
     calls" claim for a case that never shrank (and, mid-descent, was
     never re-validated).  The failure itself must still be reported,
     with the shrink record honestly absent. *)
  let t = Fuzz_targets.impl_target "mutant-pac:2" in
  let r =
    Fuzz_engine.fuzz_impl ~domains:1 ~shrink_budget:0 ~trials:500 ~seed:42 t
  in
  match r.Fuzz_engine.failure with
  | None -> Alcotest.fail "fuzzer missed the known-bad target"
  | Some f -> (
    match f.Fuzz_engine.shrunk with
    | None -> ()
    | Some (c, _) ->
      Alcotest.failf "budget 0 reported a phantom shrink to %d calls"
        (Fuzz_case.n_calls c));
    (* With a real budget the same failure must shrink to a strictly
       smaller (or equal-size, but then unreported) re-validated case. *)
    (let r' =
       Fuzz_engine.fuzz_impl ~domains:1 ~trials:500 ~seed:42 t
     in
     match r'.Fuzz_engine.failure with
     | None -> Alcotest.fail "fuzzer missed the known-bad target unshrunk"
     | Some f' -> (
       match f'.Fuzz_engine.shrunk with
       | None -> ()
       | Some (c, _) ->
         (* Shrink steps drop calls or faults, never add either. *)
         Alcotest.(check bool) "a reported shrink is no larger" true
           (Fuzz_case.n_calls c <= Fuzz_case.n_calls f'.Fuzz_engine.case)))

let test_campaign_supervised_stops () =
  let impl = Snapshot_impl.implementation ~n:3 in
  let workloads =
    Array.init 3 (fun pid ->
        [ Classic.Snapshot.update pid (Value.int (pid + 1));
          Classic.Snapshot.scan ])
  in
  (match
     Harness.campaign_supervised ~budget:(expired ()) ~seed:1 ~trials:10
       ~impl ~workloads ()
   with
  | Harness.Stopped { completed = 0; outcome = Supervisor.Deadline } -> ()
  | Harness.Stopped { completed; outcome } ->
    Alcotest.failf "stopped after %d trials with %a" completed
      Supervisor.pp_outcome outcome
  | Harness.All_pass _ | Harness.Failed _ -> Alcotest.fail "expected Stopped");
  match
    Harness.campaign_supervised ~seed:1 ~trials:10 ~impl ~workloads ()
  with
  | Harness.All_pass 10 -> ()
  | _ -> Alcotest.fail "unlimited budget should pass all trials"

(* --- the CLI acceptance property --------------------------------------- *)

let test_cli_interrupt_resume_byte_identical () =
  (* `lbsa solve` interrupted at the first safe point (--deadline 0),
     checkpointed, and resumed must print byte-for-byte what the
     uninterrupted run prints — with chaos riding along on the resume. *)
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let full = Filename.temp_file "lbsa-full" ".txt" in
  let resumed = Filename.temp_file "lbsa-resumed" ".txt" in
  let ckpt = Filename.temp_file "lbsa-solve" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ full; resumed; ckpt ])
    (fun () ->
      let q = Filename.quote in
      let run fmt = Fmt.kstr Sys.command fmt in
      Alcotest.(check int) "uninterrupted run passes" 0
        (run "%s solve dac -n 3 > %s 2>/dev/null" (q exe) (q full));
      Alcotest.(check int) "deadline-0 run is partial" 2
        (run "%s solve dac -n 3 --deadline 0 --checkpoint %s > /dev/null 2>&1"
           (q exe) (q ckpt));
      Alcotest.(check int) "resumed run passes" 0
        (run "%s solve dac -n 3 --resume %s --chaos-seed 11 > %s 2>/dev/null"
           (q exe) (q ckpt) (q resumed));
      Alcotest.(check int) "stdout is byte-for-byte identical" 0
        (run "cmp -s %s %s" (q full) (q resumed)))

(* --- Ctbl under adversarial hashing (satellite 4) ----------------------- *)

let config_of_int i =
  Config.initial ~machine:Machine.trivial_decide_input ~specs:[||]
    ~inputs:[| Value.int i |]

(* A table whose ids resolve through [keys], the array of the
   configurations inserted with those ids. *)
let ctbl_over ?shards keys n = Ctbl.create ?shards ~resolve:(Array.get keys) n

let test_ctbl_all_equal_hashes () =
  (* 200 distinct keys, every one claiming hash 0: the table degrades to
     a probe chain but must stay correct — no livelock, distinct ids,
     hits and misses exact, and the probe telemetry must show that the
     stored-hash shortcut can never dismiss a slot. *)
  let n = 200 in
  let t = ctbl_over (Array.init n config_of_int) 1 in
  for i = 0 to n - 1 do
    let id = Ctbl.find_or_add t (config_of_int i) ~hash:0 ~if_absent:(fun _ -> i) in
    Alcotest.(check int) "fresh insert keeps its id" i id
  done;
  Alcotest.(check int) "all keys distinct" n (Ctbl.length t);
  for i = 0 to n - 1 do
    match Ctbl.find_opt t (config_of_int i) ~hash:0 with
    | Some id when id = i -> ()
    | Some id -> Alcotest.failf "key %d resolved to id %d" i id
    | None -> Alcotest.failf "key %d lost" i
  done;
  Alcotest.(check (option int))
    "miss stays a miss" None
    (Ctbl.find_opt t (config_of_int (n + 777)) ~hash:0);
  let st = Ctbl.probe_stats t in
  Alcotest.(check int)
    "equal hashes can never be dismissed by hash" 0 st.Ctbl.hash_skips;
  if st.Ctbl.equal_confirms < n then
    Alcotest.failf "implausible telemetry: %d structural compares for %d hits"
      st.Ctbl.equal_confirms n;
  if st.Ctbl.probes < st.Ctbl.equal_confirms then
    Alcotest.failf "probe count %d below confirm count %d" st.Ctbl.probes
      st.Ctbl.equal_confirms

let test_ctbl_growth_from_capacity_one () =
  (* Seed the table at capacity 1 and push three orders of magnitude
     through it: growth must preserve every binding and re-insertions at
     capacity must stay idempotent. *)
  let n = 1_000 in
  let t = ctbl_over (Array.init n config_of_int) 1 in
  for i = 0 to n - 1 do
    let c = config_of_int i in
    ignore (Ctbl.find_or_add t c ~hash:(Config.hash c) ~if_absent:(fun _ -> i))
  done;
  Alcotest.(check int) "all inserted across growth" n (Ctbl.length t);
  for i = 0 to n - 1 do
    let c = config_of_int i in
    let id = Ctbl.find_or_add t c ~hash:(Config.hash c) ~if_absent:(fun _ -> -1) in
    Alcotest.(check int) "binding stable across growth" i id
  done;
  Alcotest.(check int) "no phantom entries" n (Ctbl.length t)

(* --- shared configuration state ----------------------------------------- *)

let of_instance n max_rounds =
  ( Obstruction_free.machine_spin ~n ~max_rounds,
    Obstruction_free.specs ~n ~max_rounds,
    Array.init n (fun pid -> Value.int (pid mod 2)) )

(* The object vectors of a graph's nodes, counted twice: as distinct
   values, and as physically distinct arrays. *)
let vector_counts g =
  let module M = Map.Make (struct
    type t = Value.t list

    let compare = List.compare Value.compare
  end) in
  let seen = ref M.empty in
  Cgraph.iter_nodes
    (fun _ (c : Config.t) ->
      let key = Array.to_list c.objects in
      let arrays = Option.value (M.find_opt key !seen) ~default:[] in
      if not (List.memq c.objects arrays) then
        seen := M.add key (c.objects :: arrays) !seen)
    g;
  (M.cardinal !seen, M.fold (fun _ arrays n -> n + List.length arrays) !seen 0)

let check_one_array_per_vector label g ~states ~distinct =
  Alcotest.(check int) (label ^ ": states") states (Cgraph.n_nodes g);
  let values, arrays = vector_counts g in
  Alcotest.(check int) (label ^ ": distinct object vectors") distinct values;
  Alcotest.(check int) (label ^ ": one array per distinct vector") values arrays

(* A build's nodes hold one physical object vector per distinct value:
   steps that leave the objects alone share their parent's vector, and
   registration hands every new node the build's copy of its value. *)
let test_one_vector_per_value () =
  List.iter
    (fun (label, (machine, specs, inputs), states, distinct) ->
      check_one_array_per_vector label
        (Cgraph.build ~domains:1 ~machine ~specs ~inputs ())
        ~states ~distinct)
    [
      ("of:3:1", of_instance 3 1, 5349, 49);
      ("dac:5", dac_instance 5, 4254, 260);
    ]

(* A resumed checkpoint's configurations are decoded afresh, one array
   each; registering the prefix shares them all the same. *)
let test_resumed_vectors_shared () =
  let machine, specs, inputs = dac_instance 5 in
  let partial = Cgraph.build ~domains:1 ~max_states:2000 ~machine ~specs ~inputs () in
  expect_outcome "quota fired" Supervisor.Truncated partial.Cgraph.stop;
  let resume =
    roundtrip_through_disk ~label:"dac5 midway" (Option.get partial.Cgraph.suspended)
  in
  check_one_array_per_vector "dac:5 resumed"
    (Cgraph.build ~domains:1 ~resume ~machine ~specs ~inputs ())
    ~states:4254 ~distinct:260

(* What the of:3:1 nodes keep alive, configurations and values
   together, measured through an exact array of them so the node
   store's spare slots and spine do not count: 50,243 words once object
   vectors are shared (85,957 with one copy per node). *)
let test_node_words () =
  let machine, specs, inputs = of_instance 3 1 in
  let g = Cgraph.build ~domains:1 ~machine ~specs ~inputs () in
  let nodes = Array.init (Cgraph.n_nodes g) (Cgraph.node g) in
  let words = Obj.reachable_words (Obj.repr nodes) in
  if words > 50_243 then
    Alcotest.failf "of:3:1 nodes reach %d words, more than 50243" words

(* --- store shape ------------------------------------------------------------ *)

(* [f] on a spilled build in a fresh directory, removed afterwards. *)
let with_spilled ~threshold ?shards (machine, specs, inputs) f =
  let dir = Filename.temp_file "lbsa-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> Segstore.clean_dir ~dir)
    (fun () ->
      let spill = { Cgraph.spill_dir = dir; spill_threshold = threshold } in
      f (Cgraph.build ~domains:1 ?shards ~spill ~machine ~specs ~inputs ()))

(* A finished store holds at most its length plus one chunk of slots,
   plus its spine: the record, the spine array and a header per chunk.
   For a store of ints the footprint is all the store reaches. *)
let check_store label ~len ~ints store =
  let chunks = (len / Chunks.chunk_len) + 1 in
  let bound = len + Chunks.chunk_len + (2 * chunks) + 6 in
  let words = Chunks.footprint store in
  if words > bound then
    Alcotest.failf "%s: %d words for %d elements, more than %d" label words len
      bound;
  if ints then
    Alcotest.(check int)
      (label ^ ": footprint = reachable words")
      (Obj.reachable_words (Obj.repr store))
      words

let check_graph_stores label g =
  let n = Cgraph.n_nodes g in
  check_store (label ^ " nodes") ~len:n ~ints:false g.Cgraph.nodes;
  check_store (label ^ " offsets") ~len:(n + 1) ~ints:true g.Cgraph.offsets;
  check_store (label ^ " targets") ~len:(Cgraph.n_edges g) ~ints:true
    g.Cgraph.targets

let build_resident (machine, specs, inputs) =
  Cgraph.build ~domains:1 ~machine ~specs ~inputs ()

let test_store_bounds () =
  let g = build_resident (of_instance 3 2) in
  Alcotest.(check (pair int int)) "of:3:2 size" (104_871, 300_706)
    (Cgraph.n_nodes g, Cgraph.n_edges g);
  check_graph_stores "resident of:3:2" g;
  with_spilled ~threshold:1000 (of_instance 3 1) @@ fun g ->
  Alcotest.(check bool) "of:3:1 spilled" true (g.Cgraph.n_base > 0);
  check_graph_stores "spilled of:3:1" g

(* Spilling lets go of every node chunk that lies wholly below
   [n_base]: of:3:2 spilled as [explore] does leaves the chunk holding
   [n_base] as its lowest, and the spilled ids read back through the
   segments. *)
let test_spilled_chunks_released () =
  with_spilled ~threshold:20_000 ~shards:4 (of_instance 3 2) @@ fun g ->
  let n_base = g.Cgraph.n_base in
  Alcotest.(check int) "spilled ids" 86_431 n_base;
  Alcotest.(check int) "lowest node chunk held"
    (n_base / Chunks.chunk_len * Chunks.chunk_len)
    (Chunks.held_from g.Cgraph.nodes);
  let resident = build_resident (of_instance 3 2) in
  List.iter
    (fun id ->
      if not (Config.equal (Cgraph.node g id) (Cgraph.node resident id)) then
        Alcotest.failf "node %d differs after the release" id)
    [ 0; n_base - 1; n_base; Cgraph.n_nodes g - 1 ]

(* Configurations share their arrays, so an analysis that wrote into
   one would change other nodes too: after the analyses have run, the
   graph must still be the oracle's. *)
let test_analyses_leave_nodes_alone () =
  let machine, specs, inputs = dac_instance 3 in
  let g = Cgraph.build ~domains:1 ~machine ~specs ~inputs () in
  ignore (Solvability.dac_progress ~reduce:Cgraph.no_reduction ~machine ~specs g);
  ignore (Solvability.any_cycle g);
  let a = Valence.analyze g in
  ignore (Bivalency.report_critical ~machine ~specs g a);
  ignore (Bivalency.bivalence_maintainable a g);
  ignore (Liveness.analyze ~machine ~specs ~substrate:Substrate.shm g);
  Oracle.same_graph "dac:3 after the analyses" g
    (Oracle.build_cmap ~machine ~specs ~inputs ())

(* --- the sharded dedup table and out-of-core builds ---------------------- *)

(* Reduction modes for the equivalence matrix, built the way the serve
   API builds them (dac's PAC object is inert once upset — the [frozen]
   certification the sleep layer wants). *)
let dac_reductions n =
  let frozen obj st = obj = 0 && Pac.is_upset st in
  [
    Cgraph.no_reduction;
    { Cgraph.rname = "sym"; canon = Canon.dac ~n; sleep = false; frozen = None };
    { Cgraph.rname = "sym+sleep"; canon = Canon.dac ~n; sleep = true;
      frozen = Some frozen };
  ]

(* The tentpole's central property: the dedup shard count changes probe
   routing and growth locality, never the graph.  Node set, edge set
   and verdict are identical across shard counts and reduction modes,
   and agree with the sequential [build_cmap] oracle. *)
let test_sharded_equals_single () =
  let machine, specs, inputs = dac_instance 3 in
  List.iter
    (fun reduce ->
      let oracle = Oracle.build_cmap ~reduce ~machine ~specs ~inputs () in
      let baseline =
        Solvability.check_dac ~domains:1 ~reduce ~shards:1 ~machine ~specs
          ~inputs ()
      in
      List.iter
        (fun shards ->
          let g = Cgraph.build ~reduce ~shards ~machine ~specs ~inputs () in
          Oracle.same_graph
            (Fmt.str "%s shards=%d vs oracle" reduce.Cgraph.rname shards)
            g oracle;
          Alcotest.(check int)
            (Fmt.str "%s shards=%d: stats report the count"
               reduce.Cgraph.rname shards)
            shards (Cgraph.stats g).Cgraph.shards;
          let v =
            Solvability.check_dac ~domains:1 ~reduce ~shards ~machine ~specs
              ~inputs ()
          in
          Alcotest.(check bool)
            (Fmt.str "%s shards=%d: verdict" reduce.Cgraph.rname shards)
            baseline.Solvability.ok v.Solvability.ok;
          expect_outcome
            (Fmt.str "%s shards=%d: outcome" reduce.Cgraph.rname shards)
            baseline.Solvability.outcome v.Solvability.outcome)
        [ 1; 4; 64 ])
    (dac_reductions 3)

(* Adversarial routing: every key carries hash 0, so all of them route
   to shard 0 and collide there.  The hot shard must stay correct and
   grow alone — the 63 idle shards keep their initial capacity. *)
let test_sharded_one_hot_shard () =
  let n = 600 in
  let t = ctbl_over ~shards:64 (Array.init n config_of_int) 1 in
  for i = 0 to n - 1 do
    let id =
      Ctbl.find_or_add t (config_of_int i) ~hash:0
        ~if_absent:(fun _ -> i)
    in
    Alcotest.(check int) (Fmt.str "insert %d keeps its id" i) i id
  done;
  Alcotest.(check int) "all keys distinct" n (Ctbl.length t);
  for i = 0 to n - 1 do
    match Ctbl.find_opt t (config_of_int i) ~hash:0 with
    | Some id -> Alcotest.(check int) (Fmt.str "find %d" i) i id
    | None -> Alcotest.failf "key %d lost" i
  done;
  Alcotest.(check (option int))
    "absent key still missing" None
    (Ctbl.find_opt t (config_of_int (n + 777)) ~hash:0);
  let ss = Ctbl.shard_stats t in
  Alcotest.(check int) "shard 0 holds everything" n ss.(0).Ctbl.ss_size;
  Array.iteri
    (fun i s ->
      if i > 0 then begin
        Alcotest.(check int)
          (Fmt.str "shard %d empty" i) 0 s.Ctbl.ss_size;
        Alcotest.(check int)
          (Fmt.str "shard %d never grew" i)
          16 s.Ctbl.ss_capacity
      end)
    ss

(* Slots hold (hash, id) only, and ids resolve through the caller's
   store wherever it keeps them: here the ids below [limit] come from a
   second ("cold") array of fresh, structurally equal copies, as a
   spilled build's come from its segments.  Lookups stay exact, cold
   hits resolve through the cold array, and re-adding a cold key dedups
   instead of minting a fresh id. *)
let test_sharded_ids_resolve () =
  let n = 100 and limit = 50 in
  let all = Array.init n config_of_int in
  let cold = Array.init limit config_of_int in
  List.iter
    (fun shards ->
      let cold_resolves = ref 0 in
      let resolve id =
        if id < limit then begin
          incr cold_resolves;
          cold.(id)
        end
        else all.(id)
      in
      let t = Ctbl.create ~shards ~resolve 16 in
      for i = 0 to n - 1 do
        ignore
          (Ctbl.find_or_add t all.(i) ~hash:(Config.hash all.(i))
             ~if_absent:(fun _ -> i))
      done;
      Alcotest.(check int)
        (Fmt.str "shards=%d: every key inserted once" shards)
        n (Ctbl.length t);
      cold_resolves := 0;
      for i = 0 to n - 1 do
        match
          Ctbl.find_opt t all.(i) ~hash:(Config.hash all.(i))
        with
        | Some id when id = i -> ()
        | Some id ->
          Alcotest.failf "shards=%d: key %d resolved to %d" shards i id
        | None -> Alcotest.failf "shards=%d: key %d lost" shards i
      done;
      Alcotest.(check bool)
        (Fmt.str "shards=%d: cold hits resolve through the cold array" shards)
        true
        (!cold_resolves >= limit);
      (* re-adding a cold key must dedup, not mint a fresh id *)
      let id =
        Ctbl.find_or_add t all.(0) ~hash:(Config.hash all.(0))
          ~if_absent:(fun _ -> Alcotest.fail "cold key re-added as new")
      in
      Alcotest.(check int) (Fmt.str "shards=%d: dedup survives" shards) 0 id)
    [ 1; 4; 64 ]

(* The walks over every node of a spilled graph: ids in order, the
   resident build's configurations, each segment read once per walk
   (from disk, not from the segment cache), and a search reads no
   segment past its hit. *)
let check_streamed_walks label (g : Cgraph.t) (resident : Cgraph.t) =
  let segs = Option.get g.Cgraph.segs in
  let n = Cgraph.n_nodes g in
  let loads f =
    let before = Segstore.faults segs in
    f ();
    Segstore.faults segs - before
  in
  let next = ref 0 in
  let walk () =
    next := 0;
    Cgraph.iter_nodes
      (fun id config ->
        if id <> !next then Alcotest.failf "%s: walk yields %d for %d" label id !next;
        if not (Config.equal config (Cgraph.node resident id)) then
          Alcotest.failf "%s: node %d differs from the resident build" label id;
        incr next)
      g
  in
  Alcotest.(check int) (label ^ ": walk reads each segment once")
    (Segstore.n_segments segs) (loads walk);
  Alcotest.(check int) (label ^ ": walk yields every id") n !next;
  Alcotest.(check int) (label ^ ": a second walk reads them again")
    (Segstore.n_segments segs) (loads walk);
  (* A failed read is retried before any of its configurations is
     handed on, so the walk still yields every id exactly once; a
     second failure in a row is refused, and counted. *)
  let forced times f =
    Fun.protect ~finally:Rio.unforce (fun () ->
        Rio.force ~times ~site:"segstore.read" ~error:Unix.EIO ();
        f ())
  in
  forced 1 walk;
  Alcotest.(check int) (label ^ ": a retried read yields every id once") n !next;
  let refusals = Segstore.corrupt_count segs in
  forced 2 (fun () ->
      match walk () with
      | () -> Alcotest.failf "%s: two failed reads in a row were not refused" label
      | exception Segstore.Corrupt _ -> ());
  Alcotest.(check int) (label ^ ": the refusal is counted") (refusals + 1)
    (Segstore.corrupt_count segs);
  let find target () =
    Alcotest.(check (option int)) (Fmt.str "%s: find_node %d" label target)
      (Some target)
      (Cgraph.find_node g (fun id _ -> id = target))
  in
  Alcotest.(check int) (label ^ ": a hit in the first segment reads only it")
    1 (loads (find 0));
  Alcotest.(check int) (label ^ ": a resident hit reads every segment")
    (Segstore.n_segments segs) (loads (find (n - 1)))

(* Out-of-core builds: an aggressively tiny threshold forces many
   spill waves on dac:3, and the graph must stay bit-identical to the
   resident one, for every shard count and reduction mode.  The
   reference is the seed explorer, whose events come from its own BFS:
   a spilled graph re-derives each edge's event from its faulted-in
   source node, so comparing it with another [Graph.build] would check
   one re-derivation against another.  [Oracle.same_graph] reads every
   node and edge of the spilled graph, so it also exercises fault-in;
   [check_streamed_walks] the walks that stream it instead. *)
let test_spill_build_equivalence () =
  let machine, specs, inputs = dac_instance 3 in
  let dir = Filename.temp_file "lbsa-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> Segstore.clean_dir ~dir)
    (fun () ->
      List.iter
        (fun reduce ->
          let oracle = Oracle.build_cmap ~reduce ~machine ~specs ~inputs () in
          let resident = Cgraph.build ~reduce ~machine ~specs ~inputs () in
          List.iter
            (fun shards ->
              let spill =
                { Cgraph.spill_dir = dir; spill_threshold = 20 }
              in
              let g =
                Cgraph.build ~reduce ~shards ~spill ~machine ~specs ~inputs ()
              in
              let label =
                Fmt.str "spilled %s shards=%d" reduce.Cgraph.rname shards
              in
              let sp = (Cgraph.stats g).Cgraph.spill in
              Alcotest.(check bool)
                (label ^ ": spill engaged") true
                (sp.Cgraph.sp_segments > 0 && sp.Cgraph.sp_bytes > 0);
              Alcotest.(check bool)
                (label ^ ": dedup keys went cold") true
                (sp.Cgraph.sp_frozen > 0);
              check_streamed_walks label g resident;
              Oracle.same_graph label g oracle)
            [ 1; 4 ])
        (dac_reductions 3);
      (* path-based cleanup drops the segment files and the directory *)
      Segstore.clean_dir ~dir;
      Alcotest.(check bool)
        "spill dir fully cleaned" false (Sys.file_exists dir))

(* Interrupting a spilled build, checkpointing it, and resuming yields
   the uninterrupted graph, events included (checked against the seed
   explorer's own): the suspended state is materialized out of the
   segments, its configurations encoded with their value dictionaries
   and re-interned on load, its packed steps written as plain ints. *)
let test_spill_checkpoint_resume () =
  let machine, specs, inputs = dac_instance 3 in
  let full = Oracle.build_cmap ~machine ~specs ~inputs () in
  let dir = Filename.temp_file "lbsa-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> Segstore.clean_dir ~dir)
    (fun () ->
      let spill = { Cgraph.spill_dir = dir; spill_threshold = 20 } in
      let partial =
        Cgraph.build ~max_states:100 ~spill ~machine ~specs ~inputs ()
      in
      expect_outcome "quota fired mid-spill" Supervisor.Truncated
        partial.Cgraph.stop;
      Alcotest.(check bool)
        "the partial build really spilled" true
        ((Cgraph.stats partial).Cgraph.spill.Cgraph.sp_segments > 0);
      let s = Option.get partial.Cgraph.suspended in
      let resumed =
        Cgraph.build
          ~resume:(roundtrip_through_disk ~label:"dac3 spilled midway" s)
          ~machine ~specs ~inputs ()
      in
      Oracle.same_graph "spilled interrupt/resume = uninterrupted" resumed full;
      (* and resuming back INTO a spilled build also agrees *)
      let resumed_spilled =
        Cgraph.build ~spill ~shards:4
          ~resume:(Option.get partial.Cgraph.suspended)
          ~machine ~specs ~inputs ()
      in
      Oracle.same_graph "resume into a spilled sharded build" resumed_spilled
        full)

(* --- the edge store: events re-derived from packed steps ----------------- *)

(* A quota-stopped graph re-derives the events of its expanded prefix
   exactly as the seed explorer recorded them, under every reduction
   mode, and its unexpanded frontier has no out-edges: expanding those
   nodes would report edges the build never took. *)
let test_partial_graph_edges () =
  let machine, specs, inputs = dac_instance 3 in
  List.iter
    (fun reduce ->
      let oracle = Oracle.build_cmap ~reduce ~machine ~specs ~inputs () in
      let max_states = Array.length oracle.Oracle.nodes / 2 in
      let g = Cgraph.build ~max_states ~reduce ~machine ~specs ~inputs () in
      let label = Fmt.str "%s, max_states %d" reduce.Cgraph.rname max_states in
      expect_outcome label Supervisor.Truncated g.Cgraph.stop;
      Alcotest.(check bool)
        (label ^ ": a frontier is left") true
        (g.Cgraph.expanded < Cgraph.n_nodes g);
      for u = 0 to Cgraph.n_nodes g - 1 do
        let expect =
          if u < g.Cgraph.expanded then oracle.Oracle.out.(u) else []
        in
        if Cgraph.out_edges g u <> expect then
          Alcotest.failf "%s: out-edges of node %d differ" label u
      done)
    (dac_reductions 3)

(* The stored steps and their re-derivation must agree.  A resumed
   prefix whose steps were tampered with (two targets swapped, a pid
   changed, a slice boundary moved) makes [out_edges] raise instead of
   pairing a step with the wrong event. *)
let test_tampered_steps_refused () =
  let machine, specs, inputs = dac_instance 3 in
  let partial = Cgraph.build ~max_states:40 ~machine ~specs ~inputs () in
  let s = Option.get partial.Cgraph.suspended in
  let resume ~targets ~offsets =
    Cgraph.build ~machine ~specs ~inputs ()
      ~resume:
        (Cgraph.suspended_of_parts ~nodes:s.Cgraph.s_nodes
           ~expanded:s.Cgraph.s_expanded ~targets ~offsets
           ~dedup_hits:s.Cgraph.s_dedup_hits ~n_succs:s.Cgraph.s_n_succs
           ~frontier_sizes:s.Cgraph.s_frontier_sizes
           ~reduction:s.Cgraph.s_reduction ~substrate:s.Cgraph.s_substrate
           ~canonized:s.Cgraph.s_canonized ~ample_nodes:s.Cgraph.s_ample_nodes
           ~ample_pruned:s.Cgraph.s_ample_pruned)
  in
  let step ~pid ~target = (target lsl 8) lor pid in
  let pid i = s.Cgraph.s_targets.(i) land 0xff
  and target i = s.Cgraph.s_targets.(i) lsr 8 in
  Alcotest.(check bool)
    "node 0 has two steps to distinct targets" true
    (s.Cgraph.s_offsets.(1) >= 2 && target 0 <> target 1);
  let oracle = Oracle.build_cmap ~machine ~specs ~inputs () in
  Alcotest.(check bool)
    "untampered: node 0's edges re-derive" true
    (Cgraph.out_edges
       (resume ~targets:s.Cgraph.s_targets ~offsets:s.Cgraph.s_offsets)
       0
    = oracle.Oracle.out.(0));
  let tampered what ~targets ~offsets =
    match Cgraph.out_edges (resume ~targets ~offsets) 0 with
    | exception Failure msg ->
      Alcotest.(check bool)
        (what ^ ": refusal names the node") true
        (contains_sub ~sub:"node 0" msg)
    | _ -> Alcotest.failf "%s: out-edges re-derived anyway" what
  in
  let with_steps edits =
    let t = Array.copy s.Cgraph.s_targets in
    List.iter (fun (i, v) -> t.(i) <- v) edits;
    t
  in
  tampered "targets swapped" ~offsets:s.Cgraph.s_offsets
    ~targets:
      (with_steps
         [ (0, step ~pid:(pid 0) ~target:(target 1));
           (1, step ~pid:(pid 1) ~target:(target 0)) ]);
  tampered "pid changed" ~offsets:s.Cgraph.s_offsets
    ~targets:
      (with_steps [ (0, step ~pid:((pid 0 + 1) mod 3) ~target:(target 0)) ]);
  let offsets = Array.copy s.Cgraph.s_offsets in
  offsets.(1) <- offsets.(1) - 1;
  tampered "slice shortened" ~targets:s.Cgraph.s_targets ~offsets;
  (* a step past the last node is refused before any build starts *)
  let past = Array.length s.Cgraph.s_nodes in
  match
    resume ~offsets:s.Cgraph.s_offsets
      ~targets:(with_steps [ (0, step ~pid:(pid 0) ~target:past) ])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a step past the last node was accepted"

(* The compatibility rule: a coherent checkpoint from an older format
   version raises [Version_mismatch], never [Failure] and never a
   misread, and the CLI refuses it with exit 2.  Version 4 is the last
   format whose payloads were marshalled, version 5 the last that
   stored every edge's event, version 6 the last that wrote every
   configuration's object vector in full. *)
let test_checkpoint_old_versions_refused () =
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      List.iter
        (fun v ->
          let header = Fmt.str "LBSA-CHECKPOINT/%d" v in
          write_file file (header ^ "\nwhatever the old format held");
          match Checkpoint.load ~file with
          | exception Checkpoint.Version_mismatch msg ->
            Alcotest.(check bool)
              "names the found version" true (contains_sub ~sub:header msg)
          | exception Failure msg ->
            Alcotest.failf "old version reported as plain failure: %s" msg
          | _ -> Alcotest.failf "version-%d checkpoint accepted" v)
        [ 2; 4; 5; 6 ];
      let exe =
        Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))
      in
      Alcotest.(check int)
        "the CLI refuses a version-6 checkpoint with exit 2" 2
        (Sys.command
           (Fmt.str "%s solve dac -n 3 --resume %s > /dev/null 2>&1"
              (Filename.quote exe) (Filename.quote file))))

(* A well-formed LBSA-SEG/3 segment (one configuration, its object
   vector written in full) in place of a spilled one: both read-backs
   refuse it by its magic line, as [Corrupt], and count the refusals. *)
let test_old_segment_refused () =
  with_temp_dir (fun dir ->
      let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
      let g = Cgraph.build ~machine ~specs ~inputs:[| Value.int 0; Value.int 1 |] () in
      let t = Segstore.create ~dir in
      Segstore.write_segment t ~lo:0 ~hi:1 (Cgraph.node g);
      let p = Buffer.create 16 in
      let count = Codec.count.put p and int = Codec.int.put p in
      int 0;  (* lo *)
      count 1; int 2; int 0;  (* the value table: Int 0 *)
      count 1;  (* one configuration: *)
      count 1; int 0;  (* its locals, *)
      count 1; int 0;  (* its objects *)
      count 1; int 0;  (* and its statuses *)
      let b = Buffer.create 64 in
      Buffer.add_string b "LBSA-SEG/3\n";
      Codec.write_section (Buffer.add_string b) ~tag:"SEGNODES" (Buffer.contents p);
      (match Array.to_list (Sys.readdir dir) with
      | [ f ] -> write_file (Filename.concat dir f) (Buffer.contents b)
      | l -> Alcotest.failf "expected one segment file, got %d" (List.length l));
      let refused f =
        match f () with
        | () -> Alcotest.fail "an LBSA-SEG/3 segment was read"
        | exception Segstore.Corrupt msg ->
          Alcotest.(check bool)
            (Fmt.str "%S names the magic" msg)
            true
            (contains_sub ~sub:"is not a segment file" msg)
      in
      refused (fun () -> ignore (Segstore.node t 0));
      refused (fun () -> ignore (Segstore.find_map t (fun _ _ -> None)));
      Alcotest.(check int) "both refusals counted" 2 (Segstore.corrupt_count t))

(* Checkpoint bytes depend only on the exploration: two saves agree
   byte for byte even when 1,000 unrelated values were interned in
   between (shifting every later intern id), and so does a save of the
   loaded, re-interned copy. *)
let prop_checkpoint_bytes_stable =
  let machine, specs, inputs = dac_instance 3 in
  QCheck.Test.make ~count:10 ~name:"two saves of one exploration are byte-identical"
    QCheck.(pair (int_range 1 150) small_nat)
    (fun (max_states, salt) ->
      let partial = Cgraph.build ~max_states ~machine ~specs ~inputs () in
      match partial.Cgraph.suspended with
      | None -> true
      | Some s ->
        with_temp ".ckpt" (fun file ->
            let save s =
              Checkpoint.save ~file (Checkpoint.freeze ~label:"stable" s);
              read_file file
            in
            let first = save s in
            for i = 1 to 1_000 do
              ignore (Value.pair (Value.int (7_000_000 + (salt * 1_000) + i), Value.sym "junk"))
            done;
            let second = save s in
            let reloaded = save (Checkpoint.thaw (Checkpoint.load ~file)) in
            first = second && first = reloaded))

let () =
  Alcotest.run "supervisor"
    [
      ( "outcomes",
        [
          Alcotest.test_case "state quota yields a partial verdict" `Quick
            test_truncation_is_partial_verdict;
          Alcotest.test_case "deadline yields a partial verdict" `Quick
            test_deadline_is_partial_verdict;
          Alcotest.test_case "zero deadline is expired at its first poll"
            `Quick test_zero_deadline_expired_at_first_poll;
          Alcotest.test_case "cancellation wins over the deadline" `Quick
            test_cancellation_is_partial_verdict;
          Alcotest.test_case "SIGINT routes into the token" `Quick
            test_sigint_routes_to_token;
        ] );
      ( "fault isolation",
        [
          Alcotest.test_case "raising machine is contained" `Quick
            test_graph_isolates_raising_machine;
          Alcotest.test_case "a failing level is abandoned whole" `Quick
            test_failing_level_abandoned_whole;
          Alcotest.test_case "raising checker no longer aborts the sweep"
            `Quick test_sweep_survives_raising_checker;
          Alcotest.test_case "run_shard retry discipline" `Quick
            test_run_shard_retries_then_fails;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "injected failures never change results" `Quick
            test_chaos_preserves_graph_and_verdict;
          Alcotest.test_case "injected failures never change fuzz campaigns"
            `Quick test_chaos_preserves_fuzz_campaigns;
          Alcotest.test_case "first_hit is a sequential scan" `Quick
            test_first_hit_is_a_sequential_scan;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume from a deadline-0 checkpoint" `Quick
            test_resume_from_deadline_checkpoint;
          Alcotest.test_case "resume from a midway checkpoint" `Quick
            test_resume_from_midway_checkpoint;
          Alcotest.test_case "foreign files rejected" `Quick
            test_checkpoint_rejects_foreign_files;
        ] );
      ( "fuzz budgets",
        [
          Alcotest.test_case "fan stops on budget and resumes" `Quick
            test_fan_budget_stops_and_resumes;
          Alcotest.test_case "fuzz checkpoint roundtrip" `Quick
            test_fuzz_checkpoint_roundtrip;
          Alcotest.test_case "resume keeps a failure already found" `Quick
            test_resume_keeps_found_failure;
          Alcotest.test_case "shrink budget 0 reports no shrink" `Quick
            test_shrink_budget_zero_reports_no_shrink;
          Alcotest.test_case "campaign_supervised stops cleanly" `Quick
            test_campaign_supervised_stops;
        ] );
      ( "damage sweep",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Quick f)
          damage_sweep );
      ( "cli",
        [
          Alcotest.test_case "interrupt/resume is byte-identical" `Quick
            test_cli_interrupt_resume_byte_identical;
        ] );
      ( "shared state",
        [
          Alcotest.test_case "one array per distinct object vector" `Quick
            test_one_vector_per_value;
          Alcotest.test_case "resumed prefix shares its vectors" `Quick
            test_resumed_vectors_shared;
          Alcotest.test_case "of:3:1 node words" `Quick test_node_words;
          Alcotest.test_case "analyses leave the nodes alone" `Quick
            test_analyses_leave_nodes_alone;
        ] );
      ( "store shape",
        [
          Alcotest.test_case "at most one chunk beyond the length" `Quick
            test_store_bounds;
          Alcotest.test_case "spilled node chunks are released" `Quick
            test_spilled_chunks_released;
        ] );
      ( "ctbl adversarial",
        [
          Alcotest.test_case "all-equal-hash collisions" `Quick
            test_ctbl_all_equal_hashes;
          Alcotest.test_case "growth from capacity one" `Quick
            test_ctbl_growth_from_capacity_one;
        ] );
      ( "out of core",
        [
          Alcotest.test_case "sharded = single-table, any shard count" `Quick
            test_sharded_equals_single;
          Alcotest.test_case "adversarial one-hot shard routing" `Quick
            test_sharded_one_hot_shard;
          Alcotest.test_case "ids resolve through the store" `Quick
            test_sharded_ids_resolve;
          Alcotest.test_case "spilled build = resident build" `Quick
            test_spill_build_equivalence;
          Alcotest.test_case "spill + checkpoint + resume" `Quick
            test_spill_checkpoint_resume;
          Alcotest.test_case "partial graph: prefix re-derives, frontier bare"
            `Quick test_partial_graph_edges;
          Alcotest.test_case "tampered steps refused, never re-derived"
            `Quick test_tampered_steps_refused;
          Alcotest.test_case "older checkpoint versions refused"
            `Quick test_checkpoint_old_versions_refused;
          QCheck_alcotest.to_alcotest prop_checkpoint_bytes_stable;
          Alcotest.test_case "an LBSA-SEG/3 segment refused" `Quick
            test_old_segment_refused;
        ] );
    ]
