(* Execution substrates and fairness-aware liveness: the view-change
   livelock fixture and its broadcast control, an independent
   brute-force fair-lasso oracle cross-checked on randomized
   message-passing machines, verdict stability across reduction modes
   and domain counts, lasso shrinking, shm bit-compatibility with the
   pre-substrate explorer, and the checkpoint substrate guard. *)

open Lbsa

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let mp = Substrate.mp ()

let vc n =
  (View_change.machine ~n, View_change.specs ~n (), View_change.inputs ~n)

let bcast n =
  ( View_change.bcast_machine ~n,
    View_change.bcast_specs ~n (),
    View_change.inputs ~n )

let build ?max_states ?(domains = 1) ~substrate (machine, specs, inputs) =
  Cgraph.build ?max_states ~domains ~substrate ~machine ~specs ~inputs ()

let analyze ~substrate (machine, specs, _) g =
  Liveness.analyze ~machine ~specs ~substrate g

let validate ~substrate (machine, specs, _) g w =
  Liveness.validate ~machine ~specs ~substrate g w

let shrink ~substrate (machine, specs, _) ~graph w =
  Lasso.shrink ~machine ~specs ~substrate ~graph w

(* --- the fixtures -------------------------------------------------------- *)

let test_vc_livelock () =
  let inst = vc 2 in
  let g = build ~substrate:mp inst in
  Alcotest.(check int) "vc:2 state count" 26 (Cgraph.n_nodes g);
  let r = analyze ~substrate:mp inst g in
  Alcotest.(check int) "one fair SCC" 1 r.Liveness.fair_sccs;
  match r.Liveness.verdict with
  | Liveness.Live -> Alcotest.fail "split-vote livelock not detected"
  | Liveness.Livelock w ->
    Alcotest.(check bool)
      "witness validates" true
      (validate ~substrate:mp inst g w);
    Alcotest.(check (list int))
      "cycle schedules both survivors" [ 0; 1 ] (Liveness.witness_pids w)

let test_vc_lasso_shrinks () =
  let inst = vc 2 in
  let g = build ~substrate:mp inst in
  match (analyze ~substrate:mp inst g).Liveness.verdict with
  | Liveness.Live -> Alcotest.fail "expected a livelock"
  | Liveness.Livelock w0 ->
    let w, _ = shrink ~substrate:mp inst ~graph:g w0 in
    Alcotest.(check bool)
      "shrunk witness validates" true
      (validate ~substrate:mp inst g w);
    Alcotest.(check bool)
      "shrinking never grows" true
      (Lasso.size w <= Lasso.size w0);
    (* The vc:2 lasso shape is pinned: CI byte-compares the rendered
       witness, so a silent change here must be deliberate. *)
    Alcotest.(check int) "prefix length" 5 (List.length w.Liveness.w_prefix);
    Alcotest.(check int) "cycle length" 2 (List.length w.Liveness.w_cycle);
    let w2, accepted = shrink ~substrate:mp inst ~graph:g w in
    Alcotest.(check int) "second shrink finds nothing" 0 accepted;
    Alcotest.(check int) "idempotent size" (Lasso.size w) (Lasso.size w2)

let test_bcast_live () =
  let inst = bcast 2 in
  let g = build ~substrate:mp inst in
  let r = analyze ~substrate:mp inst g in
  Alcotest.(check int) "no fair SCC" 0 r.Liveness.fair_sccs;
  match r.Liveness.verdict with
  | Liveness.Live -> ()
  | Liveness.Livelock _ -> Alcotest.fail "broadcast control is live"

(* --- brute-force oracle -------------------------------------------------- *)

(* Independent fair-lasso decision procedure: a livelock exists iff
   some node [h] lies on a closed walk that avoids every configuration
   enabling a mandatory action and schedules every process running at
   [h].  Decided by explicit BFS over the product (node, subset of
   running pids already scheduled) per candidate head — exponential in
   processes, fine for the toy instances here, and structurally
   unrelated to the masked-Tarjan pass it cross-checks.  Returns the
   smallest such head: the accepted nodes are exactly the members of
   the fair SCCs, so it is the smallest fair SCC head, the one
   [Liveness.analyze] must report. *)
let brute_force_livelock ~(substrate : Substrate.t) (machine, specs, _) g =
  let n = Cgraph.n_nodes g in
  let bad =
    Array.init n (fun u ->
        let c = Cgraph.node g u in
        List.exists
          (fun pid -> substrate.Substrate.mandatory_exit ~machine ~specs c pid)
          (Config.running c))
  in
  let from_head h =
    (not bad.(h))
    &&
    let running = Config.running (Cgraph.node g h) in
    running <> []
    &&
    let bit pid =
      let rec idx i = function
        | [] -> -1
        | p :: _ when p = pid -> i
        | _ :: tl -> idx (i + 1) tl
      in
      idx 0 running
    in
    let full = (1 lsl List.length running) - 1 in
    let seen = Hashtbl.create 64 in
    let q = Queue.create () in
    Queue.add (h, 0) q;
    Hashtbl.replace seen (h, 0) ();
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u, mask = Queue.pop q in
      List.iter
        (fun e ->
          let v = e.Cgraph.target in
          if not bad.(v) then begin
            let mask' =
              match bit e.Cgraph.pid with
              | -1 -> mask
              | b -> mask lor (1 lsl b)
            in
            if v = h && mask' = full then found := true
            else if not (Hashtbl.mem seen (v, mask')) then begin
              Hashtbl.replace seen (v, mask') ();
              Queue.add (v, mask') q
            end
          end)
        (Cgraph.out_edges g u)
    done;
    !found
  in
  let rec first h =
    if h >= n then None else if from_head h then Some h else first (h + 1)
  in
  first 0

let check_against_oracle label ~substrate inst g =
  let r = analyze ~substrate inst g in
  let brute = brute_force_livelock ~substrate inst g in
  let head =
    match r.Liveness.verdict with
    | Liveness.Livelock w -> Some w.Liveness.w_head
    | Liveness.Live -> None
  in
  Alcotest.(check bool)
    (label ^ ": analyze agrees with brute force")
    (brute <> None) (head <> None);
  Alcotest.(check (option int))
    (label ^ ": witness head is the smallest fair head")
    brute head;
  match r.Liveness.verdict with
  | Liveness.Live -> ()
  | Liveness.Livelock w ->
    Alcotest.(check bool)
      (label ^ ": witness validates")
      true
      (validate ~substrate inst g w);
    let w', _ = shrink ~substrate inst ~graph:g w in
    Alcotest.(check bool)
      (label ^ ": shrunk witness validates")
      true
      (validate ~substrate inst g w')

let test_oracle_fixtures () =
  List.iter
    (fun (label, inst) ->
      check_against_oracle label ~substrate:mp inst (build ~substrate:mp inst))
    [ ("vc:2", vc 2); ("bcast:1", bcast 1); ("bcast:2", bcast 2) ]

(* A random finite-state mp machine: [k] control states per process,
   each (pid, state) pair assigned one action — send a random type,
   poll a random type against a random threshold, receive with a
   timeout and two branch targets, or decide.  The saturating network
   counters keep every instance finite; the table is a pure function of
   the seed. *)
let random_mp_instance ~seed ~n =
  let prng = Prng.create seed in
  let types = [ "a"; "b" ] in
  let k = 3 in
  let table =
    Array.init n (fun _ ->
        Array.init k (fun _ ->
            match Prng.int prng 4 with
            | 0 -> `Send (Prng.pick prng types, Prng.int prng k)
            | 1 -> `Poll (Prng.pick prng types, 1 + Prng.int prng 2, Prng.int prng k)
            | 2 -> `Recv (Prng.pick prng types, Prng.int prng k, Prng.int prng k)
            | _ -> `Decide))
  in
  let name = Fmt.str "random-mp:%d" seed in
  let init ~pid:_ ~input:_ = Value.int 0 in
  let net = 0 in
  let delta ~pid state =
    match table.(pid).(Value.to_int_exn state) with
    | `Send (t, j) ->
      Machine.invoke net (Substrate.send t) (fun _ -> Value.int j)
    | `Poll (t, thresh, j) ->
      Machine.invoke net (Substrate.recv ~pid [ t ]) (fun r ->
          match Value.node r with
          | Value.Pair (_, cnt) when Value.to_int_exn cnt >= thresh ->
            Value.int j
          | _ -> state)
    | `Recv (t, j_msg, j_timeout) ->
      Machine.invoke net (Substrate.recv ~pid ~timeout:true [ t ]) (fun r ->
          match Value.node r with
          | Value.Pair _ -> Value.int j_msg
          | Value.Sym _ -> Value.int j_timeout
          | _ -> state)
    | `Decide -> Machine.Decide (Value.int pid)
  in
  let machine = Machine.make ~name ~init ~delta in
  let specs = [| Substrate.network_spec ~cap:2 ~n ~types () |] in
  (machine, specs, Array.make n Value.unit_)

let test_oracle_randomized () =
  let livelocks = ref 0 and lives = ref 0 in
  for seed = 0 to 19 do
    let inst = random_mp_instance ~seed ~n:2 in
    let g = build ~max_states:50_000 ~substrate:mp inst in
    Alcotest.(check bool)
      (Fmt.str "seed %d explored completely" seed)
      true
      (g.Cgraph.stop = Supervisor.Done);
    check_against_oracle (Fmt.str "seed %d" seed) ~substrate:mp inst g;
    match (analyze ~substrate:mp inst g).Liveness.verdict with
    | Liveness.Livelock _ -> incr livelocks
    | Liveness.Live -> incr lives
  done;
  (* the family must exercise both answers or the cross-check is
     vacuous; the counts are seed-determined, so this cannot flake *)
  Alcotest.(check bool) "some livelocks found" true (!livelocks > 0);
  Alcotest.(check bool) "some live instances found" true (!lives > 0)

(* --- Liveness.validate refusals ------------------------------------------ *)

let mandatory ~(substrate : Substrate.t) (machine, specs, _) c =
  List.exists
    (fun pid -> substrate.Substrate.mandatory_exit ~machine ~specs c pid)
    (Config.running c)

(* The fixtures and the random family, each with its graph. *)
let instance_graphs () =
  List.map
    (fun inst -> (inst, build ~max_states:50_000 ~substrate:mp inst))
    (vc 2 :: vc 3 :: List.init 20 (fun seed -> random_mp_instance ~seed ~n:2))

(* Each of three broken witnesses comes from the first instance that
   has one, and [validate] must refuse it:
   (a) a cycle that does not close — a shrunk lasso's cycle cut after
       its first step off the head;
   (b) a closed walk that drops a running process — a self-loop of one
       process at a configuration where another one runs and no
       mandatory action is enabled;
   (c) a cycle through a mandatory-exit node — vc:2's shrunk lasso
       under a substrate that makes a configuration on its cycle enable
       a mandatory action. *)
let test_validate_rejects_broken_witnesses () =
  let graphs = instance_graphs () in
  let first what f =
    match List.find_map (fun (inst, g) -> f inst g) graphs with
    | Some found -> found
    | None -> Alcotest.failf "no instance has %s" what
  in
  let shrunk inst g =
    match (analyze ~substrate:mp inst g).Liveness.verdict with
    | Liveness.Livelock w -> Some (fst (shrink ~substrate:mp inst ~graph:g w))
    | Liveness.Live -> None
  in
  let open_cycle inst g =
    Option.bind (shrunk inst g) (fun w ->
        let rec upto acc = function
          | [] -> None
          | (e : Cgraph.edge) :: rest ->
            if e.target <> w.Liveness.w_head then Some (List.rev (e :: acc))
            else upto (e :: acc) rest
        in
        Option.map
          (fun cycle -> (inst, g, { w with Liveness.w_cycle = cycle }))
          (upto [] w.Liveness.w_cycle))
  in
  let one_process_loop inst g =
    Cgraph.find_map_node g (fun h c ->
        if mandatory ~substrate:mp inst c || List.length (Config.running c) < 2
        then None
        else
          List.find_map
            (fun (e : Cgraph.edge) ->
              if e.target <> h then None
              else
                Some
                  ( inst,
                    g,
                    {
                      Liveness.w_head = h;
                      w_prefix = Option.get (Cgraph.shortest_path g ~target:h);
                      w_cycle = [ e ];
                    } ))
            (Cgraph.out_edges g h))
  in
  List.iter
    (fun (what, (inst, g, w)) ->
      Alcotest.(check bool) (what ^ " is rejected") false
        (validate ~substrate:mp inst g w))
    [
      ("a cycle that does not close", first "an open cycle" open_cycle);
      ( "a cycle that drops a running pid",
        first "a one-process loop" one_process_loop );
    ];
  let inst, g = List.hd graphs in
  let w = Option.get (shrunk inst g) in
  Alcotest.(check bool)
    "vc:2's shrunk witness validates" true
    (validate ~substrate:mp inst g w);
  let marked = Cgraph.node g (List.hd w.Liveness.w_cycle).Cgraph.target in
  let substrate =
    {
      mp with
      Substrate.mandatory_exit =
        (fun ~machine ~specs c pid ->
          Config.equal c marked
          || mp.Substrate.mandatory_exit ~machine ~specs c pid);
    }
  in
  Alcotest.(check bool)
    "a cycle through a mandatory-exit node is rejected" false
    (validate ~substrate inst g w)

(* --- verdict stability --------------------------------------------------- *)

(* As on the safety side, reduced graphs may have fewer configurations
   (commit flushing prunes pre-decide interleavings), so node counts
   differ across --reduce modes — but the verdict, the fair-SCC count,
   the lasso shape and the exit code must not.  Exercised through the
   full serve pipeline. *)
let test_reduce_modes_agree () =
  List.iter
    (fun task ->
      let answers =
        List.map
          (fun reduce ->
            let q =
              Serve_api.Verify
                {
                  task;
                  question = Serve_api.Live;
                  inputs = Serve_api.default_inputs task;
                  max_states = 200_000;
                  reduce;
                  substrate = "mp";
                }
            in
            (Serve_api.compute q).Serve_api.res)
          [ `None; `Sym; `Sym_sleep ]
      in
      let payload = function
        | Serve_api.Liveness_report p -> p
        | _ -> Alcotest.fail "live question answered with a non-live result"
      in
      match List.map payload answers with
      | p0 :: rest ->
        let label = Serve_api.task_label task in
        List.iteri
          (fun i p ->
            let l = Fmt.str "%s mode %d" label (i + 1) in
            Alcotest.(check bool)
              (l ^ ": verdict agrees") p0.Serve_api.lv_live p.Serve_api.lv_live;
            Alcotest.(check int)
              (l ^ ": fair SCC count agrees")
              p0.Serve_api.lv_fair p.Serve_api.lv_fair;
            Alcotest.(check int)
              (l ^ ": lasso prefix agrees")
              p0.Serve_api.lv_prefix p.Serve_api.lv_prefix;
            Alcotest.(check int)
              (l ^ ": lasso cycle agrees")
              p0.Serve_api.lv_cycle p.Serve_api.lv_cycle)
          rest;
        let codes = List.map Serve_api.exit_code answers in
        List.iter
          (fun c ->
            Alcotest.(check int)
              (label ^ ": exit code agrees") (List.hd codes) c)
          codes
      | [] -> ())
    [ Serve_api.Vc { n = 2 }; Serve_api.Bcast { n = 2 } ]

(* The explorer is domain-count-deterministic, so the whole liveness
   answer — counts and the unshrunk witness — is too. *)
let test_domains_agree () =
  let inst = vc 2 in
  let reports =
    List.map
      (fun domains ->
        let g = build ~domains ~substrate:mp inst in
        (g, analyze ~substrate:mp inst g))
      [ 1; 2; 4 ]
  in
  match reports with
  | (_, r0) :: rest ->
    let w0 =
      match r0.Liveness.verdict with
      | Liveness.Livelock w -> Fmt.str "%a" Liveness.pp_witness w
      | Liveness.Live -> Alcotest.fail "expected a livelock"
    in
    List.iter
      (fun (_, r) ->
        Alcotest.(check int) "sccs agree" r0.Liveness.sccs r.Liveness.sccs;
        Alcotest.(check int)
          "fair sccs agree" r0.Liveness.fair_sccs r.Liveness.fair_sccs;
        match r.Liveness.verdict with
        | Liveness.Livelock w ->
          Alcotest.(check string)
            "witness identical across domain counts" w0
            (Fmt.str "%a" Liveness.pp_witness w)
        | Liveness.Live -> Alcotest.fail "verdict flipped across domains")
      rest
  | [] -> ()

(* --- shm bit-compatibility ----------------------------------------------- *)

(* Selecting the shm substrate explicitly must reproduce the
   pre-substrate explorer bit-for-bit: same node ids, same edges, same
   stats, same solvability verdict. *)
let test_shm_bit_compatible () =
  let machine = Dac_from_pac.machine ~n:3 and specs = Dac_from_pac.specs ~n:3 in
  let inputs = [| Value.int 1; Value.int 0; Value.int 0 |] in
  let g_default = Cgraph.build ~domains:1 ~machine ~specs ~inputs () in
  let g_shm =
    Cgraph.build ~domains:1 ~substrate:Substrate.shm ~machine ~specs ~inputs ()
  in
  Alcotest.(check int)
    "node count" (Cgraph.n_nodes g_default) (Cgraph.n_nodes g_shm);
  Alcotest.(check int)
    "edge count" (Cgraph.n_edges g_default) (Cgraph.n_edges g_shm);
  for u = 0 to Cgraph.n_nodes g_default - 1 do
    if not (Config.equal (Cgraph.node g_default u) (Cgraph.node g_shm u)) then
      Alcotest.failf "node %d differs under explicit shm" u;
    let es1 = Cgraph.out_edges g_default u in
    let es2 = Cgraph.out_edges g_shm u in
    if
      List.length es1 <> List.length es2
      || not
           (List.for_all2
              (fun a b ->
                a.Cgraph.pid = b.Cgraph.pid && a.Cgraph.target = b.Cgraph.target)
              es1 es2)
    then Alcotest.failf "edges of node %d differ under explicit shm" u
  done;
  let v_default = Solvability.check_dac ~domains:1 ~machine ~specs ~inputs () in
  let v_shm =
    Solvability.check_dac ~domains:1 ~substrate:Substrate.shm ~machine ~specs
      ~inputs ()
  in
  Alcotest.(check bool)
    "solvability verdict" v_default.Solvability.ok v_shm.Solvability.ok

(* --- the checkpoint substrate guard -------------------------------------- *)

let truncated_vc_suspended () =
  let machine, specs, inputs = vc 2 in
  let partial =
    Cgraph.build ~max_states:10 ~domains:1 ~substrate:mp ~machine ~specs
      ~inputs ()
  in
  (match partial.Cgraph.stop with
  | Supervisor.Truncated -> ()
  | o -> Alcotest.failf "expected truncation, got %a" Supervisor.pp_outcome o);
  Option.get partial.Cgraph.suspended

let test_checkpoint_records_substrate () =
  let s = truncated_vc_suspended () in
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Checkpoint.save ~file (Checkpoint.freeze ~label:"vc2 mp" s);
      let c = Checkpoint.load ~file in
      Alcotest.(check string) "substrate recorded" "mp" (Checkpoint.substrate c);
      let machine, specs, inputs = vc 2 in
      let resumed =
        Cgraph.build ~domains:1 ~substrate:mp ~resume:(Checkpoint.thaw c)
          ~machine ~specs ~inputs ()
      in
      let full =
        Cgraph.build ~domains:1 ~substrate:mp ~machine ~specs ~inputs ()
      in
      Alcotest.(check int)
        "resume completes the graph" (Cgraph.n_nodes full)
        (Cgraph.n_nodes resumed);
      Alcotest.(check int)
        "resume completes the edges" (Cgraph.n_edges full)
        (Cgraph.n_edges resumed))

let test_resume_substrate_mismatch_refused () =
  let s = truncated_vc_suspended () in
  let machine, specs, inputs = vc 2 in
  match Cgraph.build ~domains:1 ~resume:s ~machine ~specs ~inputs () with
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "names both substrates" true
      (contains_sub ~sub:"mp" msg && contains_sub ~sub:"shm" msg)
  | _ -> Alcotest.fail "mp checkpoint resumed under shm"

(* The previous on-disk format: a coherent /3 checkpoint must be
   refused as a version mismatch (CLIs exit 2) — it predates the
   substrate field, so thawing it would silently assume shm. *)
let test_checkpoint_v3_refused () =
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc "LBSA-CHECKPOINT/3\nwhat the old format held";
      close_out oc;
      match Checkpoint.load ~file with
      | exception Checkpoint.Version_mismatch msg ->
        Alcotest.(check bool)
          "names the found version" true
          (contains_sub ~sub:"LBSA-CHECKPOINT/3" msg)
      | exception Failure msg ->
        Alcotest.failf "old version reported as plain failure: %s" msg
      | _ -> Alcotest.fail "version-3 checkpoint accepted")

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))

(* `lbsa solve` explores under shm; handing it a checkpoint frozen
   under mp must be refused with the graph-shape-divergence exit 2
   before any label comparison. *)
let test_cli_solve_refuses_mp_checkpoint () =
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let s = truncated_vc_suspended () in
  let file = Filename.temp_file "lbsa-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      Checkpoint.save ~file (Checkpoint.freeze ~label:"vc2 mp" s);
      let code =
        Sys.command
          (Fmt.str "%s solve dac -n 3 --resume %s >/dev/null 2>&1"
             (Filename.quote exe) (Filename.quote file))
      in
      Alcotest.(check int) "substrate-divergent resume exits 2" 2 code)

(* --- suite --------------------------------------------------------------- *)

let () =
  Alcotest.run "liveness"
    [
      ( "fixtures",
        [
          Alcotest.test_case "vc:2 split-vote livelock" `Quick test_vc_livelock;
          Alcotest.test_case "vc:2 lasso shrinks and pins" `Quick
            test_vc_lasso_shrinks;
          Alcotest.test_case "bcast:2 control is live" `Quick test_bcast_live;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fixtures agree with brute force" `Quick
            test_oracle_fixtures;
          Alcotest.test_case "randomized machines agree with brute force"
            `Slow test_oracle_randomized;
          Alcotest.test_case "validate rejects broken witnesses" `Quick
            test_validate_rejects_broken_witnesses;
        ] );
      ( "stability",
        [
          Alcotest.test_case "reduce modes agree" `Quick test_reduce_modes_agree;
          Alcotest.test_case "domain counts agree" `Quick test_domains_agree;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "shm is bit-compatible" `Quick
            test_shm_bit_compatible;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "substrate recorded and resumable" `Quick
            test_checkpoint_records_substrate;
          Alcotest.test_case "substrate mismatch refused" `Quick
            test_resume_substrate_mismatch_refused;
          Alcotest.test_case "version 3 refused" `Quick
            test_checkpoint_v3_refused;
          Alcotest.test_case "solve refuses an mp checkpoint" `Slow
            test_cli_solve_refuses_mp_checkpoint;
        ] );
    ]
