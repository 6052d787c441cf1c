(* State-space reduction: the symmetry quotient (Canon), commit-step
   pruning, oracle agreement on quotiented graphs, truncation-sound
   witness search, and checkpoint/resume compatibility across
   reduction modes. *)

open Lbsa

(* --- protocol instances with their symmetry groups --------------------- *)

(* Each group comes as an [Oracle.group]: the [Canon] group the explorer
   runs, with its automorphisms enumerated beside it. *)

let dac_inputs n =
  Array.init n (fun pid -> Value.int (if pid = 0 then 1 else 0))

let dac n =
  (Dac_from_pac.machine ~n, Dac_from_pac.specs ~n, dac_inputs n, Oracle.dac ~n)

let dac3 () = dac 3

let cons2 () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  (machine, specs, [| Value.int 0; Value.int 1 |], Oracle.exchangeable ~n:2 ())

let kset22 () =
  let machine, specs = Kset_protocols.partition ~m:2 ~k:2 in
  ( machine,
    specs,
    Kset_task.distinct_inputs 4,
    Oracle.kset_partition ~m:2 ~k:2 )

let dac_frozen obj state = obj = 0 && Pac.is_upset state

let sym (group : Oracle.group) =
  { Cgraph.rname = "sym"; canon = group.canon; sleep = false; frozen = None }

let sym_sleep ?frozen (group : Oracle.group) =
  { Cgraph.rname = "sym+sleep"; canon = group.canon; sleep = true; frozen }

(* --- the quotient map: permutation invariance on reachable states ------ *)

let test_group_orders () =
  (* [Canon.order] is arithmetic; the oracle counts its automorphisms
     one by one, and the two must agree. *)
  List.iter
    (fun (label, order, (group : Oracle.group)) ->
      Alcotest.(check int) label order (Canon.order group.canon);
      Alcotest.(check int) (label ^ ", enumerated") order
        (List.length group.autos + 1);
      Alcotest.(check bool) (label ^ ", identity iff order 1") (order = 1)
        (Canon.is_identity group.canon))
    [
      ("exchangeable 3", 6, Oracle.exchangeable ~n:3 ());
      ( "exchangeable 3 fixing one",
        2,
        Oracle.exchangeable ~n:3 ~fixed:[ 0 ] () );
      ("exchangeable 1", 1, Oracle.exchangeable ~n:1 ());
      ("dac 2 fixes p0", 1, Oracle.dac ~n:2);
      ("dac 3 fixes p0", 2, Oracle.dac ~n:3);
      ("dac 4 fixes p0", 6, Oracle.dac ~n:4);
      ("kset 2,2: (2!)^2 * 2!", 8, Oracle.kset_partition ~m:2 ~k:2);
      ("kset 1,1", 1, Oracle.kset_partition ~m:1 ~k:1);
      ("kset 3,2: (3!)^2 * 2!", 72, Oracle.kset_partition ~m:3 ~k:2);
    ];
  (* The dac group must never move the distinguished process 0. *)
  List.iter
    (fun (a : Oracle.auto) -> Alcotest.(check int) "p0 fixed" 0 a.proc.(0))
    (Oracle.dac ~n:4).autos

(* --- the enumeration oracle --------------------------------------------- *)

(* The whole orbit of [c], built from the oracle's enumeration alone
   (one [Oracle.apply] per automorphism), sorted and deduplicated.  It
   shares nothing with [Canon.canonical]'s sort, so it can judge it. *)
let orbit (group : Oracle.group) c =
  List.sort_uniq Config.compare
    (c :: List.map (fun a -> Oracle.apply a c) group.autos)

(* The oracle's minimum alone: the first strictly smaller image wins. *)
let orbit_min (group : Oracle.group) c =
  List.fold_left
    (fun best a ->
      let img = Oracle.apply a c in
      if Config.compare img best < 0 then img else best)
    c group.autos

(* [canonical] is the oracle's least orbit element, and it is the
   argument itself (physically) exactly when no image is strictly
   smaller.  [None] when both hold, else what failed. *)
let oracle_mismatch ?(full = true) (group : Oracle.group) c =
  let rep = Canon.canonical group.canon c in
  let least = if full then List.hd (orbit group c) else orbit_min group c in
  if not (Config.equal rep least) then Some "not the orbit minimum"
  else if (rep == c) <> (Config.compare least c = 0) then
    Some "argument not returned physically iff already minimal"
  else None

(* [canonical] must send every member of an orbit to the same
   representative, that representative must be the [Config.compare]-least
   orbit element, and [Config.hash] must agree wherever [compare] says
   equal — the properties the explorer's dedup table keys on. *)
let check_orbit_stability label (group : Oracle.group) graph =
  let canonical = Canon.canonical group.canon in
  Cgraph.iter_nodes
    (fun id c ->
      let rep = canonical c in
      if not (Config.equal (canonical rep) rep) then
        Alcotest.failf "%s: canonical not idempotent at node %d" label id;
      if Config.compare rep c > 0 then
        Alcotest.failf "%s: canonical exceeds its argument at node %d" label
          id;
      (match oracle_mismatch group c with
      | None -> ()
      | Some what -> Alcotest.failf "%s: node %d: canonical %s" label id what);
      List.iter
        (fun a ->
          let rep' = canonical (Oracle.apply a c) in
          if not (Config.equal rep' rep) then
            Alcotest.failf
              "%s: node %d: permuted image canonizes to a different \
               representative"
              label id;
          if Config.compare rep' rep <> 0 then
            Alcotest.failf "%s: node %d: compare disagrees with equal" label
              id;
          if Config.hash rep' <> Config.hash rep then
            Alcotest.failf "%s: node %d: orbit representatives hash apart"
              label id)
        group.autos)
    graph

let test_canonical_permutation_stable () =
  (* Every node of each unreduced graph.  The larger three reach real
     group orders: dac:5 (24, labels renamed, 4254 nodes), cons:4 under
     the full symmetric group (24), and the 2x3 partition protocol (48,
     objects permuted with their groups, 2197 nodes). *)
  let cons4 () =
    let machine, specs = Consensus_protocols.from_consensus_obj ~m:4 in
    ( machine,
      specs,
      Array.map Value.int [| 0; 1; 1; 0 |],
      Oracle.exchangeable ~n:4 () )
  in
  let kset23 () =
    let machine, specs = Kset_protocols.partition ~m:2 ~k:3 in
    ( machine,
      specs,
      Kset_task.distinct_inputs 6,
      Oracle.kset_partition ~m:2 ~k:3 )
  in
  List.iter
    (fun (label, (machine, specs, inputs, group)) ->
      let graph = Cgraph.build ~machine ~specs ~inputs () in
      check_orbit_stability label group graph)
    [
      ("dac:3", dac3 ());
      ("cons:2", cons2 ());
      ("kset 2,2", kset22 ());
      ("dac:5", dac 5);
      ("cons:4", cons4 ());
      ("kset 2,3", kset23 ());
    ]

let test_near_symmetric_orbits () =
  (* Adversarial hand-built configurations: genuinely symmetric pairs
     must merge, near-symmetric ones — where only one of the parallel
     arrays is mirrored — must not. *)
  let g = Canon.exchangeable ~n:2 () in
  let a = Value.int 0 and b = Value.int 1 in
  let mk locals status =
    { Config.locals; objects = [| Value.int 7 |]; status }
  in
  let rep c = Canon.canonical g c in
  (* mirror images: same orbit *)
  let c1 = mk [| a; b |] [| Config.Running; Config.Running |] in
  let c2 = mk [| b; a |] [| Config.Running; Config.Running |] in
  Alcotest.(check bool) "mirrored locals merge" true
    (Config.equal (rep c1) (rep c2));
  (* mirroring locals AND statuses together: same orbit *)
  let c3 = mk [| a; b |] [| Config.Decided a; Config.Running |] in
  let c4 = mk [| b; a |] [| Config.Running; Config.Decided a |] in
  Alcotest.(check bool) "jointly mirrored config merges" true
    (Config.equal (rep c3) (rep c4));
  Alcotest.(check int) "orbit hashes agree" (Config.hash (rep c3))
    (Config.hash (rep c4));
  (* mirroring only the locals, statuses left in place: different orbit *)
  let c5 = mk [| b; a |] [| Config.Decided a; Config.Running |] in
  Alcotest.(check bool) "half-mirrored config must NOT merge" false
    (Config.equal (rep c3) (rep c5));
  (* same shape, different decision value: different orbit *)
  let c6 = mk [| a; b |] [| Config.Decided b; Config.Running |] in
  Alcotest.(check bool) "different decisions must NOT merge" false
    (Config.equal (rep c3) (rep c6));
  (* a group that fixes pid 0 must not merge the mirror pair *)
  let fixed = Canon.exchangeable ~n:2 ~fixed:[ 0 ] () in
  Alcotest.(check bool) "fixed-pid group keeps mirror images apart" false
    (Config.equal (Canon.canonical fixed c1) (Canon.canonical fixed c2))

(* --- canonical against the oracle at real group sizes ------------------ *)

let test_oracle_dac6_sample () =
  (* dac:6 (order 120): a seeded sample of nodes against the oracle
     minimum only, so the check stays within seconds. *)
  let machine, specs, inputs, group = dac 6 in
  let g = Cgraph.build ~machine ~specs ~inputs () in
  let rng = Prng.create 13 in
  let n = Cgraph.n_nodes g in
  for _ = 1 to min 2000 n do
    let id = Prng.int rng n in
    match oracle_mismatch ~full:false group (Cgraph.node g id) with
    | None -> ()
    | Some what -> Alcotest.failf "dac:6: node %d: canonical %s" id what
  done

(* Random dac:n configurations, well-formed or not as protocol states
   go: each component drawn from a small domain so that locals tie
   often and the object/status tie-breaks get exercised. *)
let random_dac_config =
  let open QCheck.Gen in
  let bit = map Value.int (int_bound 1) in
  let local =
    oneof
      [
        map (fun v -> Value.pair (Value.sym "proposing", v)) bit;
        map (fun v -> Value.pair (Value.sym "deciding", v)) bit;
        map (fun v -> Value.pair (Value.sym "halt", v)) bit;
        return (Value.sym "abort");
      ]
  in
  let status =
    oneof
      [
        return Config.Running;
        map (fun v -> Config.Decided v) bit;
        return Config.Aborted;
        return Config.Crashed;
      ]
  in
  let opt g = oneof [ return Value.nil; g ] in
  int_range 2 5 >>= fun n ->
  let label = map Value.int (int_range 1 n) in
  let pac =
    map4
      (fun upset v l value ->
        Value.list
          [
            Value.bool upset;
            Value.Assoc.of_bindings
              (List.mapi (fun i x -> (Value.int (i + 1), x)) v);
            l;
            value;
          ])
      bool (list_repeat n (opt bit)) (opt label) (opt bit)
  in
  map3
    (fun locals pac status ->
      ( n,
        {
          Config.locals = Array.of_list locals;
          objects = [| pac |];
          status = Array.of_list status;
        } ))
    (list_repeat n local) pac (list_repeat n status)

let prop_canonical_is_oracle_min =
  QCheck.Test.make ~count:500
    ~name:"canonical = oracle minimum (random dac configs)"
    (QCheck.make
       ~print:(fun (n, c) -> Fmt.str "dac:%d@.%a" n Config.pp c)
       random_dac_config)
    (fun (n, c) ->
      match oracle_mismatch (Oracle.dac ~n) c with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "canonical %s" what)

(* Small domains for the other two group shapes, so that pids, whole
   blocks and objects tie often and every key of the sort gets used. *)
let small_value =
  QCheck.Gen.oneofl
    [
      Value.int 0;
      Value.int 1;
      Value.sym "a";
      Value.pair (Value.int 0, Value.nil);
    ]

let small_status =
  QCheck.Gen.oneofl
    [
      Config.Running;
      Config.Decided (Value.int 0);
      Config.Decided (Value.int 1);
      Config.Aborted;
      Config.Crashed;
    ]

let random_config ~n ~objects =
  QCheck.Gen.map3
    (fun locals objects status ->
      {
        Config.locals = Array.of_list locals;
        objects = Array.of_list objects;
        status = Array.of_list status;
      })
    (QCheck.Gen.list_repeat n small_value)
    objects
    (QCheck.Gen.list_repeat n small_status)

(* The partition groups with m*k <= 9 and order at most 1,296, each
   enumerated once. *)
let kset_group =
  let memo = Hashtbl.create 16 in
  fun (m, k) ->
    match Hashtbl.find_opt memo (m, k) with
    | Some g -> g
    | None ->
      let g = Oracle.kset_partition ~m ~k in
      Hashtbl.add memo (m, k) g;
      g

let kset_shapes =
  List.concat_map
    (fun m ->
      List.filter_map
        (fun k ->
          if m * k <= 9 && Canon.order (Canon.kset_partition ~m ~k) <= 1296
          then Some (m, k)
          else None)
        (Listx.range 1 9))
    (Listx.range 1 9)

let prop_kset_is_oracle_min =
  let gen =
    let open QCheck.Gen in
    oneofl kset_shapes >>= fun (m, k) ->
    map
      (fun c -> ((m, k), c))
      (random_config ~n:(m * k) ~objects:(list_repeat k small_value))
  in
  QCheck.Test.make ~count:300
    ~name:"canonical = oracle minimum (random kset_partition configs)"
    (QCheck.make
       ~print:(fun ((m, k), c) -> Fmt.str "kset %d,%d@.%a" m k Config.pp c)
       gen)
    (fun (shape, c) ->
      match oracle_mismatch (kset_group shape) c with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "canonical %s" what)

let prop_exchangeable_is_oracle_min =
  let gen =
    let open QCheck.Gen in
    int_range 1 6 >>= fun n ->
    (* fixed pids may repeat or fall outside 0..n-1 *)
    pair
      (list_size (int_bound n) (int_bound n))
      (random_config ~n ~objects:(list_size (int_bound 2) small_value))
    |> map (fun (fixed, c) -> ((n, fixed), c))
  in
  QCheck.Test.make ~count:300
    ~name:"canonical = oracle minimum (random exchangeable ~fixed configs)"
    (QCheck.make
       ~print:(fun ((n, fixed), c) ->
         Fmt.str "exchangeable %d fixing [%a]@.%a" n
           Fmt.(list ~sep:comma int)
           fixed Config.pp c)
       gen)
    (fun ((n, fixed), c) ->
      match oracle_mismatch (Oracle.exchangeable ~n ~fixed ()) c with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "canonical %s" what)

let test_group_is_structural () =
  (* Orders are computed, never counted: an explicit list for dac:12
     would hold 39,916,800 automorphisms. *)
  Alcotest.(check int) "dac:12: 11!" 39_916_800 (Canon.order (Canon.dac ~n:12));
  Alcotest.(check int) "kset 3,3: (3!)^3 * 3!" 1_296
    (Canon.order (Canon.kset_partition ~m:3 ~k:3));
  (* Reachable dac:12 configurations (seeded random walks) and random
     permuted images of each: one representative per orbit, idempotent
     and never above its argument. *)
  let n = 12 in
  let machine = Dac_from_pac.machine ~n and specs = Dac_from_pac.specs ~n in
  let group = Canon.dac ~n in
  let rng = Prng.create 12 in
  let rec walk c steps =
    match Config.running c with
    | _ :: _ as running when steps > 0 ->
      let pid = Prng.pick rng running in
      let c', _ = Prng.pick rng (Config.step_branches ~machine ~specs c pid) in
      walk c' (steps - 1)
    | _ -> c
  in
  List.iter
    (fun steps ->
      let initial = Config.initial ~machine ~specs ~inputs:(dac_inputs n) in
      let c = walk initial steps in
      let rep = Canon.canonical group c in
      if Canon.canonical group rep != rep then
        Alcotest.failf "dac:12, %d steps: representative not idempotent" steps;
      if Config.compare rep c > 0 then
        Alcotest.failf "dac:12, %d steps: representative above its argument"
          steps;
      for _ = 1 to 100 do
        let proc =
          Array.append [| 0 |] (Prng.shuffle rng (Array.init (n - 1) succ))
        in
        let img = Oracle.apply (Oracle.dac_auto proc) c in
        let rep' = Canon.canonical group img in
        if not (Config.equal rep' rep) then
          Alcotest.failf
            "dac:12, %d steps: permuted image canonizes to another \
             representative"
            steps;
        if Config.compare rep' img > 0 then
          Alcotest.failf
            "dac:12, %d steps: representative above a permuted image" steps
      done)
    [ 6; 15; 30; 60 ]

let test_canonical_rejects_misfit () =
  (* A configuration whose process count (or, for a group that permutes
     objects, object count) does not fit the group is refused, never
     silently canonized. *)
  let machine, specs, inputs, _ = dac3 () in
  let c = Config.initial ~machine ~specs ~inputs in
  (match Canon.canonical (Canon.dac ~n:4) c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dac:4 group accepted a 3-process configuration");
  (match Canon.canonical (Canon.exchangeable ~n:2 ()) c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "2-process group accepted a 3-process configuration");
  (match
     Canon.canonical (Canon.dac ~n:3)
       { c with objects = Array.append c.objects c.objects }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dac:3 group accepted a 2-object configuration");
  let kset = Canon.kset_partition ~m:2 ~k:2 in
  let c =
    {
      Config.locals = Array.make 4 Value.unit_;
      objects = [| Value.unit_ |];
      status = Array.make 4 Config.Running;
    }
  in
  match Canon.canonical kset c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kset 2,2 group accepted a 1-object configuration"

(* --- reduced builds against the CMap oracle ---------------------------- *)

let test_reduced_build_matches_cmap_oracle () =
  (* The parallel explorer and the seed CMap explorer share one
     reduction step; under every mode they must still produce the same
     graph, node ids and edge order included. *)
  List.iter
    (fun (label, (machine, specs, inputs, group), frozen) ->
      List.iter
        (fun reduce ->
          let g = Cgraph.build ~reduce ~machine ~specs ~inputs () in
          let oracle = Oracle.build_cmap ~reduce ~machine ~specs ~inputs () in
          Oracle.same_graph
            (Fmt.str "%s [%s]" label reduce.Cgraph.rname)
            g oracle)
        [ sym group; sym_sleep ?frozen group ])
    [
      ("dac:3", dac3 (), Some dac_frozen);
      ("cons:2", cons2 (), None);
      ("kset 2,2", kset22 (), None);
    ]

(* --- what must not move ------------------------------------------------- *)

let test_dac7_pins () =
  (* Theorem 4.1's 7-DAC instance under sym+sleep: graph size and
     reduction counters are pinned, so a faster canonicalizer cannot
     drift the quotient. *)
  let machine, specs, inputs, group = dac 7 in
  let g =
    Cgraph.build ~domains:1 ~reduce:(sym_sleep ~frozen:dac_frozen group)
      ~machine ~specs ~inputs ()
  in
  let r = (Cgraph.stats g).Cgraph.reduction in
  Alcotest.(check (list int))
    "states, edges, canonized, ample nodes, ample pruned"
    [ 258; 1161; 955; 154; 175 ]
    [
      Cgraph.n_nodes g;
      Cgraph.n_edges g;
      r.Cgraph.canonized;
      r.Cgraph.ample_nodes;
      r.Cgraph.ample_pruned;
    ]

let test_domains_agree_on_shared_group () =
  (* One group is shared by the explorer's worker domains: the dac:6
     sym+sleep graph must not depend on the domain count, and four
     domains canonicalizing the same nodes through one shared group
     must agree with a sequential pass through another. *)
  let n = 6 in
  let machine = Dac_from_pac.machine ~n and specs = Dac_from_pac.specs ~n in
  let build domains =
    Cgraph.build ~domains
      ~reduce:(sym_sleep ~frozen:dac_frozen (Oracle.dac ~n))
      ~machine ~specs ~inputs:(dac_inputs n) ()
  in
  Oracle.same_graph "dac:6 sym+sleep, 4 vs 1 domains" (build 4)
    (Oracle.of_graph (build 1));
  let g = Cgraph.build ~machine ~specs ~inputs:(dac_inputs n) () in
  let nodes = Array.init (min 3000 (Cgraph.n_nodes g)) (Cgraph.node g) in
  let seq =
    let group = Canon.dac ~n in
    Array.map (Canon.canonical group) nodes
  in
  let shared = Canon.dac ~n in
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            (* each worker walks the nodes from a different offset *)
            let len = Array.length nodes in
            Array.init len (fun j ->
                let i = (j + (w * len / 4)) mod len in
                (i, Canon.canonical shared nodes.(i)))))
  in
  List.iter
    (fun d ->
      Array.iter
        (fun (i, rep) ->
          if not (Config.equal rep seq.(i)) then
            Alcotest.failf "dac:6 node %d: concurrent canonical differs" i)
        (Domain.join d))
    workers

(* --- verdict agreement and the acceptance ratio ------------------------ *)

let check_done label (v : Solvability.verdict) =
  match v.Solvability.outcome with
  | Supervisor.Done -> ()
  | o -> Alcotest.failf "%s: partial outcome %a" label Supervisor.pp_outcome o

let test_dac3_verdicts_agree_and_ratio () =
  let machine, specs, inputs, group = dac3 () in
  let check reduce = Solvability.check_dac ?reduce ~machine ~specs ~inputs () in
  let v_none = check None in
  let v_sym = check (Some (sym group)) in
  let v_sleep = check (Some (sym_sleep ~frozen:dac_frozen group)) in
  List.iter (fun (l, v) -> check_done l v)
    [ ("none", v_none); ("sym", v_sym); ("sym+sleep", v_sleep) ];
  Alcotest.(check bool) "none ok" true v_none.Solvability.ok;
  Alcotest.(check bool) "sym agrees" v_none.Solvability.ok v_sym.Solvability.ok;
  Alcotest.(check bool) "sym+sleep agrees" v_none.Solvability.ok
    v_sleep.Solvability.ok;
  Alcotest.(check bool) "sym explores fewer states" true
    (v_sym.Solvability.states < v_none.Solvability.states);
  Alcotest.(check bool) "sleep explores no more than sym" true
    (v_sleep.Solvability.states <= v_sym.Solvability.states);
  (* The acceptance floor: sym+sleep must explore at least 3x fewer
     states than the unreduced build on dac:3. *)
  if v_none.Solvability.states < 3 * v_sleep.Solvability.states then
    Alcotest.failf "reduction ratio below 3x on dac:3: %d vs %d states"
      v_none.Solvability.states v_sleep.Solvability.states

let test_verdicts_agree_across_modes () =
  (* Consensus and k-set checkers, plus the dac binary input family and
     two failing candidates: ok must agree mode-by-mode, for passing and
     failing protocols alike. *)
  let machine, specs, inputs, group = cons2 () in
  let cons reduce =
    (Solvability.check ~task:Solvability.Consensus
       ?reduce ~machine ~specs ~inputs ())
      .Solvability.ok
  in
  Alcotest.(check bool) "cons:2 sym" (cons None) (cons (Some (sym group)));
  Alcotest.(check bool) "cons:2 sym+sleep" (cons None)
    (cons (Some (sym_sleep group)));
  let machine, specs, inputs, group = kset22 () in
  let kset reduce =
    (Solvability.check ~task:(Solvability.Kset 2)
       ?reduce ~machine ~specs ~inputs ())
      .Solvability.ok
  in
  Alcotest.(check bool) "kset 2,2 sym" (kset None) (kset (Some (sym group)));
  Alcotest.(check bool) "kset 2,2 sym+sleep" (kset None)
    (kset (Some (sym_sleep group)));
  (* full binary family on dac:3 *)
  let machine, specs, _, group = dac3 () in
  let family reduce =
    let v =
      Solvability.for_all_inputs
        (fun inputs -> Solvability.check_dac ?reduce ~machine ~specs ~inputs ())
        (Dac.binary_inputs 3)
    in
    v.Solvability.ok
  in
  Alcotest.(check bool) "dac:3 family sym" (family None)
    (family (Some (sym group)));
  Alcotest.(check bool) "dac:3 family sym+sleep" (family None)
    (family (Some (sym_sleep ~frozen:dac_frozen group)));
  (* a buggy dac candidate must keep failing under reduction *)
  let machine, specs = Candidates.dac3_sa2_then_cons2 in
  let broken reduce =
    let v =
      Solvability.for_all_inputs
        (fun inputs -> Solvability.check_dac ?reduce ~machine ~specs ~inputs ())
        (Dac.binary_inputs 3)
    in
    v.Solvability.ok
  in
  Alcotest.(check bool) "broken candidate fails unreduced" false (broken None);
  Alcotest.(check bool) "broken candidate fails under sym" false
    (broken (Some (sym group)));
  Alcotest.(check bool) "broken candidate fails under sym+sleep" false
    (broken (Some (sym_sleep ~frozen:dac_frozen group)))

(* --- valence on reduced graphs ----------------------------------------- *)

let equal_class a b =
  match (a, b) with
  | Valence.Bivalent, Valence.Bivalent -> true
  | Valence.Undecided, Valence.Undecided -> true
  | Valence.Valent x, Valence.Valent y -> Value.equal x y
  | _ -> false

let test_valence_agreement_on_reduced_graphs () =
  (* On each reduced graph both valence engines must agree node-by-node,
     and the initial classification must be stable across modes. *)
  List.iter
    (fun (label, (machine, specs, inputs, group), frozen) ->
      let initial_class reduce =
        let g = Cgraph.build ?reduce ~machine ~specs ~inputs () in
        let a = Valence.analyze g in
        let oracle = Oracle.analyze_fixpoint g in
        for id = 0 to Cgraph.n_nodes g - 1 do
          if
            not (equal_class (Valence.classify a id) (Oracle.classify oracle id))
          then
            Alcotest.failf "%s: valence engines disagree at node %d" label id
        done;
        Valence.classify a g.Cgraph.initial
      in
      let c_none = initial_class None in
      List.iter
        (fun reduce ->
          let c = initial_class (Some reduce) in
          if not (equal_class c_none c) then
            Alcotest.failf "%s [%s]: initial valence differs: %a vs %a" label
              reduce.Cgraph.rname Valence.pp_classification c_none
              Valence.pp_classification c)
        [ sym group; sym_sleep ?frozen group ])
    [
      ("dac:3", dac3 (), Some dac_frozen);
      ("cons:2", cons2 (), None);
    ]

(* --- truncation-sound witness search (regression) ---------------------- *)

let test_witness_search_truncation_sound () =
  (* A correct protocol under a tiny state bound: the search must answer
     Search_truncated — answering No_witness on a cut-off graph was the
     false negative this guards against. *)
  let machine, specs, inputs, _ = cons2 () in
  (match
     Solvability.witness ~task:Solvability.Consensus
       ~max_states:2 ~machine ~specs ~inputs ()
   with
  | Solvability.Search_truncated o ->
    Alcotest.(check bool) "partial outcome" true (Supervisor.is_partial o)
  | Solvability.No_witness ->
    Alcotest.fail "truncated search claimed a definitive no-witness"
  | Solvability.Witness w ->
    Alcotest.failf "correct protocol produced a witness: %s"
      w.Solvability.violation);
  (* unbounded, the answer is definitive *)
  (match
     Solvability.witness ~task:Solvability.Consensus ~machine ~specs ~inputs ()
   with
  | Solvability.No_witness -> ()
  | Solvability.Search_truncated _ ->
    Alcotest.fail "complete search reported truncation"
  | Solvability.Witness w ->
    Alcotest.failf "correct protocol produced a witness: %s"
      w.Solvability.violation);
  (* A broken protocol: a found witness stays definitive, and a bound
     too small to reach the violation must again answer truncated, never
     no-witness. *)
  let machine, specs = Candidates.flp_write_read in
  let inputs = [| Value.int 0; Value.int 1 |] in
  (match
     Solvability.witness ~task:Solvability.Consensus ~machine ~specs ~inputs ()
   with
  | Solvability.Witness _ -> ()
  | _ -> Alcotest.fail "expected a disagreement witness");
  match
    Solvability.witness ~task:Solvability.Consensus
      ~max_states:2 ~machine ~specs ~inputs ()
  with
  | Solvability.No_witness ->
    Alcotest.fail "truncated search on a broken protocol claimed no witness"
  | Solvability.Search_truncated _ | Solvability.Witness _ -> ()

(* --- resume compatibility ---------------------------------------------- *)

let test_resume_rejects_reduction_mismatch () =
  let machine, specs, inputs, group = dac3 () in
  let reduce = sym group in
  let partial =
    Cgraph.build ~max_states:20 ~reduce ~machine ~specs ~inputs ()
  in
  Alcotest.(check bool) "bound truncates" true partial.Cgraph.truncated;
  let s = Option.get partial.Cgraph.suspended in
  (match Cgraph.build ~resume:s ~machine ~specs ~inputs () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resume under a different reduction must be rejected");
  (match
     Cgraph.build ~resume:s
       ~reduce:(sym_sleep ~frozen:dac_frozen group)
       ~machine ~specs ~inputs ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sym checkpoint must not resume under sym+sleep");
  (* matching mode: the resumed build is the uninterrupted build *)
  let resumed = Cgraph.build ~resume:s ~reduce ~machine ~specs ~inputs () in
  let full = Cgraph.build ~reduce ~machine ~specs ~inputs () in
  Oracle.same_graph "resumed vs uninterrupted [sym]" resumed
    (Oracle.of_graph full)

(* --- the CLI resume contract (exit 2 on divergent parameters) ---------- *)

let with_cli k =
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
    (fun () -> k ~q:Filename.quote ~exe ~full ~resumed ~ckpt)

let run fmt = Fmt.kstr Sys.command fmt

let test_cli_resume_rejects_reduce_mismatch () =
  (* `lbsa solve --resume` with a different --reduce must refuse with
     exit 2 rather than silently diverge from the checkpointed run. *)
  with_cli (fun ~q ~exe ~full:_ ~resumed:_ ~ckpt ->
      Alcotest.(check int) "deadline-0 sym run is partial" 2
        (run
           "%s solve dac -n 3 --reduce sym --deadline 0 --checkpoint %s > \
            /dev/null 2>&1"
           (q exe) (q ckpt));
      Alcotest.(check int) "resume without --reduce sym is refused" 2
        (run "%s solve dac -n 3 --resume %s > /dev/null 2>&1" (q exe) (q ckpt));
      Alcotest.(check int) "resume with --reduce sym+sleep is refused" 2
        (run "%s solve dac -n 3 --reduce sym+sleep --resume %s > /dev/null 2>&1"
           (q exe) (q ckpt));
      Alcotest.(check int) "resume with matching --reduce passes" 0
        (run "%s solve dac -n 3 --reduce sym --resume %s > /dev/null 2>&1"
           (q exe) (q ckpt)))

let test_cli_resume_other_domains_byte_identical () =
  (* --domains is a budget knob, not a graph parameter: resuming with a
     different domain count must reproduce the uninterrupted run
     byte-for-byte. *)
  with_cli (fun ~q ~exe ~full ~resumed ~ckpt ->
      Alcotest.(check int) "uninterrupted 1-domain run passes" 0
        (run "%s solve dac -n 3 --reduce sym --domains 1 > %s 2>/dev/null"
           (q exe) (q full));
      Alcotest.(check int) "deadline-0 run is partial" 2
        (run
           "%s solve dac -n 3 --reduce sym --domains 1 --deadline 0 \
            --checkpoint %s > /dev/null 2>&1"
           (q exe) (q ckpt));
      Alcotest.(check int) "resume with --domains 2 passes" 0
        (run
           "%s solve dac -n 3 --reduce sym --domains 2 --resume %s > %s \
            2>/dev/null"
           (q exe) (q ckpt) (q resumed));
      Alcotest.(check int) "stdout is byte-for-byte identical" 0
        (run "cmp -s %s %s" (q full) (q resumed)))

let () =
  Alcotest.run "reduction"
    [
      ( "canon",
        [
          Alcotest.test_case "group orders" `Quick test_group_orders;
          Alcotest.test_case "canonical permutation-stable" `Quick
            test_canonical_permutation_stable;
          Alcotest.test_case "near-symmetric orbits" `Quick
            test_near_symmetric_orbits;
          Alcotest.test_case "oracle: dac:6 sample" `Quick
            test_oracle_dac6_sample;
          QCheck_alcotest.to_alcotest prop_canonical_is_oracle_min;
          QCheck_alcotest.to_alcotest prop_kset_is_oracle_min;
          QCheck_alcotest.to_alcotest prop_exchangeable_is_oracle_min;
          Alcotest.test_case "group is structural" `Quick
            test_group_is_structural;
          Alcotest.test_case "misfit configuration rejected" `Quick
            test_canonical_rejects_misfit;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "reduced build matches CMap oracle" `Quick
            test_reduced_build_matches_cmap_oracle;
          Alcotest.test_case "dac:7 sym+sleep pins" `Quick test_dac7_pins;
          Alcotest.test_case "domain count and a shared group agree" `Quick
            test_domains_agree_on_shared_group;
          Alcotest.test_case "dac:3 verdicts agree, ratio >= 3x" `Quick
            test_dac3_verdicts_agree_and_ratio;
          Alcotest.test_case "verdicts agree across modes" `Slow
            test_verdicts_agree_across_modes;
          Alcotest.test_case "valence agreement on reduced graphs" `Quick
            test_valence_agreement_on_reduced_graphs;
        ] );
      ( "soundness regressions",
        [
          Alcotest.test_case "witness search is truncation-sound" `Quick
            test_witness_search_truncation_sound;
          Alcotest.test_case "resume rejects reduction mismatch" `Quick
            test_resume_rejects_reduction_mismatch;
        ] );
      ( "cli resume contract",
        [
          Alcotest.test_case "divergent --reduce is refused (exit 2)" `Quick
            test_cli_resume_rejects_reduce_mismatch;
          Alcotest.test_case "divergent --domains stays byte-identical" `Quick
            test_cli_resume_other_domains_byte_identical;
        ] );
    ]
