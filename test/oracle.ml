(* The seed engines, kept as differential-testing oracles: the
   single-threaded explorer deduping through a persistent
   [Map.Make(Config)], the worklist valence fixpoint over functional
   value sets, and the symmetry groups as explicit lists of
   automorphisms.  The engines in lib/modelcheck must agree with them;
   the one piece they share is the explorer's reduction step
   ([Cgraph.reduce_config] and [Cgraph.successors]). *)

open Lbsa

(* --- the seed explorer ------------------------------------------------- *)

(* The comparator reproduces the seed's comparison path verbatim — in
   particular WITHOUT the physical-equality and intern-id fast paths
   [Value.compare] has since gained — so the oracle does not share the
   engine's dedup shortcuts: a bug in those fast paths cannot make both
   sides agree on a wrong graph.  It reads through the hash-consed
   records to their structural [node]s and walks whole trees. *)
module Seed_ord = struct
  type t = Config.t

  let rec compare_value (a : Value.t) (b : Value.t) =
    match (Value.node a, Value.node b) with
    | Value.Unit, Value.Unit -> 0
    | Value.Unit, _ -> -1
    | _, Value.Unit -> 1
    | Value.Bool x, Value.Bool y -> Stdlib.compare x y
    | Value.Bool _, _ -> -1
    | _, Value.Bool _ -> 1
    | Value.Int x, Value.Int y -> Stdlib.compare x y
    | Value.Int _, _ -> -1
    | _, Value.Int _ -> 1
    | Value.Sym x, Value.Sym y -> String.compare x y
    | Value.Sym _, _ -> -1
    | _, Value.Sym _ -> 1
    | Value.Bot, Value.Bot -> 0
    | Value.Bot, _ -> -1
    | _, Value.Bot -> 1
    | Value.Nil, Value.Nil -> 0
    | Value.Nil, _ -> -1
    | _, Value.Nil -> 1
    | Value.Done, Value.Done -> 0
    | Value.Done, _ -> -1
    | _, Value.Done -> 1
    | Value.Pair (x1, y1), Value.Pair (x2, y2) ->
      let c = compare_value x1 x2 in
      if c <> 0 then c else compare_value y1 y2
    | Value.Pair _, _ -> -1
    | _, Value.Pair _ -> 1
    | Value.List xs, Value.List ys -> compare_value_lists xs ys

  and compare_value_lists xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = compare_value x y in
      if c <> 0 then c else compare_value_lists xs' ys'

  let compare_status (a : Config.status) (b : Config.status) =
    match (a, b) with
    | Config.Running, Config.Running -> 0
    | Config.Running, _ -> -1
    | _, Config.Running -> 1
    | Config.Decided x, Config.Decided y -> compare_value x y
    | Config.Decided _, _ -> -1
    | _, Config.Decided _ -> 1
    | Config.Aborted, Config.Aborted -> 0
    | Config.Aborted, _ -> -1
    | _, Config.Aborted -> 1
    | Config.Crashed, Config.Crashed -> 0

  let compare (a : Config.t) (b : Config.t) =
    let arr cmp x y =
      let c = Stdlib.compare (Array.length x) (Array.length y) in
      if c <> 0 then c
      else
        let rec go i =
          if i >= Array.length x then 0
          else
            let c = cmp x.(i) y.(i) in
            if c <> 0 then c else go (i + 1)
        in
        go 0
    in
    let c = arr compare_value a.Config.locals b.Config.locals in
    if c <> 0 then c
    else
      let c = arr compare_value a.Config.objects b.Config.objects in
      if c <> 0 then c else arr compare_status a.Config.status b.Config.status
end

module CMap = Map.Make (Seed_ord)

type graph = {
  initial : int;
  nodes : Config.t array;
  out : Cgraph.edge list array;
}

let of_graph g =
  {
    initial = g.Cgraph.initial;
    nodes = Array.init (Cgraph.n_nodes g) (Cgraph.node g);
    out = Array.init (Cgraph.n_nodes g) (Cgraph.out_edges g);
  }

let build_cmap ?(substrate = Substrate.shm) ?(reduce = Cgraph.no_reduction)
    ~(machine : Machine.t) ~(specs : Obj_spec.t array) ~inputs () =
  let init, _, _ =
    Cgraph.reduce_config ~reduce ~machine
      (Config.initial ~machine ~specs ~inputs)
  in
  let ids = ref (CMap.singleton init 0) in
  let nodes = ref [ init ] in
  let n_nodes = ref 1 in
  let edges : (int, Cgraph.edge list) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Queue.add (init, 0) queue;
  let id_of config =
    match CMap.find_opt config !ids with
    | Some id -> id
    | None ->
      let id = !n_nodes in
      ids := CMap.add config id !ids;
      nodes := config :: !nodes;
      incr n_nodes;
      Queue.add (config, id) queue;
      id
  in
  while not (Queue.is_empty queue) do
    let config, id = Queue.pop queue in
    let succ_list, _, _ =
      Cgraph.successors ~substrate ~reduce ~machine ~specs config
    in
    let out =
      List.concat_map
        (fun (pid, branches) ->
          List.map
            (fun (config', event) ->
              { Cgraph.pid; event; target = id_of config' })
            branches)
        succ_list
    in
    Hashtbl.replace edges id out
  done;
  let nodes = Array.of_list (List.rev !nodes) in
  {
    initial = 0;
    nodes;
    out =
      Array.init (Array.length nodes) (fun id ->
          Option.value (Hashtbl.find_opt edges id) ~default:[]);
  }

let same_graph label (g : Cgraph.t) (o : graph) =
  let edges out = Array.fold_left (fun k es -> k + List.length es) 0 out in
  Alcotest.(check int)
    (label ^ ": node count") (Array.length o.nodes) (Cgraph.n_nodes g);
  Alcotest.(check int)
    (label ^ ": edge count") (edges o.out) (Cgraph.n_edges g);
  Alcotest.(check int) (label ^ ": initial") o.initial g.Cgraph.initial;
  for id = 0 to Cgraph.n_nodes g - 1 do
    if not (Config.equal (Cgraph.node g id) o.nodes.(id)) then
      Alcotest.failf "%s: node %d differs" label id;
    (* Edge records are pure data (pids, ops, values), so structural
       equality compares them in full, order included. *)
    if Cgraph.out_edges g id <> o.out.(id) then
      Alcotest.failf "%s: out-edges of node %d differ" label id
  done

(* --- the seed valence fixpoint ------------------------------------------ *)

module VSet = Set.Make (Value)

type valence = { decisions : VSet.t array; aborts : bool array }

let local_abort (config : Config.t) =
  let st = config.status in
  let len = Array.length st in
  let rec go i =
    i < len
    && (match st.(i) with Config.Aborted -> true | _ -> go (i + 1))
  in
  go 0

(* Worklist over functional [VSet]s, all n nodes seeded.  Exact but
   allocation-heavy, and independent of the SCC condensation
   [Valence.analyze] relies on. *)
let analyze_fixpoint (graph : Cgraph.t) =
  let n = Cgraph.n_nodes graph in
  let local_decisions config =
    List.fold_left (fun s v -> VSet.add v s) VSet.empty (Config.decisions config)
  in
  let decisions = Array.init n (fun id -> local_decisions (Cgraph.node graph id)) in
  let abort_reachable =
    Array.init n (fun id -> local_abort (Cgraph.node graph id))
  in
  (* Reverse edges once for backward propagation. *)
  let preds = Array.make n [] in
  for u = 0 to n - 1 do
    Cgraph.iter_out_steps graph u (fun _pid v -> preds.(v) <- u :: preds.(v))
  done;
  let queue = Queue.create () in
  for id = 0 to n - 1 do
    Queue.add id queue
  done;
  let in_queue = Array.make n true in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    in_queue.(u) <- false;
    (* Recompute u from its successors; if it grew, reschedule preds. *)
    let d = ref decisions.(u) in
    let a = ref abort_reachable.(u) in
    Cgraph.iter_out_steps graph u (fun _pid v ->
        d := VSet.union !d decisions.(v);
        a := !a || abort_reachable.(v));
    if (not (VSet.equal !d decisions.(u))) || !a <> abort_reachable.(u) then begin
      decisions.(u) <- !d;
      abort_reachable.(u) <- !a;
      List.iter
        (fun p ->
          if not in_queue.(p) then begin
            in_queue.(p) <- true;
            Queue.add p queue
          end)
        preds.(u)
    end
  done;
  { decisions; aborts = abort_reachable }

let decision_set o id = VSet.elements o.decisions.(id)

let classify o id =
  match VSet.elements o.decisions.(id) with
  | [] -> Valence.Undecided
  | [ v ] -> Valence.Valent v
  | _ -> Valence.Bivalent

let abort_reachable o id = o.aborts.(id)

(* --- the symmetry groups, enumerated ------------------------------------ *)

(* Each group as the explicit list of its automorphisms, built from the
   paper's description of the protocol's symmetries and never from
   [Canon]'s sort, so the orbits built here can judge
   [Canon.canonical]. *)

type auto = {
  proc : int array;
  obj : int array option;
  rename_obj : (int -> Value.t -> Value.t) option;
}

let apply a (t : Config.t) =
  let proc = a.proc in
  if Array.length proc <> Array.length t.locals then
    invalid_arg "Oracle.apply: proc permutation has wrong length";
  let objects =
    let obj =
      match a.obj with
      | None -> Array.init (Array.length t.objects) Fun.id
      | Some obj ->
        if Array.length obj <> Array.length t.objects then
          invalid_arg "Oracle.apply: obj permutation has wrong length";
        obj
    in
    let f = match a.rename_obj with None -> fun _ s -> s | Some f -> f in
    Array.map (fun o -> f o t.objects.(o)) obj
  in
  {
    Config.locals = Array.map (fun p -> t.locals.(p)) proc;
    objects;
    status = Array.map (fun p -> t.status.(p)) proc;
  }

type group = { canon : Canon.t; autos : auto list }

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        permutations (List.filter (fun y -> y <> x) l)
        |> List.map (fun p -> x :: p))
      l

let is_id_array a =
  let ok = ref true in
  Array.iteri (fun i x -> if x <> i then ok := false) a;
  !ok

let inverse proc =
  let inv = Array.make (Array.length proc) 0 in
  Array.iteri (fun i src -> inv.(src) <- i) proc;
  inv

(* All non-identity process-permutation arrays moving only [movable]. *)
let perm_arrays ~n ~movable =
  permutations movable
  |> List.map (fun assignment ->
         let proc = Array.init n Fun.id in
         List.iteri (fun j src -> proc.(List.nth movable j) <- src) assignment;
         proc)
  |> List.filter (fun proc -> not (is_id_array proc))

let plain proc = { proc; obj = None; rename_obj = None }

let exchangeable ~n ?(fixed = []) () =
  let movable =
    List.filter (fun i -> not (List.mem i fixed)) (Listx.range 0 (n - 1))
  in
  {
    canon = Canon.exchangeable ~n ~fixed ();
    autos = List.map plain (perm_arrays ~n ~movable);
  }

(* Process p proposes under label p+1: old label l names old process
   l-1, which lands at image slot inv.(l-1), so l becomes inv.(l-1)+1. *)
let dac_auto proc =
  let inv = inverse proc in
  {
    proc;
    obj = None;
    rename_obj =
      Some (fun _ state -> Pac.rename_labels (fun l -> inv.(l - 1) + 1) state);
  }

let dac ~n =
  {
    canon = Canon.dac ~n;
    autos =
      List.map dac_auto (perm_arrays ~n ~movable:(Listx.range 1 (n - 1)));
  }

(* Process p of the k*m partition protocol is in group p/m, which
   proposes to object p/m: one within-group permutation per group, times
   a permutation of the groups that carries their objects. *)
let kset_partition ~m ~k =
  let within = permutations (Listx.range 0 (m - 1)) in
  let rec taus g =
    if g = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> List.map (fun t -> t :: rest) within)
        (taus (g - 1))
  in
  let autos =
    List.concat_map
      (fun sigma ->
        (* sigma.(j) = old group at image group slot j *)
        let sigma = Array.of_list sigma in
        let sigma_img = inverse sigma in
        List.map
          (fun taus ->
            let taus = Array.of_list (List.map Array.of_list taus) in
            let img_of =
              Array.init (m * k) (fun p ->
                  (sigma_img.(p / m) * m) + (inverse taus.(p / m)).(p mod m))
            in
            { proc = inverse img_of; obj = Some sigma; rename_obj = None })
          (taus k))
      (permutations (Listx.range 0 (k - 1)))
    |> List.filter (fun a -> not (is_id_array a.proc))
  in
  { canon = Canon.kset_partition ~m ~k; autos }

(* --- the configuration hash as a fold ------------------------------------ *)

(* [Config.hash] as it was first written, a fold of [Value.hash_fold]
   over each array: its loops must keep these bits. *)
let config_hash (t : Config.t) =
  let comb = Value.hash_combine in
  let fold_status acc = function
    | Config.Running -> comb acc 29
    | Config.Decided v -> Value.hash_fold (comb acc 31) v
    | Config.Aborted -> comb acc 37
    | Config.Crashed -> comb acc 41
  in
  let acc = Array.fold_left Value.hash_fold 0x811c9dc5 t.locals in
  let acc = comb acc 43 in
  let acc = Array.fold_left Value.hash_fold acc t.objects in
  let acc = comb acc 47 in
  Array.fold_left fold_status acc t.status land max_int

(* --- the canonical query preimage, formatted ------------------------------ *)

(* [Serve_api.canonical] as it was first written, through [Format]: the
   concatenation must keep these bytes, or every store entry would be
   re-addressed. *)
let canonical =
  let task_label = function
    | Serve_api.Dac { n } -> Fmt.str "dac:%d" n
    | Serve_api.Consensus { m } -> Fmt.str "cons:%d" m
    | Serve_api.Kset { m; k } -> Fmt.str "kset:%d:%d" m k
    | Serve_api.Candidate { name } -> "cand:" ^ name
    | Serve_api.Vc { n } -> Fmt.str "vc:%d" n
    | Serve_api.Bcast { n } -> Fmt.str "bcast:%d" n
  in
  function
  | Serve_api.Verify v ->
    Fmt.str
      "lbsa-query/2 verify task=%s question=%s inputs=%s max_states=%d \
       reduce=%s substrate=%s"
      (task_label v.task)
      (Serve_api.question_label v.question)
      (String.concat "," (List.map string_of_int v.inputs))
      v.max_states
      (Serve_api.reduce_name v.reduce)
      v.substrate
  | Serve_api.Fuzz f ->
    Fmt.str "lbsa-query/2 fuzz target=%s trials=%d procs=%d ops=%d seed=%d"
      f.target f.trials f.procs f.ops f.seed
