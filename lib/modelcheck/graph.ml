open Lbsa_runtime

(* The reachable configuration graph of a protocol: nodes are global
   configurations, edges are atomic steps (process id + event), with all
   scheduler choices and all object nondeterminism included.  This is the
   object the paper's proofs quantify over, built explicitly for small
   instances.

   Construction is a level-synchronous BFS, each level an ordered
   pipeline of 64-node blocks: domains expand blocks in parallel (the
   per-node successor computation is pure), and the calling domain
   merges each finished block in frontier order as soon as the blocks
   before it are merged, so successors that turn out to be dedup hits
   die young instead of waiting for the whole level.  Because the merge
   assigns node ids in exactly the discovery order of the seed's
   single-threaded FIFO BFS (kept as the test suite's oracle), the
   resulting graph — ids, edge order, truncation point — is
   bit-identical regardless of the domain count, so every downstream
   table and test is reproducible.  Each worker steps processes through
   its own transition memo ([Config.stepper]): the protocol's [delta]
   runs once per (pid, local state) the worker meets, and [resume] once
   per response after it, while the objects' branches run on every
   step.  Dedup goes through {!Ctbl}, a
   sharded open-addressing table of (hash, id) slots that resolves ids
   through the node store, keyed on [Config.hash] — with hash-consed
   values that is a fold over cached per-element hashes, O(#processes)
   per configuration, so the build needs no incremental hashing
   machinery of its own.  (An earlier revision
   threaded parent-to-child element-hash arrays through the frontier to
   avoid rehashing whole value trees; interning made that redundant and
   it was deleted.)  Out-edges live in one store in CSR form
   (per-node slices via [offsets]), and only as packed (target, pid)
   steps: an edge's event is re-derived on demand from its source
   node by running the build's successor function again ({!out_edges}),
   so no second, boxed copy of the edges is ever kept, spilled or
   checkpointed.  Nodes, steps, offsets and the frontier buffers are
   append-only {!Chunks} stores: they grow a chunk at a time without
   copying what they hold, and the finished graph keeps them as built.

   The graph kernels the analyses share live here, one of each: the
   dedup table above, Tarjan's SCC pass ({!scc}, optionally restricted
   to a node mask) and a BFS path search ({!find_path}).  Both kernels
   read only the packed topology, so they never fault a spilled
   segment; {!find_path} re-derives just the edges it returns.

   Determinism caveat: everything stored or ordered here — node ids,
   edge order, [Config.hash] — is structural.  Value intern ids are
   allocation-order-dependent and must never feed into this module's
   hashes or orderings; see the invariant note in [Value].  They key
   the steppers' private tables only, whose answers are exactly the
   plain step's. *)

type edge = { pid : int; event : Config.event; target : int }

(* An opt-in reduction of the explored graph: [canon] quotients states
   by a process-symmetry group (successors are replaced by their orbit
   representative before dedup), and [sleep] prunes commuting schedules
   by expanding only the commit step of a configuration when one exists
   (a poised decide/abort, or an operation on an object the [frozen]
   hint certifies permanently inert).  [rname] is the user-facing mode
   name ("none" / "sym" / "sym+sleep"); it is recorded in stats and
   checkpoints, and a resumed build must use the same mode.  Soundness:
   DESIGN.md, "State-space reduction". *)
type reduction = {
  rname : string;
  canon : Canon.t;
  sleep : bool;
  frozen : (int -> Lbsa_spec.Value.t -> bool) option;
}

let no_reduction =
  { rname = "none"; canon = Canon.identity; sleep = false; frozen = None }

(* No pruning and the identity group: every step of every running
   process is an edge, between the very configurations it connects. *)
let keeps_every_step reduce = (not reduce.sleep) && Canon.is_identity reduce.canon

type reduction_stats = {
  rmode : string;
  group_order : int;
  canonized : int;  (* successors replaced by a smaller orbit representative *)
  ample_nodes : int;  (* expanded nodes where only the commit step was taken *)
  ample_pruned : int;  (* running processes not expanded at those nodes *)
}

(* Out-of-core spilling: once more than [spill_threshold] expanded
   (cold) states are resident, the oldest ones' configurations move to
   disk segments under [spill_dir] (their packed steps stay resident),
   and the dedup table, whose slots hold only (hash, id), resolves
   their ids from the segments from then on.  Spilling happens only at
   level boundaries, so it never races the expansion workers and never
   touches the live frontier. *)
type spill = { spill_dir : string; spill_threshold : int }

type spill_stats = {
  sp_segments : int;  (* segments written *)
  sp_bytes : int;  (* bytes across live segment files *)
  sp_seg_faults : int;  (* segment loads back from disk *)
  sp_frozen : int;  (* dedup entries whose key lives on disk: the spilled ids *)
  sp_key_faults : int;  (* dedup resolves of a spilled id, through a segment *)
}

let no_spill_stats =
  {
    sp_segments = 0;
    sp_bytes = 0;
    sp_seg_faults = 0;
    sp_frozen = 0;
    sp_key_faults = 0;
  }

type stats = {
  states : int;
  edges : int;
  levels : int;  (* BFS depth = number of frontiers expanded *)
  frontier_sizes : int array;  (* one entry per level *)
  peak_frontier : int;
  dedup_hits : int;  (* successors that were already-known states *)
  dedup_rate : float;  (* dedup_hits / successors generated *)
  probe : Ctbl.probe_stats;  (* dedup-table probe traffic *)
  shards : int;  (* dedup shard count the build ran with *)
  shard_stats : Ctbl.shard_stat array;  (* per-shard occupancy/probes *)
  spill : spill_stats;
  wall_s : float;
  states_per_sec : float;
  domains : int;
  truncated : bool;
  reduction : reduction_stats;
}

(* A partial exploration, frozen at a level boundary: the prefix
   [0, s_expanded) of nodes has final out-edges; everything at or after
   [s_expanded] is the unexpanded frontier.  Because the explorer is
   level-synchronous and completed levels are identical for any domain
   count, a suspended prefix — and therefore a resumed build — is too.
   Checkpoint files encode its configurations with {!Config_codec}
   (values are re-interned on load) and its packed steps as plain
   ints. *)
type suspended = {
  s_nodes : Config.t array;  (* every discovered configuration, id order *)
  s_expanded : int;
  s_targets : int array;  (* the expanded prefix's steps, packed as in [t] *)
  s_offsets : int array;  (* length s_expanded *)
  s_dedup_hits : int;
  s_n_succs : int;
  s_frontier_sizes : int array;  (* completed levels only *)
  s_reduction : string;  (* reduction mode name; a resume must match it *)
  s_substrate : string;  (* substrate name; a resume must match it too *)
  s_canonized : int;
  s_ample_nodes : int;
  s_ample_pruned : int;
}

(* The graph's one edge store: every edge packed into one
   always-resident chunked int store ({!Chunks}) as
   [(target lsl 8) lor pid].  Every
   pure-topology pass — SCC, the valence sweep, liveness cycle
   searches, path-search parents — reads only this store, so an
   out-of-core graph answers them with zero segment faults; an edge's
   event is re-derived from its source node only when a caller asks
   for the full [edge] record. *)
let pid_bits = 8
let max_processes = 1 lsl pid_bits

(* [build] refuses a machine with more processes than [pid_bits] name,
   once, before it explores anything. *)
exception Too_many_processes of int

let pack_step ~pid ~target = (target lsl pid_bits) lor pid

type t = {
  nodes : Config.t Chunks.t;  (* every id; those below [n_base] released *)
  n_base : int;  (* 0 unless the build spilled *)
  targets : int Chunks.t;  (* all edges, packed (target lsl 8) lor pid *)
  offsets : int Chunks.t;
      (* length nodes+1; node id owns [offsets(id), offsets(id+1)) *)
  segs : Segstore.t option;  (* configurations of the cold prefix [0, n_base) *)
  succ : Config.t -> (int * (Config.t * Config.event) list) list;
      (* the successor function every node was expanded with *)
  expanded : int;  (* nodes [0, expanded) have their out-edges *)
  initial : int;
  truncated : bool;  (* true whenever stop <> Done: results are partial *)
  stop : Supervisor.outcome;
  suspended : suspended option;
      (* present when the build stopped mid-exploration with a live
         frontier (deadline / cancellation / worker failure) *)
  stats : stats;
}

exception Truncated

let pp_reduction_stats ppf r =
  Fmt.pf ppf "reduction: %s (group order %d, %d canonized, %d ample nodes, %d steps pruned)"
    r.rmode r.group_order r.canonized r.ample_nodes r.ample_pruned

let pp_sharding ppf s =
  if s.shards > 1 then begin
    let occupied =
      Array.fold_left
        (fun a (sh : Ctbl.shard_stat) ->
          a + if sh.Ctbl.ss_size > 0 then 1 else 0)
        0 s.shard_stats
    in
    Fmt.pf ppf "@,shards: %d (%d occupied)" s.shards occupied
  end

let pp_spill ppf sp =
  if sp.sp_segments > 0 then
    Fmt.pf ppf
      "@,spill: %d segments (%d bytes), %d segment faults, %d frozen keys \
       (%d key faults)"
      sp.sp_segments sp.sp_bytes sp.sp_seg_faults sp.sp_frozen sp.sp_key_faults

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>states: %d%s@,edges: %d@,levels: %d (peak frontier %d)@,\
     dedup: %d hits (%.1f%% of %d successors)@,\
     probes: %d (%d skipped on hash, %d equal-confirms)@,\
     wall: %.3f s (%.0f states/s, %d domain%s)%a%a%a@]"
    s.states
    (if s.truncated then " [TRUNCATED]" else "")
    s.edges s.levels s.peak_frontier s.dedup_hits (100. *. s.dedup_rate)
    s.edges
    s.probe.Ctbl.probes s.probe.Ctbl.hash_skips s.probe.Ctbl.equal_confirms
    s.wall_s s.states_per_sec s.domains
    (if s.domains = 1 then "" else "s")
    (fun ppf r ->
      if r.rmode <> "none" then Fmt.pf ppf "@,%a" pp_reduction_stats r)
    s.reduction pp_sharding s pp_spill s.spill

(* --- parallel frontier expansion -------------------------------------- *)

(* Normalize one configuration under [reduce]: flush poised
   decide/abort steps into it (sleep layer), then replace it by its
   canonical orbit representative (symmetry layer).  Flushing first is
   sound in either order — it is equivariant under the group, since it
   applies the commuting commit steps of *every* poised process at
   once.  Returns the reduced configuration plus (flushed steps,
   canonizations). *)
let reduce_config ~reduce ~machine config =
  let config, flushed =
    if reduce.sleep then Canon.flush_commits ~machine config else (config, 0)
  in
  if Canon.is_identity reduce.canon then (config, flushed, 0)
  else
    let c = Canon.canonical reduce.canon config in
    (c, flushed, if c != config then 1 else 0)

(* All successors of one configuration, grouped per pid (one list cell
   and pair per *process*, not per successor), in the deterministic order
   the seed BFS used: pids ascending, object branches in spec order.
   With a nontrivial [reduce] this is the reduction step [build] shares
   with the seed-explorer oracle in the test suite, which must stay
   graph-identical to it: the ample rule first restricts expansion to
   the commit step when one exists, then every successor is flushed
   (poised decide/aborts committed in place) and replaced by its
   canonical orbit representative.  Returns the per-pid branch lists
   plus this node's reduction counters: successors canonized, and
   steps short-circuited by commit pruning (suppressed sibling
   expansions plus flushed decide/aborts). *)
let successors ?(substrate = Substrate.shm) ?stepper ~reduce ~machine ~specs
    config =
  let ample =
    if reduce.sleep then Canon.commit_pid ~machine ?frozen:reduce.frozen config
    else None
  in
  let canonized = ref 0 in
  let flushed = ref 0 in
  let branches_of pid =
    let bs =
      match stepper with
      | Some st -> Config.step_memo st config pid
      | None -> substrate.Substrate.step_branches ~machine ~specs config pid
    in
    if keeps_every_step reduce then bs
    else
      List.map
        (fun ((c' : Config.t), event) ->
          let c'', f, k = reduce_config ~reduce ~machine c' in
          flushed := !flushed + f;
          canonized := !canonized + k;
          (c'', event))
        bs
  in
  match ample with
  | Some pid ->
    let bs = branches_of pid in
    let pruned = List.length (Config.running config) - 1 in
    ([ (pid, bs) ], !canonized, pruned + !flushed)
  | None ->
    let acc = ref [] in
    for pid = Config.n_processes config - 1 downto 0 do
      if Config.is_running config pid then acc := (pid, branches_of pid) :: !acc
    done;
    (!acc, !canonized, !flushed)

(* Below this frontier size the spawn/join overhead outweighs the work:
   such a level runs on the calling domain alone. *)
let parallel_threshold = 256

(* A level is expanded and merged in blocks of this many frontier
   nodes.  A block's successors fit the minor heap many times over, so
   at one domain the ones that turn out to be dedup hits die young;
   it is also enough work per claim that the atomic counter and the
   per-block [run_shard] cost nothing next to it. *)
let block_size = 64

(* Expand every entry of the [frontier] store and feed each node's
   successors to [merge], in frontier order; [Ok ()] once all are
   merged.

   The level is an ordered block pipeline.  Workers claim blocks in
   ascending order from one atomic counter ([Supervisor.first_hit]
   claims indices the same way), expand each under its own
   [Supervisor.run_shard] and publish it in its slot.  The calling
   domain is a worker too, and the only merger: after every block it
   expands it merges each ready block at the cursor, in frontier order,
   and drops it; after the join it merges the rest.  At one domain this
   is expand a block, merge it, repeat.  Who expands a block never
   changes what it holds, and the merge order is the frontier order, so
   node ids, edges and truncation points are the same for every domain
   count.

   Fault isolation: merging never runs inside [run_shard], so a retried
   block (a pure recompute; no backoff) never registers twice.  Once a
   block exhausts its retries no worker claims another; every block
   below it had its claim made earlier and still completes, so the
   cursor stops at the lowest failing block, whose [Error (worker, exn,
   attempts)] is returned.  The caller then abandons the level whole. *)
let expand ~steppers ~substrate ~reduce ~machine ~specs ~merge frontier =
  let n = Chunks.length frontier in
  let n_blocks = (n + block_size - 1) / block_size in
  let slots = Array.init n_blocks (fun _ -> Atomic.make None) in
  let next = Atomic.make 0 in
  let failed = Atomic.make false in
  let cursor = ref 0 in
  let rec drain () =
    if !cursor < n_blocks then
      match Atomic.get slots.(!cursor) with
      | Some (Ok succs) ->
        Atomic.set slots.(!cursor) None;
        incr cursor;
        Array.iter merge succs;
        drain ()
      | Some (Error _) | None -> ()
  in
  let expand_block k b =
    let lo = b * block_size in
    Array.init (min block_size (n - lo)) (fun j ->
        successors ~substrate ~stepper:steppers.(k) ~reduce ~machine ~specs
          (Chunks.get frontier (lo + j)))
  in
  (* The flag is read before the claim, and a block, once taken,
     always runs: so every block below a failing one completes. *)
  let rec claim k =
    if not (Atomic.get failed) then begin
      let b = Atomic.fetch_and_add next 1 in
      if b < n_blocks then begin
        let r =
          match
            Supervisor.run_shard ~backoff_s:0. ~worker:k (fun () ->
                expand_block k b)
          with
          | Ok succs -> Ok succs
          | Error (exn, attempts) ->
            Atomic.set failed true;
            Error (k, exn, attempts)
        in
        Atomic.set slots.(b) (Some r);
        if k = 0 then drain ();
        claim k
      end
    end
  in
  (* A merge that raises (a spilled segment that cannot be read back)
     stops the claims and is re-raised once every domain is joined. *)
  let work k =
    match claim k with
    | () -> None
    | exception e ->
      Atomic.set failed true;
      Some e
  in
  let d =
    if n < parallel_threshold then 1 else min (Array.length steppers) n_blocks
  in
  List.iter (Option.iter raise) (Supervisor.spawn_join d work);
  drain ();
  if !cursor = n_blocks then Ok ()
  else
    match Atomic.get slots.(!cursor) with
    | Some (Error f) -> Error f
    | Some (Ok _) | None -> assert false

(* --- construction ------------------------------------------------------ *)

let default_max_states = 1_000_000
let default_spill_threshold = 500_000

(* What a store slot holds when it holds no node: one not yet
   written, one cut off, or one released after a spill. *)
let hole_config : Config.t = { locals = [||]; objects = [||]; status = [||] }

(* One physical copy per distinct object vector.  A build's
   registration hands each new node the first array it met with that
   value, so the nodes share object state their steps left unchanged
   (an of:3:2 build holds 657 distinct vectors for 104,871 nodes).  The
   table belongs to one build and dies with it; dedup hits never reach
   it. *)
module Vectors = Lbsa_spec.Value.Array_tbl

(* Every configuration in id order into [f], stopping at its first
   [Some]: the spilled prefix streamed from its segments (each read
   once, decoded one configuration at a time, past the segment cache),
   then the resident suffix. *)
let find_map_stored segs ~n_base nodes f =
  match Option.bind segs (fun st -> Segstore.find_map st f) with
  | Some _ as r -> r
  | None ->
    let rec go id =
      if id = Chunks.length nodes then None
      else match f id (Chunks.get nodes id) with None -> go (id + 1) | r -> r
    in
    go n_base

let build ?(max_states = default_max_states) ?domains
    ?(budget = Supervisor.Budget.unlimited) ?(substrate = Substrate.shm)
    ?(reduce = no_reduction) ?resume ?(shards = 1) ?spill
    ~(machine : Machine.t) ~(specs : Lbsa_spec.Obj_spec.t array) ~inputs () =
  if Array.length inputs > max_processes then
    raise (Too_many_processes (Array.length inputs));
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some d -> invalid_arg (Fmt.str "Graph.build: domains %d < 1" d)
    | None -> 1
  in
  let t0 = Unix.gettimeofday () in
  (* One transition memo per worker index of [expand]; they die with the
     build. *)
  let steppers = Array.init domains (fun _ -> Config.stepper ~machine ~specs) in
  (* Every id has a slot in [nodes]; those below [n_base] live in the
     segment store, and their chunks are released. *)
  let nodes = Chunks.create hole_config in
  let targets = Chunks.create 0 in
  let offsets = Chunks.create 0 in
  let n_base = ref 0 in
  let store =
    match spill with
    | None -> None
    | Some sp ->
      if sp.spill_threshold < 1 then
        invalid_arg "Graph.build: spill_threshold < 1";
      Some (Segstore.create ~dir:sp.spill_dir)
  in
  (* Configuration of a node id, wherever it lives — the dedup table's
     resolve callback.  A spilled id is a key fault. *)
  let key_faults = ref 0 in
  let config_of id =
    if id >= !n_base then Chunks.get nodes id
    else begin
      incr key_faults;
      Segstore.node (Option.get store) id
    end
  in
  let tbl = Ctbl.create ~shards ~resolve:config_of 16 in
  (* Registration runs in the merging domain only, so [vectors] needs no
     lock. *)
  let vectors = Vectors.create 64 in
  let share (config : Config.t) =
    match Vectors.find_opt vectors config.objects with
    | Some objects when objects != config.objects -> { config with objects }
    | Some _ -> config
    | None ->
      Vectors.add vectors config.objects config.objects;
      config
  in
  let dedup_hits = ref 0 in
  let n_succs = ref 0 in
  let canonized = ref 0 in
  let ample_nodes = ref 0 in
  let ample_pruned = ref 0 in
  let frontier_sizes = Chunks.create 0 in
  (* Two frontier buffers, swapped each level and refilled in place.
     Hashing a candidate successor is [Config.hash]: a fold over the
     elements' cached hash fields, so there is nothing to carry between
     parent and child any more. *)
  let cur = ref (Chunks.create hole_config) in
  let nxt = ref (Chunks.create hole_config) in
  (* Nodes whose out-edges have been finalized; always a level boundary. *)
  let expanded = ref 0 in
  let register config =
    let config = share config in
    let id = Chunks.length nodes in
    Chunks.push nodes config;
    Chunks.push !nxt config;
    id
  in
  (match resume with
  | None ->
    let init, _, _ =
      reduce_config ~reduce ~machine
        (Config.initial ~machine ~specs ~inputs)
    in
    ignore
      (Ctbl.find_or_add tbl init ~hash:(Config.hash init)
         ~if_absent:register)
  | Some s ->
    (* Rebuild the dedup table and buffers from a suspended prefix.  The
       stored id must win over allocation order, so insertion bypasses
       [register]; the frontier is exactly the unexpanded suffix.  A
       resumed build starts fully resident (a suspended exploration is
       materialized); spilling, if enabled, re-engages as it grows. *)
    if s.s_reduction <> reduce.rname then
      invalid_arg
        (Fmt.str
           "Graph.build: resume reduction mode %S does not match requested %S"
           s.s_reduction reduce.rname);
    if s.s_substrate <> substrate.Substrate.sname then
      invalid_arg
        (Fmt.str
           "Graph.build: resume substrate %S does not match requested %S"
           s.s_substrate substrate.Substrate.sname);
    Array.iteri
      (fun id config ->
        let config = share config in
        Chunks.push nodes config;
        ignore
          (Ctbl.find_or_add tbl config ~hash:(Config.hash config)
             ~if_absent:(fun _ -> id));
        if id >= s.s_expanded then Chunks.push !nxt config)
      s.s_nodes;
    Array.iter (Chunks.push targets) s.s_targets;
    Array.iter (Chunks.push offsets) s.s_offsets;
    Array.iter (Chunks.push frontier_sizes) s.s_frontier_sizes;
    dedup_hits := s.s_dedup_hits;
    n_succs := s.s_n_succs;
    canonized := s.s_canonized;
    ample_nodes := s.s_ample_nodes;
    ample_pruned := s.s_ample_pruned;
    expanded := s.s_expanded);
  (* Spill the cold prefix down to [threshold / 2] resident expanded
     nodes, in segment chunks; runs at a level boundary only (single
     threaded, frontier untouched — frontier ids are >= expanded and
     the cut stays strictly below it).  After the segments are written,
     the node store releases the spilled ids (whole chunks let go, the
     rest cleared, nothing moved); from then on the dedup table resolves
     them through the segments. *)
  let maybe_spill () =
    match (spill, store) with
    | Some sp, Some st when !expanded - !n_base > sp.spill_threshold ->
      let keep = max 1 (sp.spill_threshold / 2) in
      let cut_to = !expanded - keep in
      let seg_len = min 65536 (max 64 (sp.spill_threshold / 4)) in
      let lo = ref !n_base in
      while !lo < cut_to do
        let hi = min cut_to (!lo + seg_len) in
        Segstore.write_segment st ~lo:!lo ~hi (Chunks.get nodes);
        lo := hi
      done;
      Chunks.release_below nodes cut_to;
      n_base := cut_to
    | _ -> ()
  in
  (* One node's successors, registered in frontier order: nodes are
     merged in id order, so this records offsets(id). *)
  let merge (succ_list, n_canon, n_pruned) =
    canonized := !canonized + n_canon;
    if n_pruned > 0 then begin
      incr ample_nodes;
      ample_pruned := !ample_pruned + n_pruned
    end;
    Chunks.push offsets (Chunks.length targets);
    List.iter
      (fun (pid, branches) ->
        List.iter
          (fun ((config' : Config.t), _event) ->
            incr n_succs;
            let hash = Config.hash config' in
            let before = Ctbl.length tbl in
            let target =
              Ctbl.find_or_add tbl config' ~hash ~if_absent:register
            in
            if Ctbl.length tbl = before then incr dedup_hits;
            Chunks.push targets (pack_step ~pid ~target))
          branches)
      succ_list
  in
  let stop = ref Supervisor.Done in
  while !stop = Supervisor.Done && Chunks.length !nxt > 0 do
    (* Budget and quota polls at the level boundary: the only place a
       partial graph can stop and stay identical for every domain count.
       The quota fires BEFORE a level is expanded, never inside one, so
       every expanded node keeps its complete out-edge list and the
       unexpanded frontier stays in [suspended] — that is what makes a
       quota-truncated build checkpointable and resumable.  (A level's
       successors are always registered in full, so the node count may
       overshoot [max_states] by a whole level's growth.) *)
    match Supervisor.Budget.stop budget with
    | Some o -> stop := o
    | None when Chunks.length nodes >= max_states ->
      stop := Supervisor.Truncated
    | None -> (
      let f = !nxt in
      nxt := !cur;
      cur := f;
      Chunks.truncate !nxt 0;
      let n0 = Chunks.length nodes and steps0 = Chunks.length targets in
      let hits0 = !dedup_hits and succs0 = !n_succs in
      let canon0 = !canonized and ample0 = !ample_nodes in
      let pruned0 = !ample_pruned in
      match expand ~steppers ~substrate ~reduce ~machine ~specs ~merge f with
      | Error (worker, exn, attempts) ->
        (* This level's expansion failed even after retries.  Every
           completed level is kept; this one is abandoned whole (its
           nodes stay frontier), so the surviving prefix is still a
           level boundary and domain-count-deterministic.  The blocks
           merged before the failing one are taken back; the dedup
           table keeps their entries, but the build stops here and
           drops it. *)
        Chunks.truncate nodes n0;
        Chunks.truncate targets steps0;
        Chunks.truncate offsets !expanded;
        dedup_hits := hits0;
        n_succs := succs0;
        canonized := canon0;
        ample_nodes := ample0;
        ample_pruned := pruned0;
        stop := Supervisor.Worker_failed { worker; exn; attempts }
      | Ok () ->
        Chunks.push frontier_sizes (Chunks.length f);
        expanded := !expanded + Chunks.length f;
        maybe_spill ())
  done;
  let stop = !stop in
  let n_nodes = Chunks.length nodes in
  let suspended =
    if !expanded < n_nodes then
      Some
        {
          (* Materialized over resident + spilled storage in one
             streamed walk. *)
          s_nodes =
            (let all = Array.make n_nodes hole_config in
             ignore
               (find_map_stored store ~n_base:!n_base nodes (fun id config ->
                    all.(id) <- config;
                    None));
             all);
          s_expanded = !expanded;
          s_targets = Chunks.to_array targets;
          s_offsets = Chunks.to_array offsets;
          s_dedup_hits = !dedup_hits;
          s_n_succs = !n_succs;
          s_frontier_sizes = Chunks.to_array frontier_sizes;
          s_reduction = reduce.rname;
          s_substrate = substrate.Substrate.sname;
          s_canonized = !canonized;
          s_ample_nodes = !ample_nodes;
          s_ample_pruned = !ample_pruned;
        }
    else None
  in
  let n_all_edges = Chunks.length targets in
  (* Unexpanded frontier nodes (partial stop) get empty out-edge slices
     so the CSR offsets invariant (length nodes+1) holds for readers. *)
  for _ = !expanded to n_nodes do
    Chunks.push offsets n_all_edges
  done;
  let truncated = stop <> Supervisor.Done in
  let wall_s = Unix.gettimeofday () -. t0 in
  let frontier_sizes = Chunks.to_array frontier_sizes in
  let spill_stats =
    match store with
    | None -> no_spill_stats
    | Some st ->
      {
        sp_segments = Segstore.n_segments st;
        sp_bytes = Segstore.spilled_bytes st;
        sp_seg_faults = Segstore.faults st;
        sp_frozen = !n_base;
        sp_key_faults = !key_faults;
      }
  in
  let stats =
    {
      states = n_nodes;
      edges = n_all_edges;
      levels = Array.length frontier_sizes;
      frontier_sizes;
      peak_frontier = Array.fold_left max 0 frontier_sizes;
      dedup_hits = !dedup_hits;
      dedup_rate =
        (if !n_succs = 0 then 0. else float !dedup_hits /. float !n_succs);
      probe = Ctbl.probe_stats tbl;
      shards;
      shard_stats = Ctbl.shard_stats tbl;
      spill = spill_stats;
      wall_s;
      states_per_sec =
        (if wall_s > 0. then float n_nodes /. wall_s else float n_nodes);
      domains;
      truncated;
      reduction =
        {
          rmode = reduce.rname;
          group_order = Canon.order reduce.canon;
          canonized = !canonized;
          ample_nodes = !ample_nodes;
          ample_pruned = !ample_pruned;
        };
    }
  in
  {
    nodes;
    n_base = !n_base;
    targets;
    offsets;
    segs = store;
    succ =
      (fun c ->
        let succs, _, _ = successors ~substrate ~reduce ~machine ~specs c in
        succs);
    expanded = !expanded;
    initial = 0;
    truncated;
    stop;
    suspended;
    stats;
  }

(* Constructor for checkpoint thawing: [suspended] is private in the
   interface (only [build] and [Checkpoint] may produce one), so the
   checkpoint loader goes through here. *)
let suspended_of_parts ~nodes ~expanded ~targets ~offsets ~dedup_hits ~n_succs
    ~frontier_sizes ~reduction ~substrate ~canonized ~ample_nodes ~ample_pruned
    =
  if expanded < 0 || expanded > Array.length nodes then
    invalid_arg "Graph.suspended_of_parts: expanded out of range";
  if Array.length offsets <> expanded then
    invalid_arg "Graph.suspended_of_parts: offsets length <> expanded";
  let n_steps = Array.length targets and n_nodes = Array.length nodes in
  if
    Array.exists (fun o -> o < 0 || o > n_steps) offsets
    || Array.exists (fun s -> s lsr pid_bits >= n_nodes) targets
  then invalid_arg "Graph.suspended_of_parts: step out of range";
  {
    s_nodes = nodes;
    s_expanded = expanded;
    s_targets = targets;
    s_offsets = offsets;
    s_dedup_hits = dedup_hits;
    s_n_succs = n_succs;
    s_frontier_sizes = frontier_sizes;
    s_reduction = reduction;
    s_substrate = substrate;
    s_canonized = canonized;
    s_ample_nodes = ample_nodes;
    s_ample_pruned = ample_pruned;
  }

(* --- accessors ---------------------------------------------------------- *)

let n_nodes t = Chunks.length t.nodes
let n_edges t = Chunks.length t.targets
let stats t = t.stats

let node t id =
  if id >= t.n_base then Chunks.get t.nodes id
  else Segstore.node (Option.get t.segs) id

let offset t id = Chunks.get t.offsets id
let out_degree t id = offset t (id + 1) - offset t id

(* Packed-topology readers: pid and target straight out of the resident
   [targets] store — no segment faults, no allocation. *)
let step_pid t i = Chunks.get t.targets i land (max_processes - 1)
let step_target t i = Chunks.get t.targets i lsr pid_bits

(* Full edge records, re-derived: node [u]'s successor list, flattened
   in order, is exactly its CSR slice, so re-running the build's
   successor function on [u] recovers each step's event.  The stored
   slice length, each pid and each target's configuration are checked
   against the re-derivation, and any disagreement raises instead of
   pairing a step with a wrong event.  Unexpanded frontier nodes of a
   partial graph keep their empty slices (expanding them here would
   report edges the build never took). *)
let out_edges t u =
  if u >= t.expanded then []
  else
    let lo = offset t u in
    let steps =
      List.concat_map
        (fun (pid, bs) -> List.map (fun (c, event) -> (pid, c, event)) bs)
        (t.succ (node t u))
    in
    let drift () =
      failwith
        (Fmt.str
           "Graph.out_edges: node %d: re-derived successors disagree with \
            the stored steps" u)
    in
    if List.length steps <> out_degree t u then drift ();
    List.mapi
      (fun k (pid, c, event) ->
        let target = step_target t (lo + k) in
        if step_pid t (lo + k) <> pid || not (Config.equal (node t target) c)
        then drift ();
        { pid; event; target })
      steps

let iter_out_steps t id f =
  for i = offset t id to offset t (id + 1) - 1 do
    f (step_pid t i) (step_target t i)
  done

let exists_out_step t id p =
  let hi = offset t (id + 1) in
  let rec go i = i < hi && (p (step_pid t i) (step_target t i) || go (i + 1)) in
  go (offset t id)

let find_map_node t f = find_map_stored t.segs ~n_base:t.n_base t.nodes f

let iter_nodes f t = ignore (find_map_node t (fun id config -> f id config; None))

let find_id t p =
  let n = n_nodes t in
  let rec go id = if id >= n then None else if p id then Some id else go (id + 1) in
  go 0

let find_node t p =
  find_map_node t (fun id config -> if p id config then Some id else None)

let require_complete t = if t.truncated then raise Truncated

(* BFS from [src] over the packed targets, through nodes in [mask]:
   scanning nodes in BFS order and each node's out-edges in CSR order,
   the first edge [accept pid target] takes ends the search, and the
   path is the chain of discovering edges from [src] to that edge's
   source, plus the edge itself.  The accepted edge may lead anywhere
   (back to [src], say); only the edges on the returned path are
   re-derived, one {!out_edges} call per step. *)
let find_path ?mask t ~src ~accept =
  let n = n_nodes t in
  let inside v = match mask with None -> true | Some m -> m.(v) in
  let parent = Array.make n (-1) in  (* discovering edge index *)
  let from = Array.make n (-1) in  (* that edge's source *)
  let seen = Array.make n false in
  let queue = Array.make (max n 1) src in  (* each node enters once *)
  seen.(src) <- true;
  let head = ref 0 and tail = ref 1 in
  let found = ref (-1) and found_at = ref src in
  while !found < 0 && !head < !tail do
    let u = queue.(!head) in
    incr head;
    let i = ref (offset t u) and hi = offset t (u + 1) in
    while !found < 0 && !i < hi do
      let v = step_target t !i in
      if accept (step_pid t !i) v then begin
        found := !i;
        found_at := u
      end
      else if inside v && not seen.(v) then begin
        seen.(v) <- true;
        parent.(v) <- !i;
        from.(v) <- u;
        queue.(!tail) <- v;
        incr tail
      end;
      incr i
    done
  done;
  if !found < 0 then None
  else
    let edge u i = List.nth (out_edges t u) (i - offset t u) in
    let rec walk v acc =
      if v = src then acc else walk from.(v) (edge from.(v) parent.(v) :: acc)
    in
    Some (walk !found_at [ edge !found_at !found ])

(* Shortest path (in steps) from the initial node to [target], as the
   list of edges taken: the schedule that reproduces a violating
   configuration, replayable with Scheduler.fixed. *)
let shortest_path t ~target =
  if target = t.initial then Some []
  else find_path t ~src:t.initial ~accept:(fun _pid v -> v = target)

let schedule_of_path edges = List.map (fun e -> e.pid) edges

(* Strongly connected components (iterative Tarjan), used for the
   valence, wait-freedom and livelock analyses.  Returns the component
   id of each node and the component count; ids are assigned in
   topological order of the condensation (sources first).  One DFS over
   the flat CSR edge array with preallocated int-array stacks — no
   reverse-graph build, no per-node allocation.  With [mask], the pass
   runs on the subgraph of the nodes it marks: edges into unmarked
   nodes are ignored and unmarked nodes keep component -1. *)
let scc ?mask t =
  let n = n_nodes t in
  let inside v = match mask with None -> true | Some m -> m.(v) in
  (* The packed targets store is the flattened form the DFS wants —
     resident even for out-of-core graphs, so the whole pass runs with
     zero segment faults (and RAM builds skip the flatten copy an
     earlier revision needed). *)
  let index = Array.make n (-1) in  (* discovery order; -1 = unvisited *)
  let lowlink = Array.make n 0 in
  (* A node is on Tarjan's component stack iff it has been discovered
     and not yet assigned a component, so no separate on-stack flag. *)
  let comp = Array.make n (-1) in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Tarjan's component stack plus an explicit DFS stack. *)
  let comp_stack = Array.make (max n 1) 0 in
  let comp_sp = ref 0 in
  let stack_node = Array.make (max n 1) 0 in
  let stack_edge = Array.make (max n 1) 0 in
  let push v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    comp_stack.(!comp_sp) <- v;
    incr comp_sp
  in
  for start = 0 to n - 1 do
    if index.(start) = -1 && inside start then begin
      let sp = ref 0 in
      stack_node.(0) <- start;
      stack_edge.(0) <- offset t start;
      push start;
      while !sp >= 0 do
        let u = stack_node.(!sp) in
        let ei = stack_edge.(!sp) in
        if ei >= offset t (u + 1) then begin
          (* u finished: emit its component if it is a root, then fold
             its lowlink into its DFS parent. *)
          if lowlink.(u) = index.(u) then begin
            let c = !next_comp in
            incr next_comp;
            let rec pop () =
              decr comp_sp;
              let v = comp_stack.(!comp_sp) in
              comp.(v) <- c;
              if v <> u then pop ()
            in
            pop ()
          end;
          decr sp;
          if !sp >= 0 then begin
            let p = stack_node.(!sp) in
            if lowlink.(u) < lowlink.(p) then lowlink.(p) <- lowlink.(u)
          end
        end
        else begin
          stack_edge.(!sp) <- ei + 1;
          let v = step_target t ei in
          if not (inside v) then ()
          else if index.(v) = -1 then begin
            push v;
            incr sp;
            stack_node.(!sp) <- v;
            stack_edge.(!sp) <- offset t v
          end
          else if comp.(v) = -1 && index.(v) < lowlink.(u) then
            lowlink.(u) <- index.(v)
        end
      done
    end
  done;
  (* Tarjan emits components sinks-first; flip the numbering so ids are
     in topological order of the condensation, sources first. *)
  let nc = !next_comp in
  for u = 0 to n - 1 do
    if comp.(u) >= 0 then comp.(u) <- nc - 1 - comp.(u)
  done;
  (comp, nc)
