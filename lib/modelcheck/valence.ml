open Lbsa_spec
open Lbsa_runtime

(* Valence (Fischer-Lynch-Paterson, as used throughout Sections 4-5):
   a configuration C is v-valent if no configuration reachable from C
   contains a decision different from v; bivalent if both 0 and 1 are
   reachable decisions.

   We compute, for every node of a configuration graph, the set of values
   that appear as decisions in configurations reachable from it (plus
   whether an abort is reachable).  The decision domain of a real graph is
   tiny (a handful of values), so we intern decision values to small ints
   (first-occurrence order; a pointer-equality scan, since values are
   hash-consed) and represent each node's reachable-decision set as a
   bitmask.  The
   reachable set is constant on every strongly connected component, so one
   reverse-topological pass over the [Graph.scc] condensation computes the
   exact fixpoint — cycles (spinning protocols) included — with a single
   [lor] per edge.

   The seed worklist fixpoint over value sets is the test suite's
   differential oracle for this pass. *)

type classification =
  | Valent of Value.t  (* exactly one reachable decision value *)
  | Bivalent  (* at least two reachable decision values *)
  | Undecided  (* no reachable decision at all *)

type analysis = {
  graph : Graph.t;
  table : Value.t array;  (* interned decision id -> value *)
  masks : int array;  (* reachable decision ids per node, as a bitmask *)
  aborts : bool array;
}

(* One pass over the condensation: [Graph.scc] numbers components in
   topological order (sources first), so processing components in
   descending id order sees every successor component finalized.  Edges
   internal to a component only re-union the component with itself. *)
let analyze (graph : Graph.t) =
  let n = Graph.n_nodes graph in
  let comp, n_comps = Graph.scc graph in
  let cmask = Array.make n_comps 0 in
  let cabort = Array.make n_comps false in
  (* Intern every decision value (first occurrence in node-id order)
     and seed the per-component masks, in one pass over the nodes.  The
     decision domain of any graph we build is a handful of values — far
     below the word size (the guard is belt-and-braces for pathological
     inputs) — and [Value.equal] on hash-consed values is pointer
     equality, so the linear table scan is a few pointer compares.  Bit
     positions come from first-occurrence order, never from intern ids
     (which are allocation-order-dependent), so masks are
     reproducible. *)
  let table = ref [||] in
  let count = ref 0 in
  let intern v =
    let tbl = !table in
    let k = !count in
    let rec find i =
      if i >= k then begin
        if k >= Sys.int_size - 1 then
          invalid_arg "Valence.analyze: decision domain exceeds word size";
        if k = Array.length tbl then begin
          let a = Array.make (max 4 (2 * k)) v in
          Array.blit tbl 0 a 0 k;
          table := a
        end;
        !table.(k) <- v;
        count := k + 1;
        k
      end
      else if Value.equal tbl.(i) v then i
      else find (i + 1)
    in
    find 0
  in
  Graph.iter_nodes
    (fun u config ->
      let st = config.Config.status in
      let c = comp.(u) in
      for p = 0 to Array.length st - 1 do
        match st.(p) with
        | Config.Decided v -> cmask.(c) <- cmask.(c) lor (1 lsl intern v)
        | Config.Aborted -> cabort.(c) <- true
        | Config.Running | Config.Crashed -> ()
      done)
    graph;
  let table = Array.sub !table 0 !count in
  (* Group node ids by component (counting sort into a CSR layout) so the
     reverse-topological sweep touches each edge exactly once. *)
  let counts = Array.make (n_comps + 1) 0 in
  for u = 0 to n - 1 do
    counts.(comp.(u) + 1) <- counts.(comp.(u) + 1) + 1
  done;
  for c = 1 to n_comps do
    counts.(c) <- counts.(c) + counts.(c - 1)
  done;
  let members = Array.make n 0 in
  let cursor = Array.copy counts in
  for u = 0 to n - 1 do
    let c = comp.(u) in
    members.(cursor.(c)) <- u;
    cursor.(c) <- cursor.(c) + 1
  done;
  (* The sweep needs only edge targets, so it reads the packed targets
     array ({!Graph.iter_out_steps}) — on an out-of-core graph this
     whole pass (like the SCC above) runs with zero segment faults;
     only the status seeding above touched configurations, in one
     streamed walk ({!Graph.iter_nodes}). *)
  for c = n_comps - 1 downto 0 do
    for i = counts.(c) to counts.(c + 1) - 1 do
      let u = members.(i) in
      Graph.iter_out_steps graph u (fun _pid target ->
          let c' = comp.(target) in
          cmask.(c) <- cmask.(c) lor cmask.(c');
          if cabort.(c') then cabort.(c) <- true)
    done
  done;
  let masks = Array.make n 0 in
  let aborts = Array.make n false in
  for u = 0 to n - 1 do
    let c = comp.(u) in
    masks.(u) <- cmask.(c);
    aborts.(u) <- cabort.(c)
  done;
  { graph; table; masks; aborts }

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

let decision_set t id =
  let m = t.masks.(id) in
  let vs = ref [] in
  for i = Array.length t.table - 1 downto 0 do
    if m land (1 lsl i) <> 0 then vs := t.table.(i) :: !vs
  done;
  List.sort Value.compare !vs

let classify t id =
  let m = t.masks.(id) in
  if m = 0 then Undecided
  else if m land (m - 1) = 0 then
    (* Single bit set: find it. *)
    let rec bit i = if m = 1 lsl i then i else bit (i + 1) in
    Valent t.table.(bit 0)
  else Bivalent

let is_bivalent t id =
  let m = t.masks.(id) in
  m <> 0 && m land (m - 1) <> 0

let is_valent t id v =
  match classify t id with
  | Valent v' -> Value.equal v v'
  | Bivalent | Undecided -> false

let abort_reachable t id = t.aborts.(id)

let pp_classification ppf = function
  | Valent v -> Fmt.pf ppf "%a-valent" Value.pp v
  | Bivalent -> Fmt.string ppf "bivalent"
  | Undecided -> Fmt.string ppf "undecided"

(* Summary counts over the whole graph, for experiment tables. *)
type summary = {
  n_nodes : int;
  n_bivalent : int;
  n_univalent : int;
  n_undecided : int;
}

let summarize t =
  let n = Graph.n_nodes t.graph in
  let biv = ref 0 and uni = ref 0 and und = ref 0 in
  for id = 0 to n - 1 do
    match popcount t.masks.(id) with
    | 0 -> incr und
    | 1 -> incr uni
    | _ -> incr biv
  done;
  { n_nodes = n; n_bivalent = !biv; n_univalent = !uni; n_undecided = !und }
