open Lbsa_spec
open Lbsa_runtime
module Pac = Lbsa_objects.Pac

(* Process-symmetry quotient for the explorer, plus the commit-step
   vocabulary shared with the bivalency toolkit.

   A symmetry group is described by its structure, never by its
   elements: which pids stay fixed, which pids are interchangeable, and,
   for the partition protocol, which blocks of pids move together with
   their objects.  [canonical] returns the [Config.compare]-least
   element of the orbit with one stable sort of the pids per call: the
   sort key is [Config.compare]'s own order restricted to what the
   group can move (locals, then what the objects say about each pid,
   then statuses), so the sorted arrangement is the least image, and
   pids that still tie give byte-identical images whichever way they
   land.  The argument for each group is in DESIGN.md, "Finding the
   orbit minimum"; soundness of the quotient itself is in "State-space
   reduction".  The constructors below only build groups for protocols
   whose step machines are certified equivariant: [exchangeable]
   requires a pid-independent delta over pid-free object states, [dac]
   fixes the distinguished process 0 and renames PAC labels,
   [kset_partition] permutes within groups and whole groups together
   with their consensus objects. *)

type shape =
  | Exchangeable of int array  (* the movable pids, ascending *)
  | Dac  (* p0 fixed, p1..p(n-1) movable, PAC labels renamed *)
  | Kset of { m : int; k : int }  (* k blocks of m, objects carried *)

type t = { n : int; order : int; shape : shape }

let identity = { n = 0; order = 1; shape = Exchangeable [||] }
let is_identity g = g.order = 1
let order g = g.order

(* Group orders saturate at [max_int] rather than wrap. *)
let mul a b = if b <> 0 && a > max_int / b then max_int else a * b
let rec factorial i = if i <= 1 then 1 else mul i (factorial (i - 1))
let rec power b e = if e <= 0 then 1 else mul b (power b (e - 1))

let fits g (config : Config.t) =
  if Array.length config.locals <> g.n then
    invalid_arg "Canon.canonical: process count does not fit the group";
  let objects =
    match g.shape with
    | Exchangeable _ -> None
    | Dac -> Some 1
    | Kset { k; _ } -> Some k
  in
  match objects with
  | Some o when o <> Array.length config.objects ->
    invalid_arg "Canon.canonical: object count does not fit the group"
  | _ -> ()

(* The arrangement that fills [slots] (ascending) with the pids they
   hold, sorted by [cmp], and leaves every other pid in place. *)
let sort_slots n slots cmp =
  let sorted = Array.copy slots in
  Array.stable_sort cmp sorted;
  let proc = Array.init n Fun.id in
  Array.iteri (fun j slot -> proc.(slot) <- sorted.(j)) slots;
  proc

(* The least arrangement of [config]'s pids: slot [i] of the least image
   carries old process [proc.(i)].  Each key is [Config.compare]'s order
   restricted to what the group moves, and every sort is stable, so an
   argument that is already least gets the identity back. *)
let least g (config : Config.t) =
  let locals = config.locals and status = config.status in
  let by_local p q = Value.compare locals.(p) locals.(q) in
  let by_status p q = Config.compare_status status.(p) status.(q) in
  let by_local_status p q =
    let c = by_local p q in
    if c <> 0 then c else by_status p q
  in
  match g.shape with
  | Exchangeable movable -> sort_slots g.n movable by_local_status
  | Dac ->
    (* Process p proposes under label p+1, so the PAC says two things
       about p: its entry V[p+1], and whether it holds the last label L.
       The image's PAC compares V label by label, then L, so ties on
       the local are broken by the entry, then by holding L. *)
    let pac = config.objects.(0) in
    let entry = Array.init g.n (fun p -> Pac.v_entry pac (p + 1)) in
    let holder =
      match Value.to_int (Pac.label pac) with Some l -> l - 1 | None -> -1
    in
    sort_slots g.n
      (Array.init (g.n - 1) succ)
      (fun p q ->
        let c = by_local p q in
        if c <> 0 then c
        else
          let c = Value.compare entry.(p) entry.(q) in
          if c <> 0 then c
          else
            let c = Bool.compare (p <> holder) (q <> holder) in
            if c <> 0 then c else by_status p q)
  | Kset { m; k } ->
    (* Sort each block, then order the blocks by their sorted locals,
       their object, then their sorted statuses.  The pids of a block
       all belong to group pid/m, whose object it carries. *)
    let blocks =
      Array.init k (fun b ->
          let block = Array.init m (fun i -> (b * m) + i) in
          Array.stable_sort by_local_status block;
          block)
    in
    let rec lex cmp a b i =
      if i = m then 0
      else
        let c = cmp a.(i) b.(i) in
        if c <> 0 then c else lex cmp a b (i + 1)
    in
    Array.stable_sort
      (fun a b ->
        let c = lex by_local a b 0 in
        if c <> 0 then c
        else
          let c =
            Value.compare config.objects.(a.(0) / m) config.objects.(b.(0) / m)
          in
          if c <> 0 then c else lex by_status a b 0)
      blocks;
    Array.concat (Array.to_list blocks)

(* The image of [config] under the arrangement [proc]. *)
let image g (config : Config.t) proc =
  let objects =
    match g.shape with
    | Exchangeable _ -> config.objects
    | Dac ->
      (* old label l names old process l-1, now at slot inv.(l-1) *)
      let inv = Array.make g.n 0 in
      Array.iteri (fun i p -> inv.(p) <- i) proc;
      [| Pac.rename_labels (fun l -> inv.(l - 1) + 1) config.objects.(0) |]
    | Kset { m; k } -> Array.init k (fun j -> config.objects.(proc.(j * m) / m))
  in
  {
    Config.locals = Array.map (fun p -> config.locals.(p)) proc;
    objects;
    status = Array.map (fun p -> config.status.(p)) proc;
  }

let canonical g config =
  if is_identity g then config
  else begin
    fits g config;
    let proc = least g config in
    let rec moved i = i < g.n && (proc.(i) <> i || moved (i + 1)) in
    if moved 0 then image g config proc else config
  end

(* --- group constructors ------------------------------------------------ *)

let exchangeable ~n ?(fixed = []) () =
  if n < 0 then invalid_arg "Canon.exchangeable: n must be >= 0";
  let movable =
    List.filter
      (fun i -> not (List.mem i fixed))
      (Lbsa_util.Listx.range 0 (n - 1))
  in
  {
    n;
    order = factorial (List.length movable);
    shape = Exchangeable (Array.of_list movable);
  }

(* n-DAC from an n-PAC (Section 3): the distinguished process 0 is
   fixed; permuting processes 1..n-1 renames the PAC labels they
   propose under (process p uses label p+1). *)
let dac ~n =
  if n < 1 then invalid_arg "Canon.dac: n must be >= 1";
  { n; order = factorial (n - 1); shape = Dac }

(* The k*m-process partition protocol (Section 6): process p belongs to
   group p/m and proposes to consensus object p/m.  The symmetry group
   is (within-group permutations)^k x (group permutations), with the k
   identical consensus objects permuted along with the groups.  Object
   states are pid-free, so no state rewrite is needed. *)
let kset_partition ~m ~k =
  if m < 1 || k < 1 then invalid_arg "Canon.kset_partition";
  {
    n = m * k;
    order = mul (power (factorial m) k) (factorial k);
    shape = Kset { m; k };
  }

(* --- poised / commit steps --------------------------------------------- *)

(* The poised-step vocabulary of the bivalency toolkit (what each
   running process does next), shared here so both the Section 4/5
   proof mechanization ([Bivalency]) and the explorer's ample-step
   pruning speak the same language. *)
type poised =
  | Poised_op of { obj : int; op : Op.t }
  | Poised_decide of Value.t
  | Poised_abort

let poised_steps ~(machine : Machine.t) (config : Config.t) =
  List.map
    (fun pid ->
      match machine.delta ~pid config.locals.(pid) with
      | Machine.Invoke { obj; op; _ } -> (pid, Poised_op { obj; op })
      | Machine.Decide v -> (pid, Poised_decide v)
      | Machine.Abort -> (pid, Poised_abort))
    (Config.running config)

(* The ample ("commit") step of a configuration, if any: the least
   running process whose next step is invisible to every other process —
   a decide/abort (writes only its own status) or an operation on a
   [frozen] object (protocol-certified: state unchanged, constant
   response, forever — e.g. an upset PAC).  Such a step commutes with
   every step of every other process and stays enabled, so expanding it
   alone is a valid singleton persistent set; see DESIGN.md. *)
(* Flush every poised decide/abort into the configuration: each such
   step writes only its own process's status and commutes with every
   step of every other process, so a configuration and its flushed form
   reach exactly the same decisions and violations (DESIGN.md).  The
   explorer's sleep layer normalizes successors through this, so
   pre-decide interleavings never materialize as distinct nodes.  One
   pass suffices — a decide/abort changes no local state, so it cannot
   make another process decide-poised.  The result matches what the
   corresponding [Config.step_branches] steps would build (statuses
   updated, locals left stale), so flushed configurations are genuinely
   reachable ones.  Returns the flushed configuration (the argument
   itself, physically, when nothing was poised) and the step count. *)
let flush_commits ~machine (config : Config.t) =
  let steps = ref 0 in
  let status = ref [||] in
  List.iter
    (fun (pid, step) ->
      let commit st =
        if !steps = 0 then status := Array.copy config.Config.status;
        !status.(pid) <- st;
        incr steps
      in
      match step with
      | Poised_decide v -> commit (Config.Decided v)
      | Poised_abort -> commit Config.Aborted
      | Poised_op _ -> ())
    (poised_steps ~machine config);
  if !steps = 0 then (config, 0)
  else ({ config with Config.status = !status }, !steps)

let commit_pid ~machine ?frozen (config : Config.t) =
  let frozen_ok =
    match frozen with None -> fun _ _ -> false | Some f -> f
  in
  let rec scan = function
    | [] -> None
    | (pid, step) :: rest -> (
      match step with
      | Poised_decide _ | Poised_abort -> Some pid
      | Poised_op { obj; _ } ->
        if frozen_ok obj config.objects.(obj) then Some pid else scan rest)
  in
  scan (poised_steps ~machine config)
