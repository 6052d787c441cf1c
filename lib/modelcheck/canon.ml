open Lbsa_spec
open Lbsa_runtime

(* Process-symmetry quotient for the explorer, plus the commit-step
   vocabulary shared with the bivalency toolkit.

   A symmetry group is represented extensionally: the explicit list of
   its non-identity automorphisms.  Each automorphism is a permutation
   of processes, optionally a compatible permutation of objects, and
   optionally a rewrite of object states (the hook for object encodings
   that mention process identities, e.g. PAC labels).  Groups here are
   small — (n-1)! for n-DAC, (m!)^k * k! for the k*m partition protocol
   — and [canonical] returns the [Config.compare]-least element of the
   orbit without building it: the local states are ranked once per
   call, so rejecting an automorphism costs a few int comparisons, and
   only automorphisms that tie the best image on every local get their
   objects built (renamed object states come from a per-group memo) and
   their statuses compared in place.  The winner alone is built.

   Soundness (why quotienting preserves verdicts) and the search's
   argument are in DESIGN.md, "State-space reduction".  The
   constructors below only build groups for protocols whose step
   machines are certified equivariant: [exchangeable] requires a
   pid-independent delta over pid-free object states, [dac] fixes the
   distinguished process 0 and renames PAC labels, [kset_partition]
   permutes within groups and whole groups together with their
   consensus objects. *)

type auto = {
  proc : int array;  (* image process i carries old process proc.(i) *)
  obj : int array option;  (* image object o carries old object obj.(o) *)
  rename_obj : (int -> Value.t -> Value.t) option;
      (* rewrite of old object [index]'s state, applied during permute *)
}

(* The memo of renamed object states: (automorphism index, old object
   index, state) -> [rename_obj index state].  Keyed by the state's
   physical identity and structural [Value.hash], never by its intern
   id.  Lock-striped so the explorer's worker domains can share it; the
   stripe is picked from high hash bits because [Hashtbl] indexes by the
   low ones. *)
module Key = struct
  type t = { auto : int; src : int; state : Value.t }

  let equal a b = a.state == b.state && a.auto = b.auto && a.src = b.src

  let hash k =
    Value.hash_combine (Value.hash_fold k.auto k.state) k.src land max_int
end

module Memo = Hashtbl.Make (Key)

type stripe = { lock : Mutex.t; tbl : Value.t Memo.t }

let n_stripes = 16 (* power of two *)

type t = {
  autos : auto list;  (* excludes the identity *)
  order : int;
  id : auto;  (* the identity; its [proc] fixes the process count *)
  objs : int option;  (* object count, when automorphisms permute objects *)
  memo : stripe array option Atomic.t;  (* allocated on first use *)
}

let make autos =
  let procs = match autos with [] -> 0 | a :: _ -> Array.length a.proc in
  {
    autos;
    order = List.length autos + 1;
    id = { proc = Array.init procs Fun.id; obj = None; rename_obj = None };
    objs = List.find_map (fun a -> Option.map Array.length a.obj) autos;
    memo = Atomic.make None;
  }

let identity = make []
let is_identity g = g.autos = []
let order g = g.order
let autos g = g.autos

let apply a config =
  Config.permute ?obj:a.obj ?rename_obj:a.rename_obj ~proc:a.proc config

let memo g =
  match Atomic.get g.memo with
  | Some m -> m
  | None ->
    let m =
      Array.init n_stripes (fun _ ->
          { lock = Mutex.create (); tbl = Memo.create 64 })
    in
    if Atomic.compare_and_set g.memo None (Some m) then m
    else Option.get (Atomic.get g.memo)

(* [rename src state], memoised per automorphism [k].  The rename runs
   outside the lock: two domains racing on one key compute the same
   interned value, so either store is fine. *)
let renamed g k rename src state =
  let key = { Key.auto = k; src; state } in
  let s = (memo g).((Key.hash key lsr 24) land (n_stripes - 1)) in
  match Mutex.protect s.lock (fun () -> Memo.find_opt s.tbl key) with
  | Some v -> v
  | None ->
    let v = rename src state in
    Mutex.protect s.lock (fun () -> Memo.replace s.tbl key v);
    v

(* The object array of [a]'s image; [k] is [a]'s index in the group
   (the memo key), [-1] for the identity. *)
let image_objects g k a (config : Config.t) =
  match a with
  | { obj = None; rename_obj = None; _ } -> config.objects
  | { obj; rename_obj; _ } ->
    Array.init (Array.length config.objects) (fun o ->
        let src = match obj with None -> o | Some m -> m.(o) in
        let state = config.objects.(src) in
        match rename_obj with
        | None -> state
        | Some f -> renamed g k f src state)

(* Order-preserving ranks of the locals: [rank.(p) < rank.(q)] iff
   [locals.(p)] precedes [locals.(q)], equal ranks iff equal values. *)
let ranks locals =
  let n = Array.length locals in
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun p q -> Value.compare locals.(p) locals.(q)) idx;
  let rank = Array.make n 0 in
  for j = 1 to n - 1 do
    let p = idx.(j) and q = idx.(j - 1) in
    rank.(p) <- (if locals.(p) == locals.(q) then rank.(q) else j)
  done;
  rank

let fits g (config : Config.t) =
  if Array.length config.locals <> Array.length g.id.proc then
    invalid_arg "Canon.canonical: process count does not fit the group";
  match g.objs with
  | Some m when m <> Array.length config.objects ->
    invalid_arg "Canon.canonical: object count does not fit the group"
  | _ -> ()

(* The lex-least image of [config] over its orbit, found without
   building the losing images.  [Config.compare] orders locals first,
   then objects, then statuses, so a candidate is rejected (or wins
   outright) at its first local whose rank differs from the best
   image's; only a full tie on locals builds its objects, and only a
   tie on those compares statuses.  Returns [config] itself
   (physically) when no image is strictly smaller, so callers can count
   actual canonizations with [!=]. *)
let canonical g (config : Config.t) =
  if is_identity g then config
  else begin
    fits g config;
    let n = Array.length g.id.proc in
    let locals = config.locals and status = config.status in
    let rank = ranks locals in
    (* the best image so far: its automorphism and index, its locals'
       ranks and, once some tie needed them, its objects *)
    let best = ref g.id and best_k = ref (-1) in
    let best_rank = Array.copy rank in
    let best_objs = ref (Some config.objects) in
    List.iteri
      (fun k a ->
        let proc = a.proc in
        let rec by_rank i =
          if i = n then 0
          else
            let c = rank.(proc.(i)) - best_rank.(i) in
            if c <> 0 then c else by_rank (i + 1)
        in
        let c = by_rank 0 in
        if c < 0 then begin
          best := a;
          best_k := k;
          best_objs := None;
          for i = 0 to n - 1 do
            best_rank.(i) <- rank.(proc.(i))
          done
        end
        else if c = 0 then begin
          let objs = image_objects g k a config in
          let bobjs =
            match !best_objs with
            | Some o -> o
            | None -> image_objects g !best_k !best config
          in
          let bproc = !best.proc in
          let rec by_obj o =
            if o = Array.length objs then 0
            else
              let c = Value.compare objs.(o) bobjs.(o) in
              if c <> 0 then c else by_obj (o + 1)
          in
          let rec by_status i =
            if i = n then 0
            else
              let c =
                Config.compare_status status.(proc.(i)) status.(bproc.(i))
              in
              if c <> 0 then c else by_status (i + 1)
          in
          let c = by_obj 0 in
          if c < 0 || (c = 0 && by_status 0 < 0) then begin
            best := a;
            best_k := k;
            best_objs := Some objs
          end
          else best_objs := Some bobjs
        end)
      g.autos;
    if !best_k < 0 then config
    else
      let proc = !best.proc in
      {
        Config.locals = Array.init n (fun i -> locals.(proc.(i)));
        objects =
          (match !best_objs with
          | Some o -> o
          | None -> image_objects g !best_k !best config);
        status = Array.init n (fun i -> status.(proc.(i)));
      }
  end

(* --- group constructors ------------------------------------------------ *)

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

(* All process-permutation arrays moving only [movable] (identity
   included); [proc.(i)] is the old index placed at image slot [i]. *)
let perm_arrays ~n ~movable =
  permutations movable
  |> List.map (fun assignment ->
         let proc = Array.init n Fun.id in
         List.iteri (fun j src -> proc.(List.nth movable j) <- src) assignment;
         proc)

let of_proc_arrays ?mk_rename ?mk_obj arrays =
  let autos =
    List.filter_map
      (fun proc ->
        if is_id_array proc then None
        else
          Some
            {
              proc;
              obj = Option.map (fun f -> f proc) mk_obj;
              rename_obj = Option.map (fun f -> f proc) mk_rename;
            })
      arrays
  in
  make autos

let exchangeable ~n ?(fixed = []) () =
  if n < 0 then invalid_arg "Canon.exchangeable: n must be >= 0";
  let movable =
    List.filter (fun i -> not (List.mem i fixed)) (Lbsa_util.Listx.range 0 (n - 1))
  in
  of_proc_arrays (perm_arrays ~n ~movable)

let inverse proc =
  let inv = Array.make (Array.length proc) 0 in
  Array.iteri (fun i src -> inv.(src) <- i) proc;
  inv

(* n-DAC from an n-PAC (Section 3): the distinguished process 0 is
   fixed; permuting processes 1..n-1 must rename the PAC labels they
   propose under (process p uses label p+1).  Old label l names old
   process l-1, which lands at image slot inv.(l-1), so l becomes
   inv.(l-1)+1. *)
let dac ~n =
  if n < 1 then invalid_arg "Canon.dac: n must be >= 1";
  let movable = Lbsa_util.Listx.range 1 (n - 1) in
  let mk_rename proc =
    let inv = inverse proc in
    fun _obj state ->
      Lbsa_objects.Pac.rename_labels (fun l -> inv.(l - 1) + 1) state
  in
  of_proc_arrays ~mk_rename (perm_arrays ~n ~movable)

(* The k*m-process partition protocol (Section 6): process p belongs to
   group p/m and proposes to consensus object p/m.  The symmetry group
   is (within-group permutations)^k x (group permutations), with the k
   identical consensus objects permuted along with the groups.  Object
   states are pid-free, so no state rewrite is needed. *)
let kset_partition ~m ~k =
  if m < 1 || k < 1 then invalid_arg "Canon.kset_partition";
  let n = m * k in
  let group_perms = permutations (Lbsa_util.Listx.range 0 (k - 1)) in
  let within_perms = permutations (Lbsa_util.Listx.range 0 (m - 1)) in
  (* one within-group permutation per group *)
  let rec tau_choices g =
    if g = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> List.map (fun tau -> tau :: rest) within_perms)
        (tau_choices (g - 1))
  in
  let arrays =
    List.concat_map
      (fun sigma ->
        let sigma = Array.of_list sigma in
        (* sigma.(j) = old group at image group slot j; invert to map
           old group g to its image slot. *)
        let sigma_img = inverse sigma in
        List.map
          (fun taus ->
            let taus = Array.of_list (List.map Array.of_list taus) in
            (* image slot of old process p = within-image of its rank,
               inside the image slot of its group *)
            let img_of =
              Array.init n (fun p ->
                  let g = p / m and r = p mod m in
                  let tau_img = inverse taus.(g) in
                  (sigma_img.(g) * m) + tau_img.(r))
            in
            (inverse img_of, sigma))
          (tau_choices k))
      group_perms
  in
  let autos =
    List.filter_map
      (fun (proc, sigma) ->
        if is_id_array proc then None
        else Some { proc; obj = Some sigma; rename_obj = None })
      arrays
  in
  make autos

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
