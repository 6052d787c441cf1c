open Lbsa_spec
open Lbsa_runtime
open Lbsa_protocols
open Lbsa_modelcheck

(* Set agreement power (Section 1): the sequence (n_1, n_2, ..., n_k, ...)
   where n_k is the largest number of processes for which the object plus
   registers solve k-set agreement.

   Closed forms shipped with the repository:
   - m-consensus: n_k = k*m (partition protocol for the lower bound;
     Chaudhuri-Reiners / BG-simulation for the upper bound);
   - strong 2-SA: n_1 = 1, n_k = ∞ for k >= 2 (Section 4);
   - (n,k)-SA: exactly n processes at level k;
   - O_n: n_1 = n (Observation 6.2) and n_k >= k*n for k >= 2 (no closed
     form in the paper; O'_n is parameterized by the true sequence).

   Empirically, [probe] checks a concrete protocol exhaustively, giving
   the machine-verified entries of the matrices in EXPERIMENTS.md. *)

type bound =
  | Finite of int
  | Infinite

let pp_bound ppf = function
  | Finite n -> Fmt.int ppf n
  | Infinite -> Fmt.string ppf "∞"

let consensus_power ~m ~max_k : bound list =
  List.map (fun k -> Finite (k * m)) (Lbsa_util.Listx.range 1 max_k)

let sa2_power ~max_k : bound list =
  List.map
    (fun k -> if k = 1 then Finite 1 else Infinite)
    (Lbsa_util.Listx.range 1 max_k)

let o_n_power_lower ~n ~max_k : bound list =
  List.map (fun k -> Finite (k * n)) (Lbsa_util.Listx.range 1 max_k)

(* --- empirical probing ------------------------------------------------ *)

type probe = {
  k : int;
  procs : int;
  solvable : bool;
  states : int;
  detail : string option;
}

let pp_probe ppf p =
  Fmt.pf ppf "k=%d procs=%d: %s (%d states)%a" p.k p.procs
    (if p.solvable then "solved" else "failed")
    p.states
    Fmt.(option (fun ppf s -> Fmt.pf ppf " [%s]" s))
    p.detail

(* Exhaustively check that [protocol] solves k-set agreement among
   [procs] processes on the all-distinct input vector (the adversarially
   hardest one) plus, optionally, all binary inputs. *)
let probe ?(max_states = Lbsa_modelcheck.Graph.default_max_states) ?(also_binary = false) ~k ~procs
    ~(protocol : Machine.t * Obj_spec.t array) () =
  let machine, specs = protocol in
  let inputs_list =
    Kset_task.distinct_inputs procs
    :: (if also_binary then Consensus_task.binary_inputs procs else [])
  in
  let verdict =
    Solvability.for_all_inputs
      (fun inputs ->
        Solvability.check ~task:(Solvability.Kset k)
          ~max_states ~machine ~specs ~inputs ())
      inputs_list
  in
  {
    k;
    procs;
    solvable = verdict.Solvability.ok;
    states = verdict.Solvability.states;
    detail = verdict.Solvability.failure;
  }

(* Randomized probe for instances whose exhaustive state space is out of
   reach (the configuration count grows exponentially in the process
   count): [trials] random schedules and object adversaries, safety
   checked on every completed run.  The [detail] field records that the
   check was randomized. *)
let probe_random ?(trials = 2000) ?(seed = 1) ~k ~procs
    ~(protocol : Machine.t * Obj_spec.t array) () =
  let machine, specs = protocol in
  let inputs = Kset_task.distinct_inputs procs in
  let prng = Lbsa_util.Prng.create seed in
  let rec go i =
    if i >= trials then None
    else
      let r =
        Executor.run
          ~nondet:(Executor.Random (Lbsa_util.Prng.split prng))
          ~machine ~specs ~inputs
          ~scheduler:(Scheduler.random ~seed:(Lbsa_util.Prng.int prng 1_000_000_000))
          ()
      in
      match Kset_task.check_run ~k ~inputs r with
      | Ok () -> go (i + 1)
      | Error v -> Some (Fmt.str "trial %d: %a" i Kset_task.pp_violation v)
  in
  let failure = go 0 in
  {
    k;
    procs;
    solvable = failure = None;
    states = 0;
    detail =
      Some
        (match failure with
        | None -> Fmt.str "randomized: %d trials" trials
        | Some msg -> Fmt.str "randomized: %s" msg);
  }

(* The empirical rows of the power matrix for each object family:
   solve k-set agreement among procs = n_k processes using the family's
   canonical protocol.  These verify the lower bounds of the closed
   forms; upper bounds are impossibility statements (see EXPERIMENTS.md
   for how the candidate experiments address them). *)

let probe_consensus_family ~m ~k ?(max_states = Lbsa_modelcheck.Graph.default_max_states) () =
  probe ~max_states ~k ~procs:(k * m)
    ~protocol:(Kset_protocols.partition ~m ~k)
    ()

let probe_sa2_family ~k ~procs ?(max_states = Lbsa_modelcheck.Graph.default_max_states) () =
  probe ~max_states ~k ~procs ~protocol:(Kset_protocols.from_sa2 ~k) ()

let probe_nk_sa_family ~n ~k ?(max_states = Lbsa_modelcheck.Graph.default_max_states) () =
  probe ~max_states ~k ~procs:n ~protocol:(Kset_protocols.from_nk_sa ~n ~k) ()

let probe_oprime_family ~power ~k ?(max_states = Lbsa_modelcheck.Graph.default_max_states) () =
  let nk = List.nth power (k - 1) in
  probe ~max_states ~k ~procs:nk
    ~protocol:(Kset_protocols.from_oprime ~power ~k)
    ()

let probe_o_n_consensus ~n ?(max_states = Lbsa_modelcheck.Graph.default_max_states) () =
  let machine, specs = Consensus_protocols.from_o_n ~n in
  let verdict =
    Solvability.for_all_inputs
      (fun inputs ->
        Solvability.check ~task:Solvability.Consensus
          ~max_states ~machine ~specs ~inputs ())
      (Consensus_task.binary_inputs n)
  in
  {
    k = 1;
    procs = n;
    solvable = verdict.Solvability.ok;
    states = verdict.Solvability.states;
    detail = verdict.Solvability.failure;
  }
