open Lbsa_runtime
open Lbsa_protocols
open Lbsa_modelcheck

(* Consensus-hierarchy level evidence.

   An object is at level n when it solves consensus among n processes
   (positive: exhaustively checkable) but not among n + 1 (negative: an
   impossibility, approximated here by the failure of the object's
   natural (n+1)-consensus candidate, with the violating witness).  A
   level report carries both halves and is explicit about which is a
   proof and which is evidence. *)

type half =
  | Verified of Solvability.verdict  (* exhaustive positive check *)
  | Candidate_failed of string * Solvability.verdict
  | Not_checked of string

type report = {
  object_name : string;
  level : int;
  solves_at_level : half;
  fails_above : half;
}

let pp_half ppf = function
  | Verified v -> Fmt.pf ppf "verified: %a" Solvability.pp_verdict v
  | Candidate_failed (name, v) ->
    Fmt.pf ppf "candidate %s failed as expected: %a" name
      Solvability.pp_verdict v
  | Not_checked why -> Fmt.pf ppf "not checked (%s)" why

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s at level %d@,  positive: %a@,  negative: %a@]"
    r.object_name r.level pp_half r.solves_at_level pp_half r.fails_above

let check_consensus_all_binary ?(max_states = Lbsa_modelcheck.Graph.default_max_states) ~machine ~specs ~procs () =
  Solvability.for_all_inputs
    (fun inputs ->
      Solvability.check ~task:Solvability.Consensus
        ~max_states ~machine ~specs ~inputs ())
    (Consensus_task.binary_inputs procs)

(* Level of the m-consensus object: solves consensus among m; the natural
   (m+1)-process candidate (everyone proposes, ⊥-receiver reads an
   announcement) fails.  We reuse the (n,m)-PAC candidate with its PAC
   facet unused, which degenerates to exactly that protocol. *)
let consensus_obj_report ?(max_states = Lbsa_modelcheck.Graph.default_max_states) ~m () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m in
  let positive = check_consensus_all_binary ~max_states ~machine ~specs ~procs:m () in
  let cand_machine, cand_specs = Candidates.consensus_m1_from_pac_nm ~n:2 ~m in
  let negative =
    check_consensus_all_binary ~max_states ~machine:cand_machine
      ~specs:cand_specs ~procs:(m + 1) ()
  in
  {
    object_name = Fmt.str "%d-consensus" m;
    level = m;
    solves_at_level =
      (if positive.Solvability.ok then Verified positive
       else Candidate_failed ("positive check unexpectedly failed", positive));
    fails_above =
      (if negative.Solvability.ok then
         Candidate_failed ("candidate unexpectedly succeeded", negative)
       else Candidate_failed (cand_machine.Machine.name, negative));
  }

(* Theorem 5.3: (n,m)-PAC is at level m.  The positive half is
   Observation 5.1(c); the negative half is the failure of the natural
   (m+1)-consensus candidates over the object. *)
let pac_nm_report ?(max_states = Lbsa_modelcheck.Graph.default_max_states) ~n ~m () =
  let machine, specs = Consensus_protocols.from_pac_nm ~n ~m in
  let positive = check_consensus_all_binary ~max_states ~machine ~specs ~procs:m () in
  let cand_machine, cand_specs = Candidates.consensus_m1_from_pac_nm ~n ~m in
  let negative =
    check_consensus_all_binary ~max_states ~machine:cand_machine
      ~specs:cand_specs ~procs:(m + 1) ()
  in
  {
    object_name = Fmt.str "(%d,%d)-PAC" n m;
    level = m;
    solves_at_level =
      (if positive.Solvability.ok then Verified positive
       else Candidate_failed ("positive check unexpectedly failed", positive));
    fails_above =
      (if negative.Solvability.ok then
         Candidate_failed ("candidate unexpectedly succeeded", negative)
       else Candidate_failed (cand_machine.Machine.name, negative));
  }

(* Observation 6.2: O_n has consensus number n. *)
let o_n_report ?(max_states = Lbsa_modelcheck.Graph.default_max_states) ~n () =
  let r = pac_nm_report ~max_states ~n:(n + 1) ~m:n () in
  { r with object_name = Fmt.str "O_%d" n }
