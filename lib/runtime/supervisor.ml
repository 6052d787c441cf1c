module Prng = Lbsa_util.Prng

(* Supervision for the verification pipeline: budgets, cancellation,
   worker fault isolation, deterministic chaos.  See the .mli for the
   determinism contract each piece maintains. *)

(* --- cancellation tokens ----------------------------------------------- *)

type token = bool Atomic.t

let token () : token = Atomic.make false
let cancel t = Atomic.set t true
let cancelled t = Atomic.get t

let install_sigint t =
  let handler _ = if cancelled t then Stdlib.exit 130 else cancel t in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle handler))

(* --- outcomes ----------------------------------------------------------- *)

type outcome =
  | Done
  | Truncated
  | Deadline
  | Cancelled
  | Worker_failed of { worker : int; exn : string; attempts : int }

let is_partial = function Done -> false | _ -> true

let pp_outcome ppf = function
  | Done -> Fmt.string ppf "done"
  | Truncated -> Fmt.string ppf "truncated"
  | Deadline -> Fmt.string ppf "deadline expired"
  | Cancelled -> Fmt.string ppf "cancelled"
  | Worker_failed { worker; exn; attempts } ->
    Fmt.pf ppf "worker %d failed after %d attempt%s: %s" worker attempts
      (if attempts = 1 then "" else "s")
      exn

let exit_code ~ok = function
  | Done -> if ok then 0 else 1
  | Truncated | Deadline | Cancelled | Worker_failed _ -> 2

(* --- budgets ------------------------------------------------------------ *)

module Budget = struct
  type t = { deadline : float option; tok : token option }

  let unlimited = { deadline = None; tok = None }

  let make ?deadline_s ?token () =
    {
      deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
      tok = token;
    }

  let stop t =
    match t.tok with
    | Some tok when cancelled tok -> Some Cancelled
    | _ -> (
      match t.deadline with
      (* [>=]: a zero budget polled within the microsecond it was made
         is already expired *)
      | Some d when Unix.gettimeofday () >= d -> Some Deadline
      | _ -> None)
end

(* --- deterministic chaos ------------------------------------------------ *)

module Chaos = struct
  exception Injected of int

  (* (seed, rate_percent) when armed.  One atomic cell: arming is a
     test-time global, read once per shard attempt. *)
  let state : (int * int) option Atomic.t = Atomic.make None

  let arm ~seed ?(rate_percent = 50) () =
    if rate_percent < 0 || rate_percent > 100 then
      invalid_arg "Chaos.arm: rate_percent must be in [0, 100]";
    Atomic.set state (Some (seed, rate_percent))

  let disarm () = Atomic.set state None
  let armed () = Atomic.get state <> None

  (* Fail iff armed, first attempt, and the (seed, key) substream says
     so — a pure plan, independent of timing and domain count.  Retries
     (attempt > 0) never fail, so an armed run does exactly the work of
     an unarmed one plus some doomed first attempts. *)
  let maybe_fail ~key ~attempt =
    match Atomic.get state with
    | Some (seed, rate) when attempt = 0 && key >= 0 ->
      let draw = Prng.int (Prng.of_substream ~seed ~index:key) 100 in
      if draw < rate then raise (Injected key)
    | _ -> ()
end

(* --- worker fault isolation --------------------------------------------- *)

let run_shard ?(attempts = 3) ?(backoff_s = 0.001) ~worker f =
  if attempts < 1 then invalid_arg "Supervisor.run_shard: attempts must be >= 1";
  let rec go attempt =
    match
      Chaos.maybe_fail ~key:worker ~attempt;
      f ()
    with
    | v -> Ok v
    | exception e ->
      let made = attempt + 1 in
      if made >= attempts then Error (Printexc.to_string e, made)
      else begin
        if backoff_s > 0. then
          Unix.sleepf (backoff_s *. float_of_int (1 lsl attempt));
        go made
      end
  in
  go 0
