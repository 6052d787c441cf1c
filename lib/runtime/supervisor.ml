module Prng = Lbsa_util.Prng

(* Supervision for the verification pipeline: budgets, cancellation,
   worker fault isolation, deterministic chaos, and the domain plumbing
   every parallel stage shares.  See the .mli for the determinism
   contract each piece maintains. *)

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

(* --- domains ------------------------------------------------------------- *)

(* Probe the machine once, not per call (builds of tiny graphs run at
   ~1M states/s, where even a few microseconds of setup shows up). *)
let default_domains =
  let d = lazy (max 1 (min 8 (Domain.recommended_domain_count ()))) in
  fun () -> Lazy.force d

let spawn_join d work =
  let spawned =
    List.init (d - 1) (fun k -> Domain.spawn (fun () -> work (k + 1)))
  in
  let first = work 0 in
  first :: List.map Domain.join spawned

(* --- ordered first-hit scan --------------------------------------------- *)

type 'a scan = {
  hit : (int * 'a) option;
  completed : int;
  outcome : outcome;
  domains_used : int;
}

(* Why a worker stopped: at most one event per worker, at its last
   claimed index. *)
type 'a event = Hit of 'a | Exhausted of outcome | Stopped of outcome

(* Indices are claimed in ascending order from one counter, so every
   index below a worker's claim was claimed before it.  [best] is the
   lowest index that hit or exhausted its retries; an index is skipped
   only at or above it.  Hence the lowest such event is always run, and
   every index below it runs to [None] unless the budget stopped it:
   without a budget stop the result is that of a sequential scan.  A
   budget stop does not lower [best] (it is a property of the clock,
   not of the index), so a hit found above it is still reported. *)
let first_hit ?domains ?(budget = Budget.unlimited) ~lo ~hi f =
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Supervisor.first_hit: domains must be >= 1"
  in
  if lo < 0 || lo > hi then
    invalid_arg "Supervisor.first_hit: need 0 <= lo <= hi";
  let d = max 1 (min domains (hi - lo)) in
  let next = Atomic.make lo in
  let best = Atomic.make hi in
  let rec lower i =
    let b = Atomic.get best in
    if i < b && not (Atomic.compare_and_set best b i) then lower i
  in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i >= Atomic.get best then None
    else
      match Budget.stop budget with
      | Some o -> Some (i, Stopped o)
      | None -> (
        match run_shard ~worker:i (fun () -> f i) with
        | Ok None -> claim ()
        | Ok (Some x) ->
          lower i;
          Some (i, Hit x)
        | Error (exn, attempts) ->
          lower i;
          Some (i, Exhausted (Worker_failed { worker = i; exn; attempts })))
  in
  let events =
    List.sort
      (fun (i, _) (j, _) -> Int.compare i j)
      (List.filter_map Fun.id (spawn_join d (fun _ -> claim ())))
  in
  let completed, outcome =
    match events with
    | [] -> (hi, Done)
    | (i, Hit _) :: _ -> (i, Done)
    | (i, (Exhausted o | Stopped o)) :: _ -> (i, o)
  in
  let hit =
    match
      List.find_opt (function _, Stopped _ -> false | _ -> true) events
    with
    | Some (i, Hit x) -> Some (i, x)
    | _ -> None
  in
  { hit; completed; outcome; domains_used = d }
