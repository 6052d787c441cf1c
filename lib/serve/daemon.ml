open Lbsa_runtime

(* The verification daemon.

   One main domain owns every socket and every piece of mutable service
   state.  A cold job runs on a domain of its own: the main loop spawns
   one for an admitted miss while fewer than [workers] job domains are
   alive, queues the job otherwise, and joins the domain when it drains
   its completion.  An idle daemon, or one serving only cache hits, is
   the main domain alone — in OCaml 5 every minor collection stops
   every domain, so an idle worker domain would tax each hit.  A job
   domain owns nothing but its job: it pushes its completion on a
   mutex-guarded queue and pokes a self-pipe so [Unix.select] wakes up.
   Cache tables, in-flight bookkeeping and client fds are
   single-threaded by construction, and the only data crossing the
   domain boundary is the plain-data job/result pair (never a client fd,
   never an interned value).

   Single-flight: in-flight computations are keyed by the full canonical
   preimage; a duplicate query joins the existing job's waiter list and
   is answered by the same completion.  N clients asking the same cold
   question cost one computation. *)

type config = {
  socket : string;
  store_dir : string;
  workers : int;
  default_deadline_s : float option;  (** per-query cap unless the client sets one *)
  store_probe_s : float;  (** degraded-mode re-probe interval *)
  log : bool;
}

(* What a store entry's data holds: a finished, cacheable answer, or
   the completed-trial prefix of a deadline-cut fuzz campaign. *)
type entry = Final of Api.result | Prefix of int

let entry_codec =
  let open Lbsa_util.Codec in
  variant
    ~put:(fun b -> function
      | Final r -> tag b 0; Api.result_codec.put b r
      | Prefix n -> tag b 1; int.put b n)
    ~get:(fun c -> function
      | 0 -> Final (Api.result_codec.get c)
      | 1 -> Prefix (int.get c)
      | k -> bad_tag k)


type job = {
  j_canonical : string;
  j_key : string;
  j_q : Api.query;
  j_deadline_s : float option;
  j_start : int;  (* fuzz resume offset *)
  mutable j_waiters : (Unix.file_descr * float) list;  (* fd, receipt time *)
}

type completion = {
  c_slot : int;  (* the job domain's slot, 1..workers *)
  c_job : job;
  c_result : (Api.computed, string) Stdlib.result;
}

type state = {
  cfg : config;
  store : Store.t;
  memo : (string, Api.result) Hashtbl.t;  (* canonical -> answer *)
  inflight : (string, job) Hashtbl.t;  (* canonical -> job *)
  waiting : job Queue.t;  (* admitted jobs no job domain has taken yet *)
  slots : unit Domain.t option array;  (* slot i + 1's live job domain *)
  (* shared with the job domains *)
  mu : Mutex.t;  (* guards [done_q] *)
  done_q : completion Queue.t;
  wake_w : Unix.file_descr;  (* job-domain end of the self-pipe *)
  wake_r : Unix.file_descr;
  token : Supervisor.token;
  mutable stats : Wire.stats;
  mutable degraded : bool;  (* store unusable: serve from memo + compute *)
  mutable next_probe : float;  (* when degraded: next re-probe time *)
  mutable consec_corrupt : int;  (* corrupt store reads since last clean one *)
  mutable draining : bool;
  mutable shutdown_fds : Unix.file_descr list;  (* reply after drain *)
  mutable clients : (Unix.file_descr * Wire.inbox) list;
  started : float;
}

let logf st fmt =
  if st.cfg.log then Fmt.epr ("lbsa-serve: " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter ("lbsa-serve: " ^^ fmt ^^ "@.")

(* -- job-domain side ------------------------------------------------ *)

(* The whole life of a job domain: compute under fault isolation (the
   slot is the worker id, so chaos keys stay in 1..workers), push the
   completion, poke the main loop. *)
let run_job st ~slot job =
  let budget =
    Supervisor.Budget.make ?deadline_s:job.j_deadline_s ~token:st.token ()
  in
  let c_result =
    match
      Supervisor.run_shard ~attempts:2 ~worker:slot (fun () ->
          Api.compute ~budget ~start:job.j_start job.j_q)
    with
    | Ok computed -> Ok computed
    | Error (msg, attempts) ->
      Error (Fmt.str "computation failed after %d attempt(s): %s" attempts msg)
  in
  Mutex.lock st.mu;
  Queue.add { c_slot = slot; c_job = job; c_result } st.done_q;
  Mutex.unlock st.mu;
  (* the pipe may be full under a burst, which is fine — one pending
     byte is enough to wake the main loop *)
  try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* -- main-loop helpers ---------------------------------------------- *)

let now () = Unix.gettimeofday ()

let safe_send_response fd resp =
  try Wire.send_response fd resp; true
  with
  | Unix.Unix_error _ | Wire.Closed -> false
  | Invalid_argument _ ->
    (* [Wire.send] refused the frame (response over the 16 MB cap —
       results are summaries, so this means a defect upstream).  The
       client gets an error answer; the select loop must not die. *)
    (try
       Wire.send_response fd
         (Wire.Error "internal error: response exceeds the wire frame cap");
       true
     with Unix.Unix_error _ | Wire.Closed | Invalid_argument _ -> false)

(* Idempotent: a connection already closed (say, by a failed reply
   earlier in the same read) is not closed twice, so a descriptor
   number the kernel has since handed out again is never touched. *)
let close_client st fd =
  if List.mem_assoc fd st.clients then begin
    st.clients <- List.filter (fun (c, _) -> c <> fd) st.clients;
    Hashtbl.iter
      (fun _ job ->
        job.j_waiters <- List.filter (fun (w, _) -> w <> fd) job.j_waiters)
      st.inflight;
    st.shutdown_fds <- List.filter (fun c -> c <> fd) st.shutdown_fds;
    try Unix.close fd with Unix.Unix_error _ -> ()
  end

(* A reply that cannot be written closes its connection: the client
   then sees end of stream instead of waiting forever for an answer
   that will never come. *)
let reply st fd resp =
  if not (safe_send_response fd resp) then close_client st fd

let bump_hot st dt_us =
  st.stats <-
    { st.stats with
      Wire.st_hot_us_total = st.stats.Wire.st_hot_us_total +. dt_us;
      st_hot_count = st.stats.Wire.st_hot_count + 1 }

let bump_cold st dt_us =
  st.stats <-
    { st.stats with
      Wire.st_cold_us_total = st.stats.Wire.st_cold_us_total +. dt_us;
      st_cold_count = st.stats.Wire.st_cold_count + 1 }

let reply_result st fd ~cached ~t0 res =
  let dt = (now () -. t0) *. 1e6 in
  if cached then bump_hot st dt else bump_cold st dt;
  reply st fd (Wire.Result { r = res; cached; wall_us = dt })

(* -- graceful degradation ------------------------------------------- *)

(* When the store turns hostile — ENOSPC/EROFS/EIO on a put or get, or
   a storm of consecutive corrupt entries (a directory that keeps
   handing back garbage) — the daemon flips to compute-only mode: the
   memo table and the job domains still answer every query, the store
   is simply skipped.  [st_degraded] counts every store operation
   failed or skipped this way.  A periodic probe (a real commit through
   the put path) re-arms the store once the device recovers. *)

let corrupt_storm_threshold = 5

let bump_degraded st =
  st.stats <-
    { st.stats with Wire.st_degraded = st.stats.Wire.st_degraded + 1 }

let enter_degraded st ~reason =
  bump_degraded st;
  if not st.degraded then begin
    st.degraded <- true;
    st.next_probe <- now () +. st.cfg.store_probe_s;
    logf st "store degraded (%s): serving compute-only; re-probing every %gs"
      reason st.cfg.store_probe_s
  end

(* While degraded, each store access first checks whether the probe
   window elapsed; a successful probe re-arms immediately. *)
let maybe_reprobe st =
  if st.degraded && now () >= st.next_probe then begin
    match Store.probe st.store with
    | Ok () ->
      st.degraded <- false;
      st.consec_corrupt <- 0;
      logf st "store probe succeeded; store re-armed"
    | Error msg ->
      st.next_probe <- now () +. st.cfg.store_probe_s;
      logf st "store probe failed (%s); staying degraded" msg
  end

let store_put st ~key ~canonical ~data =
  maybe_reprobe st;
  if st.degraded then begin
    bump_degraded st;
    false
  end
  else
    match Store.put st.store ~key ~canonical ~data with
    | Ok () -> true
    | Error msg ->
      logf st "store put %s failed: %s" key msg;
      enter_degraded st ~reason:msg;
      false

let store_get st ~key ~canonical =
  maybe_reprobe st;
  if st.degraded then begin
    bump_degraded st;
    None
  end
  else begin
    let io_before = Store.io_error_count st.store in
    let found = Store.get st.store ~key ~canonical in
    if Store.io_error_count st.store > io_before then
      enter_degraded st ~reason:"read error";
    found
  end

(* Look a memo miss up in the store.  [`Hit r] answers now; [`Resume n]
   means a persisted fuzz prefix lets the computation start at trial
   [n]; [`Miss] is a cold start. *)
let lookup_store st ~canonical ~key =
  let before = Store.corrupt_count st.store in
  let found = store_get st ~key ~canonical in
  let corrupted = Store.corrupt_count st.store - before in
  if corrupted > 0 then begin
    st.stats <-
      { st.stats with Wire.st_corrupt = st.stats.Wire.st_corrupt + corrupted };
    st.consec_corrupt <- st.consec_corrupt + corrupted;
    if st.consec_corrupt >= corrupt_storm_threshold then
      enter_degraded st ~reason:"corruption storm";
    logf st "store entry %s corrupt; discarded, recomputing" key
  end
  else if found <> None then st.consec_corrupt <- 0;
  match found with
  | Some data -> (
    match Lbsa_util.Codec.decode entry_codec data with
    | Final r ->
      Hashtbl.replace st.memo canonical r;
      st.stats <-
        { st.stats with Wire.st_hits_store = st.stats.Wire.st_hits_store + 1 };
      `Hit r
    | Prefix n when n > 0 ->
      st.stats <-
        { st.stats with
          Wire.st_prefix_resumed = st.stats.Wire.st_prefix_resumed + 1 };
      `Resume n
    | Prefix _ -> `Miss
    | exception Lbsa_util.Codec.Malformed _ ->
      (* checksummed bytes of the current store version that still
         fail to decode: treat exactly like corruption *)
      st.stats <-
        { st.stats with Wire.st_corrupt = st.stats.Wire.st_corrupt + 1 };
      (try Sys.remove (Store.path st.store ~key) with Sys_error _ -> ());
      `Miss)
  | None -> `Miss

(* Hand waiting jobs to job domains while a slot is free.  A spawn that
   fails answers its job's waiters with the error; the loop serves on. *)
let rec start_waiting st =
  if not (Queue.is_empty st.waiting) then
    match Array.find_index Option.is_none st.slots with
    | None -> ()
    | Some i ->
      let job = Queue.pop st.waiting in
      (match Domain.spawn (fun () -> run_job st ~slot:(i + 1) job) with
      | d ->
        st.slots.(i) <- Some d;
        let alive =
          Array.fold_left
            (fun n slot -> if Option.is_some slot then n + 1 else n)
            0 st.slots
        in
        if alive > st.stats.Wire.st_running_peak then
          st.stats <- { st.stats with Wire.st_running_peak = alive }
      | exception e ->
        Hashtbl.remove st.inflight job.j_canonical;
        let msg = "cannot start a job domain: " ^ Printexc.to_string e in
        logf st "job %s: %s" job.j_key msg;
        List.iter (fun (fd, _) -> reply st fd (Wire.Error msg)) job.j_waiters);
      start_waiting st

let schedule st ~canonical ~key ~q ~deadline_s ~start ~waiter =
  match Hashtbl.find_opt st.inflight canonical with
  | Some job ->
    st.stats <- { st.stats with Wire.st_joined = st.stats.Wire.st_joined + 1 };
    job.j_waiters <- waiter :: job.j_waiters
  | None ->
    st.stats <- { st.stats with Wire.st_misses = st.stats.Wire.st_misses + 1 };
    let deadline_s =
      match deadline_s with Some _ as d -> d | None -> st.cfg.default_deadline_s
    in
    let job =
      { j_canonical = canonical; j_key = key; j_q = q; j_deadline_s = deadline_s;
        j_start = start; j_waiters = [ waiter ] }
    in
    Hashtbl.replace st.inflight canonical job;
    let depth = Hashtbl.length st.inflight in
    if depth > st.stats.Wire.st_queue_peak then
      st.stats <- { st.stats with Wire.st_queue_peak = depth };
    Queue.add job st.waiting;
    start_waiting st

(* A memo hit builds the canonical string and nothing else: the store
   key is derived from it only on a miss. *)
let handle_query st fd q deadline_s =
  let t0 = now () in
  st.stats <- { st.stats with Wire.st_queries = st.stats.Wire.st_queries + 1 };
  if st.draining then reply st fd (Wire.Error "daemon is shutting down")
  else
    let canonical = Api.canonical q in
    match Hashtbl.find_opt st.memo canonical with
    | Some r ->
      st.stats <-
        { st.stats with Wire.st_hits_mem = st.stats.Wire.st_hits_mem + 1 };
      reply_result st fd ~cached:true ~t0 r
    | None -> (
      let key = Api.key_of_canonical canonical in
      match lookup_store st ~canonical ~key with
      | `Hit r -> reply_result st fd ~cached:true ~t0 r
      | (`Resume _ | `Miss) as m -> (
        (* A query the task table refuses is answered here, once: never
           counted as a miss, never handed to a job domain to fail
           twice. *)
        match Api.validate q with
        | exception Invalid_argument msg -> reply st fd (Wire.Error msg)
        | () ->
          let start = match m with `Resume n -> n | `Miss -> 0 in
          schedule st ~canonical ~key ~q ~deadline_s ~start ~waiter:(fd, t0)))

let handle_completion st { c_job = job; c_result; _ } =
  Hashtbl.remove st.inflight job.j_canonical;
  match c_result with
  | Error msg ->
    logf st "job %s failed: %s" job.j_key msg;
    List.iter (fun (fd, _) -> reply st fd (Wire.Error msg)) job.j_waiters
  | Ok { Api.res; cacheable; fuzz_prefix } ->
    st.stats <- { st.stats with Wire.st_computed = st.stats.Wire.st_computed + 1 };
    if cacheable then begin
      Hashtbl.replace st.memo job.j_canonical res;
      ignore
        (store_put st ~key:job.j_key ~canonical:job.j_canonical
           ~data:(Lbsa_util.Codec.encode entry_codec (Final res)))
    end
    else begin
      (match fuzz_prefix with
      | Some n when n > job.j_start ->
        if
          store_put st ~key:job.j_key ~canonical:job.j_canonical
            ~data:(Lbsa_util.Codec.encode entry_codec (Prefix n))
        then
          st.stats <-
            { st.stats with
              Wire.st_prefix_stored = st.stats.Wire.st_prefix_stored + 1 }
      | _ -> ())
    end;
    List.iter
      (fun (fd, t0) -> reply_result st fd ~cached:false ~t0 res)
      job.j_waiters

let current_stats st =
  { st.stats with Wire.st_uptime_s = now () -. st.started }

let handle_request st fd = function
  | Wire.Query { q; deadline_s } -> handle_query st fd q deadline_s
  | Wire.Stats -> reply st fd (Wire.Stats_r (current_stats st))
  | Wire.Ping -> reply st fd Wire.Pong
  | Wire.Shutdown ->
    st.draining <- true;
    st.shutdown_fds <- fd :: st.shutdown_fds

(* -- socket lifecycle ----------------------------------------------- *)

let bind_socket path =
  if Sys.file_exists path then begin
    (* stale socket from a crashed daemon, or a live one?  Probe it. *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try Unix.connect probe (Unix.ADDR_UNIX path); true
      with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith (Fmt.str "a daemon is already listening on %s" path);
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
     (* lost a simultaneous-start race: another daemon bound the path
        between our staleness probe and here *)
     (try Unix.close fd with Unix.Unix_error _ -> ());
     failwith (Fmt.str "a daemon is already listening on %s" path));
  Unix.listen fd 64;
  fd

(* -- the main loop -------------------------------------------------- *)

(* Each completion's job domain has finished its job, so the join is
   immediate; its slot then takes the next waiting job.  A domain that
   raised after queueing its completion (a failed poke) has nothing
   more to report. *)
let drain_done st =
  let rec pop () =
    Mutex.lock st.mu;
    let c = Queue.take_opt st.done_q in
    Mutex.unlock st.mu;
    match c with
    | Some c ->
      Option.iter
        (fun d -> try Domain.join d with _ -> ())
        st.slots.(c.c_slot - 1);
      st.slots.(c.c_slot - 1) <- None;
      handle_completion st c;
      pop ()
    | None -> start_waiting st
  in
  pop ()

let run cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store = Store.open_ ~dir:cfg.store_dir in
  let listen_fd = bind_socket cfg.socket in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  let st =
    { cfg; store; memo = Hashtbl.create 64; inflight = Hashtbl.create 16;
      waiting = Queue.create (); slots = Array.make cfg.workers None;
      mu = Mutex.create (); done_q = Queue.create (); wake_w; wake_r;
      token = Supervisor.token ();
      stats = Wire.zero_stats ~workers:cfg.workers;
      degraded = false; next_probe = 0.; consec_corrupt = 0;
      draining = false; shutdown_fds = []; clients = []; started = now () }
  in
  logf st "listening on %s (store %s, at most %d job domain%s)" cfg.socket
    cfg.store_dir cfg.workers (if cfg.workers = 1 then "" else "s");
  let listening = ref true in
  (* Every job is in [inflight] until its completion is handled, and its
     domain is joined before that: nothing is left to join. *)
  let finished st = st.draining && Hashtbl.length st.inflight = 0 in
  let rec loop () =
    if st.draining && !listening then begin
      listening := false;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ())
    end;
    if finished st then ()
    else begin
      let watch =
        (if !listening then [ listen_fd ] else [])
        @ (st.wake_r :: List.map fst st.clients)
      in
      let readable, _, _ =
        try Unix.select watch [] [] 0.5
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = listen_fd && !listening then begin
            match Unix.accept listen_fd with
            | client, _ -> st.clients <- (client, Wire.inbox ()) :: st.clients
            | exception Unix.Unix_error _ -> ()
          end
          else if fd = st.wake_r then begin
            let buf = Bytes.create 64 in
            (try ignore (Unix.read st.wake_r buf 0 64)
             with Unix.Unix_error _ -> ());
            drain_done st
          end
          else
            (* One read per readable client, so a peer that stalls
               mid-frame never blocks the loop; a malformed frame
               ([Failure]) costs only its connection, and so does a
               failed reply, after which the rest of the read is
               dropped.  A client a failed reply closed earlier in this
               round is skipped. *)
            match List.assoc_opt fd st.clients with
            | None -> ()
            | Some inbox -> (
              try
                Wire.read_requests inbox fd (fun req ->
                  if List.mem_assoc fd st.clients then
                    handle_request st fd req)
              with Wire.Closed | Unix.Unix_error _ | Failure _ ->
                close_client st fd))
        readable;
      (* completions can land between selects; sweep regardless *)
      drain_done st;
      loop ()
    end
  in
  loop ();
  (* drained: answer the shutdown requester(s), tidy up *)
  let final = current_stats st in
  List.iter
    (fun fd -> ignore (safe_send_response fd (Wire.Stats_r final)))
    st.shutdown_fds;
  List.iter
    (fun (fd, _) ->
      if not (List.mem fd st.shutdown_fds) then
        ignore (safe_send_response fd Wire.Shutting_down))
    st.clients;
  List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    st.clients;
  (try Unix.close st.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close st.wake_w with Unix.Unix_error _ -> ());
  if !listening then begin
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ())
  end;
  logf st "drained; bye (%a)" Wire.pp_stats final;
  final
