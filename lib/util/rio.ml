(* Resilient I/O with deterministic fault injection.  See the .mli for
   the contract; the load-bearing invariants are

   - the injection plan is a pure function of (seed, site, per-site
     call index): no timing, no Random, no dependence on what other
     sites do — so an armed run is exactly reproducible and the fault
     sweep in test_crash_recovery can assert determinism;

   - transient injections (EINTR, short transfers) are absorbed by the
     very loops below, so arming must never change observable results;
     hard injections (ENOSPC, EIO) surface as real [Unix_error]s;

   - crash points SIGKILL the process itself: nothing after the kill
     runs, so whatever the test observes on disk afterwards is exactly
     what a power loss at that point would have left. *)

(* --- counters ----------------------------------------------------------- *)

type counters = {
  c_eintr : int;
  c_short_read : int;
  c_short_write : int;
  c_enospc : int;
  c_eio : int;
  c_retries : int;
  c_backoffs : int;
  c_crash_points : int;
}

let zero =
  {
    c_eintr = 0;
    c_short_read = 0;
    c_short_write = 0;
    c_enospc = 0;
    c_eio = 0;
    c_retries = 0;
    c_backoffs = 0;
    c_crash_points = 0;
  }

(* One mutex guards the counters and the per-site index tables: rio is
   called from the daemon's main domain, its workers and the CLI, and
   the counters are stats, not control flow — a single lock is cheap
   and keeps every increment exact. *)
let mu = Mutex.create ()
let counts = ref zero

let bump f =
  Mutex.lock mu;
  counts := f !counts;
  Mutex.unlock mu

let counters () =
  Mutex.lock mu;
  let c = !counts in
  Mutex.unlock mu;
  c

let reset_counters () =
  Mutex.lock mu;
  counts := zero;
  Mutex.unlock mu

let pp_counters ppf c =
  Fmt.pf ppf
    "eintr=%d short_read=%d short_write=%d enospc=%d eio=%d retries=%d \
     backoffs=%d crash_points=%d"
    c.c_eintr c.c_short_read c.c_short_write c.c_enospc c.c_eio c.c_retries
    c.c_backoffs c.c_crash_points

(* --- the plan ------------------------------------------------------------ *)

(* (seed, rate_percent) when armed. *)
let plan : (int * int) option Atomic.t = Atomic.make None

(* (site, error, remaining) when forced. *)
let forced : (string * Unix.error * int Atomic.t) option Atomic.t =
  Atomic.make None

(* Per-site call index, reset on (dis)arm so a run's plan depends only
   on the seed.  Guarded by [mu]. *)
let site_idx : (string, int ref) Hashtbl.t = Hashtbl.create 16

let next_index site =
  Mutex.lock mu;
  let r =
    match Hashtbl.find_opt site_idx site with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add site_idx site r;
      r
  in
  let i = !r in
  incr r;
  Mutex.unlock mu;
  i

let reset_indices () =
  Mutex.lock mu;
  Hashtbl.reset site_idx;
  Mutex.unlock mu

let arm ~seed ?(rate_percent = 12) () =
  if rate_percent < 0 || rate_percent >= 100 then
    invalid_arg "Rio.arm: rate_percent must be in [0, 100)";
  reset_indices ();
  Atomic.set plan (Some (seed, rate_percent))

let disarm () =
  Atomic.set plan None;
  reset_indices ()

let armed () = Atomic.get plan <> None

let force ?(times = max_int) ~site ~error () =
  Atomic.set forced (Some (site, error, Atomic.make times))

let unforce () = Atomic.set forced None

(* Substream index: fold the site digest and the per-site call index
   into one nonnegative key.  The multiplier spreads consecutive
   indices across the digest's bits so neighbouring calls land in
   unrelated stream positions. *)
let substream ~seed ~site ~idx =
  let key = (Fnv.string site lxor (idx * 0x9E3779B9)) land max_int in
  Prng.of_substream ~seed ~index:key

type fault = Eintr | Short | Enospc | Eio

(* The plan's verdict for one call at [site]: [None] = behave normally.
   [write] selects the class mix (reads cannot hit ENOSPC). *)
let decide ~write ~site =
  (match Atomic.get forced with
  | Some (fsite, error, remaining) when String.equal fsite site ->
    let rec take () =
      let n = Atomic.get remaining in
      if n <= 0 then false
      else if Atomic.compare_and_set remaining n (n - 1) then true
      else take ()
    in
    if take () then
      raise (Unix.Unix_error (error, (if write then "write" else "read"), site))
  | _ -> ());
  match Atomic.get plan with
  | None -> None
  | Some (seed, rate) ->
    let g = substream ~seed ~site ~idx:(next_index site) in
    if Prng.int g 100 >= rate then None
    else
      let d = Prng.int g 100 in
      if write then
        if d < 35 then Some Eintr
        else if d < 70 then Some Short
        else if d < 85 then Some Enospc
        else Some Eio
      else if d < 40 then Some Eintr
      else if d < 80 then Some Short
      else Some Eio

let inject_read_fault ~site =
  match decide ~write:false ~site with
  | Some Eio ->
    bump (fun c -> { c with c_eio = c.c_eio + 1 });
    raise (Unix.Unix_error (Unix.EIO, "read", site))
  | Some _ | None -> ()
  (* Eintr/Short have no channel-level meaning; only the hard class
     fires here. *)

(* --- backoff ------------------------------------------------------------- *)

let backoff_base_s = 0.02
let backoff_cap_s = 0.64

let backoff_s ~site ~attempt =
  let attempt = max 0 attempt in
  let d = backoff_base_s *. float_of_int (1 lsl min attempt 5) in
  let d = Float.min d backoff_cap_s in
  (* Deterministic jitter in [0.75, 1.25]: a pure function of (site,
     attempt, armed seed) — reconnect storms decorrelate without any
     call on [Random]. *)
  let seed = match Atomic.get plan with Some (s, _) -> s | None -> 0x72696f in
  let g = substream ~seed ~site ~idx:(0x5bb + attempt) in
  d *. (0.75 +. (float_of_int (Prng.int g 51) /. 100.))

let sleep_backoff ~site ~attempt =
  bump (fun c -> { c with c_backoffs = c.c_backoffs + 1 });
  Unix.sleepf (backoff_s ~site ~attempt)

(* --- fd operations ------------------------------------------------------- *)

(* One read attempt, with the plan applied: an injected EINTR/EIO is a
   real raised [Unix_error]; an injected short read truncates the
   request before the real syscall, and the outer loop completes it. *)
let read_once ~site fd buf off want =
  let want =
    match decide ~write:false ~site with
    | None -> want
    | Some Eintr ->
      bump (fun c -> { c with c_eintr = c.c_eintr + 1 });
      raise (Unix.Unix_error (Unix.EINTR, "read", site))
    | Some Eio ->
      bump (fun c -> { c with c_eio = c.c_eio + 1 });
      raise (Unix.Unix_error (Unix.EIO, "read", site))
    | Some Short | Some Enospc ->
      bump (fun c -> { c with c_short_read = c.c_short_read + 1 });
      max 1 (want / 2)
  in
  Unix.read fd buf off want

let write_once ~site fd buf off want =
  let want =
    match decide ~write:true ~site with
    | None -> want
    | Some Eintr ->
      bump (fun c -> { c with c_eintr = c.c_eintr + 1 });
      raise (Unix.Unix_error (Unix.EINTR, "write", site))
    | Some Eio ->
      bump (fun c -> { c with c_eio = c.c_eio + 1 });
      raise (Unix.Unix_error (Unix.EIO, "write", site))
    | Some Enospc ->
      bump (fun c -> { c with c_enospc = c.c_enospc + 1 });
      raise (Unix.Unix_error (Unix.ENOSPC, "write", site))
    | Some Short ->
      bump (fun c -> { c with c_short_write = c.c_short_write + 1 });
      max 1 (want / 2)
  in
  Unix.write fd buf off want

(* The completion loops are top-level tail recursion with explicit
   parameters rather than inner closures: this is the hot path under
   every wire frame and store entry, and a closure allocation per call
   is measurable against a ~200 ns /dev/null write. *)
let rec read_loop ~site fd buf off len got again =
  if got < len then
    match read_once ~site fd buf (off + got) (len - got) with
    | 0 -> raise End_of_file
    | n -> read_loop ~site fd buf off len (got + n) 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      bump (fun c -> { c with c_retries = c.c_retries + 1 });
      read_loop ~site fd buf off len got again
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* only reachable on a nonblocking fd; back off rather than spin *)
      bump (fun c -> { c with c_retries = c.c_retries + 1 });
      sleep_backoff ~site ~attempt:again;
      read_loop ~site fd buf off len got (again + 1)

(* Fast path: with no fault plan armed and no forced error, the common
   whole-transfer-in-one-syscall case costs two atomic loads and the
   syscall itself; anything rarer falls back to the full loop. *)
let idle () =
  match (Atomic.get plan, Atomic.get forced) with
  | None, None -> true
  | _ -> false

let really_read ~site fd buf off len =
  if idle () then
    match Unix.read fd buf off len with
    | n when n = len -> ()
    | 0 -> if len > 0 then raise End_of_file
    | n -> read_loop ~site fd buf off len n 0
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      bump (fun c -> { c with c_retries = c.c_retries + 1 });
      read_loop ~site fd buf off len 0 0
  else read_loop ~site fd buf off len 0 0

(* One read of whatever is there, for a caller that waited on [select]
   and keeps its own buffer.  Same plan as {!really_read}: an injected
   EINTR is retried, an injected short read returns fewer bytes. *)
let rec read ~site fd buf off len =
  match read_once ~site fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    bump (fun c -> { c with c_retries = c.c_retries + 1 });
    read ~site fd buf off len

let rec write_loop ~site fd buf off len sent again =
  if sent < len then
    match write_once ~site fd buf (off + sent) (len - sent) with
    | n -> write_loop ~site fd buf off len (sent + n) 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      bump (fun c -> { c with c_retries = c.c_retries + 1 });
      write_loop ~site fd buf off len sent again
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      bump (fun c -> { c with c_retries = c.c_retries + 1 });
      sleep_backoff ~site ~attempt:again;
      write_loop ~site fd buf off len sent (again + 1)

let really_write ~site fd buf off len =
  if idle () then
    match Unix.write fd buf off len with
    | n when n = len -> ()
    | n -> write_loop ~site fd buf off len n 0
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      bump (fun c -> { c with c_retries = c.c_retries + 1 });
      write_loop ~site fd buf off len 0 0
  else write_loop ~site fd buf off len 0 0

(* --- crash points -------------------------------------------------------- *)

(* LBSA_IO_CRASH=<site>:<n>, parsed once.  The per-site point counter
   is cumulative over the process lifetime, so <n> addresses "the n-th
   crash point this process reaches within <site>" — with five points
   per commit, n in [1,5] is the first commit, [6,10] the second... *)
let crash_spec =
  lazy
    (match Sys.getenv_opt "LBSA_IO_CRASH" with
    | None -> None
    | Some s -> (
      match String.rindex_opt s ':' with
      | None -> None
      | Some i -> (
        let site = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some n when n > 0 && site <> "" -> Some (site, n)
        | _ -> None)))

let crash_idx : (string, int ref) Hashtbl.t = Hashtbl.create 4

(* True iff this very point is the one the spec names: the caller must
   then perform its torn-state side effect (if any) and kill. *)
let crash_hit ~site =
  match Lazy.force crash_spec with
  | Some (csite, n) when String.equal csite site ->
    Mutex.lock mu;
    let r =
      match Hashtbl.find_opt crash_idx site with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add crash_idx site r;
        r
    in
    incr r;
    let hit = !r = n in
    Mutex.unlock mu;
    bump (fun c -> { c with c_crash_points = c.c_crash_points + 1 });
    hit
  | _ -> false

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* --- atomic file commit -------------------------------------------------- *)

type writer = {
  w_site : string;
  w_path : string;
  w_tmp : string;
  w_fd : Unix.file_descr;
  w_buf : Buffer.t;
  mutable w_open : bool;
}

let flush_threshold = 1 lsl 16

(* An open draws from the plan once; only ENOSPC fires there. *)
let inject_open_fault ~site =
  match decide ~write:true ~site with
  | Some Enospc ->
    bump (fun c -> { c with c_enospc = c.c_enospc + 1 });
    raise (Unix.Unix_error (Unix.ENOSPC, "open", site))
  | _ -> ()

let create_writer ~site ~path =
  let tmp = path ^ ".tmp" in
  inject_open_fault ~site;
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  { w_site = site; w_path = path; w_tmp = tmp; w_fd = fd;
    w_buf = Buffer.create 4096; w_open = true }

let flush_buf w =
  if Buffer.length w.w_buf > 0 then begin
    let b = Buffer.to_bytes w.w_buf in
    Buffer.clear w.w_buf;
    really_write ~site:w.w_site w.w_fd b 0 (Bytes.length b)
  end

let write_string w s =
  Buffer.add_string w.w_buf s;
  if Buffer.length w.w_buf >= flush_threshold then flush_buf w

let abort w =
  if w.w_open then begin
    w.w_open <- false;
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    try Sys.remove w.w_tmp with Sys_error _ -> ()
  end

(* Best-effort fsync of a directory: some filesystems refuse the open
   or the fsync (EINVAL/EACCES); there is nothing stronger to do then,
   and the commit's file-level fsync has already run. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let commit w =
  let tail = Buffer.to_bytes w.w_buf in
  Buffer.clear w.w_buf;
  (try
     (* point 1: torn final chunk — half of it written, made durable,
        then power loss.  The file never gets renamed, so recovery must
        find either the previous committed version or nothing. *)
     if crash_hit ~site:w.w_site then begin
       let half = Bytes.length tail / 2 in
       (try
          really_write ~site:w.w_site w.w_fd tail 0 half;
          Unix.fsync w.w_fd
        with Unix.Unix_error _ -> ());
       kill_self ()
     end;
     if Bytes.length tail > 0 then
       really_write ~site:w.w_site w.w_fd tail 0 (Bytes.length tail);
     (* point 2: all data written, none of it necessarily durable *)
     if crash_hit ~site:w.w_site then kill_self ();
     Unix.fsync w.w_fd;
     (* point 3: file durable under its tmp name *)
     if crash_hit ~site:w.w_site then kill_self ()
   with e ->
     abort w;
     raise e);
  w.w_open <- false;
  (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
  (match Sys.rename w.w_tmp w.w_path with
  | () -> ()
  | exception e ->
    (try Sys.remove w.w_tmp with Sys_error _ -> ());
    raise e);
  (* point 4: renamed; the directory entry may not be durable yet *)
  if crash_hit ~site:w.w_site then kill_self ();
  fsync_dir (Filename.dirname w.w_path);
  (* point 5: fully committed and durable *)
  if crash_hit ~site:w.w_site then kill_self ()

let with_atomic_file ~site ~path f =
  let w = create_writer ~site ~path in
  match f w with
  | () -> commit w
  | exception e ->
    abort w;
    raise e

(* --- scratch files ------------------------------------------------------- *)

(* The atomic writer's open-time draw and resilient write loop, without
   its tmp file, fsyncs and rename: the whole file goes down in one
   [really_write], so an armed plan draws exactly as it does for an
   atomic commit whose data is written in one piece. *)
let write_scratch_file ~site ~path data =
  inject_open_fault ~site;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let discard e =
    (try Sys.remove path with Sys_error _ -> ());
    raise e
  in
  let len = Bytes.length data in
  (match
     (* point 1: half the bytes written *)
     if crash_hit ~site then begin
       (try really_write ~site fd data 0 (len / 2) with Unix.Unix_error _ -> ());
       kill_self ()
     end;
     really_write ~site fd data 0 len;
     (* point 2: all of them written *)
     if crash_hit ~site then kill_self ()
   with
  | () -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    discard e);
  try Unix.close fd with e -> discard e
