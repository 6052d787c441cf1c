(* Robustness battery: crash-recovery of the persistence formats under
   real SIGKILL at injected crash points, the wire layer under EINTR
   and half-closed peers, segment fault-in under flipped bytes, the
   daemon's compute-only degraded mode, and a seeded fault-plan sweep
   over every resilient-I/O site.

   The central property, shared with the rest of the suite: faults may
   cost retries, refusals or recomputation, but they must never change
   an answer.  A killed process leaves either the previous artifact or
   the new one — never a torn mix — and every failure a caller can see
   is typed (a [Result], [Corrupt], [Closed]), never a crash or a wrong
   byte. *)

open Lbsa

(* --- scratch plumbing --------------------------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let fresh_path suffix =
  let f = Filename.temp_file "lbsa-crash" suffix in
  Sys.remove f;
  f

let fresh_dir () =
  let d = fresh_path ".dir" in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file f s =
  let oc = open_out_bin f in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))

let require_exe () =
  if not (Sys.file_exists exe) then
    Alcotest.failf "CLI executable not found at %s" exe

(* --- kill-mid-checkpoint recovery --------------------------------------- *)

(* For each of the five crash points of an atomic commit (torn final
   chunk, data written, file fsynced, renamed, directory fsynced):
   SIGKILL a real `lbsa solve --checkpoint` child at that exact point,
   then recover — resume if the checkpoint file exists, fresh run if it
   does not — and require the recovered stdout to be byte-identical to
   an uninterrupted run's.  A checkpoint file that exists but fails to
   load must be refused with the clean partial exit 2 (and the fresh
   run must still match); any other outcome is a recovery bug. *)
let test_kill_mid_checkpoint () =
  require_exe ()
  ;
  let args = [ "solve"; "dac"; "-n"; "3" ] in
  let full = Crashdrive.run ~exe ~args () in
  Alcotest.(check (option int)) "baseline exits 0" (Some 0)
    (Crashdrive.exited full);
  for point = 1 to 5 do
    let ck = fresh_path ".ckpt" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ ck; ck ^ ".tmp" ])
      (fun () ->
        let crashed =
          Crashdrive.run
            ~env:[ ("LBSA_IO_CRASH", Fmt.str "checkpoint.save:%d" point) ]
            ~exe
            ~args:(args @ [ "--deadline"; "0"; "--checkpoint"; ck ])
            ()
        in
        if not (Crashdrive.killed_by crashed Sys.sigkill) then
          Alcotest.failf "point %d: child was not SIGKILLed (out=%S err=%S)"
            point crashed.Crashdrive.out crashed.Crashdrive.err;
        (* the commit is tmp+rename: before the rename (points 1-3) the
           final path must not exist; after it (4-5) it must *)
        Alcotest.(check bool)
          (Fmt.str "point %d: checkpoint visible iff renamed" point)
          (point >= 4) (Sys.file_exists ck);
        let recovered =
          if Sys.file_exists ck then begin
            let r =
              Crashdrive.run ~exe ~args:(args @ [ "--resume"; ck ]) ()
            in
            match Crashdrive.exited r with
            | Some 0 -> r
            | Some 2 ->
              (* a clean refusal is acceptable; recovery is a fresh run *)
              Crashdrive.run ~exe ~args ()
            | _ ->
              Alcotest.failf "point %d: resume neither 0 nor 2 (err=%S)"
                point r.Crashdrive.err
          end
          else Crashdrive.run ~exe ~args ()
        in
        Alcotest.(check (option int))
          (Fmt.str "point %d: recovery exits 0" point)
          (Some 0)
          (Crashdrive.exited recovered);
        Alcotest.(check string)
          (Fmt.str "point %d: recovered stdout byte-identical" point)
          full.Crashdrive.out recovered.Crashdrive.out)
  done

(* --- kill mid-spill -------------------------------------------------------- *)

(* A spilled of:3:2 explore (21 segments at this threshold) SIGKILLed
   at each crash point of its eleventh segment's scratch write: half
   the bytes written (point 21), all of them written (point 22).  The
   directory then holds the segments written so far; a tmp file like
   the ones an atomic segment commit used to leave is added to it.  A
   complete rerun in the same directory at another threshold must
   print the uninterrupted run's stdout (wall-clock and peak lines
   dropped) and leave no directory behind. *)
let test_kill_mid_spill () =
  require_exe ();
  let args ~dir threshold =
    [ "explore"; "of:3:2"; "--domains"; "1"; "--shards"; "4"; "--spill-dir"; dir;
      "--spill-threshold"; string_of_int threshold ]
  in
  let stable out =
    String.split_on_char '\n' out
    |> List.filter (fun l ->
           not
             (List.exists
                (fun prefix -> String.starts_with ~prefix l)
                [ "wall_s="; "states_per_sec="; "peak_rss_kb=" ]))
  in
  let full_dir = fresh_path ".spill" in
  let full = Crashdrive.run ~exe ~args:(args ~dir:full_dir 30_000) () in
  Alcotest.(check (option int)) "uninterrupted run exits 0" (Some 0)
    (Crashdrive.exited full);
  Alcotest.(check bool) "uninterrupted run removes its directory" false
    (Sys.file_exists full_dir);
  List.iter
    (fun point ->
      let dir = fresh_path ".spill" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let crashed =
            Crashdrive.run
              ~env:[ ("LBSA_IO_CRASH", Fmt.str "segstore.write:%d" point) ]
              ~exe ~args:(args ~dir 20_000) ()
          in
          if not (Crashdrive.killed_by crashed Sys.sigkill) then
            Alcotest.failf "point %d: child was not SIGKILLed (err=%S)" point
              crashed.Crashdrive.err;
          let left = Array.to_list (Sys.readdir dir) in
          Alcotest.(check (pair int bool))
            (Fmt.str "point %d: eleven segment files left, nothing else" point)
            (11, true)
            (List.length left, List.for_all (fun f -> Filename.check_suffix f ".seg") left);
          write_file (Filename.concat dir "seg-000000005000.seg.tmp") "torn";
          let rerun = Crashdrive.run ~exe ~args:(args ~dir 30_000) () in
          Alcotest.(check (option int))
            (Fmt.str "point %d: rerun exits 0" point)
            (Some 0) (Crashdrive.exited rerun);
          Alcotest.(check (list string))
            (Fmt.str "point %d: rerun prints the uninterrupted stdout" point)
            (stable full.Crashdrive.out) (stable rerun.Crashdrive.out);
          Alcotest.(check bool)
            (Fmt.str "point %d: rerun removes the directory" point)
            false (Sys.file_exists dir)))
    [ 21; 22 ]

(* A checkpoint with a damaged body (valid magic, flipped byte past it)
   must be refused with exit 2 — the partial-outcome code — naming the
   corruption, never resumed and never crashed on. *)
let test_corrupt_checkpoint_refused () =
  require_exe ();
  let args = [ "solve"; "dac"; "-n"; "3" ] in
  let ck = fresh_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
    (fun () ->
      let partial =
        Crashdrive.run ~exe
          ~args:(args @ [ "--deadline"; "0"; "--checkpoint"; ck ])
          ()
      in
      Alcotest.(check (option int))
        "deadline-0 exits 2" (Some 2)
        (Crashdrive.exited partial);
      let bytes = Bytes.of_string (read_file ck) in
      let i = (Bytes.length bytes / 2) + 19 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x01));
      write_file ck (Bytes.to_string bytes);
      let r = Crashdrive.run ~exe ~args:(args @ [ "--resume"; ck ]) () in
      Alcotest.(check (option int))
        "corrupt resume exits 2" (Some 2) (Crashdrive.exited r);
      Alcotest.(check bool)
        "stderr names the corruption" true
        (contains_sub ~sub:"corrupt" r.Crashdrive.err))

(* The CLI face of the fuzz-checkpoint refusal: every byte flip and
   every truncation of a saved campaign checkpoint makes `fuzz --resume`
   exit 2 (corrupt), or 3 (not a fuzz checkpoint) when the damage hits
   the magic line — never 0, never a crash. *)
let test_fuzz_checkpoint_damage_refused () =
  require_exe ();
  let args =
    [ "fuzz"; "--impl"; "pacnm:2:2"; "--trials"; "500"; "--seed"; "7" ]
  in
  let ck = fresh_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
    (fun () ->
      let partial =
        Crashdrive.run ~exe
          ~args:(args @ [ "--deadline"; "0"; "--checkpoint"; ck ])
          ()
      in
      Alcotest.(check (option int))
        "deadline-0 exits 2" (Some 2)
        (Crashdrive.exited partial);
      let saved = read_file ck in
      let magic_len = String.index saved '\n' + 1 in
      let resume what bytes ~expect =
        write_file ck bytes;
        let r = Crashdrive.run ~exe ~args:(args @ [ "--resume"; ck ]) () in
        Alcotest.(check (option int)) what (Some expect) (Crashdrive.exited r)
      in
      resume "clean checkpoint resumes" saved ~expect:0;
      String.iteri
        (fun i c ->
          let b = Bytes.of_string saved in
          Bytes.set b i (Char.chr (Char.code c lxor 0xff));
          resume
            (Fmt.str "byte %d flipped" i)
            (Bytes.to_string b)
            ~expect:(if i < magic_len then 3 else 2))
        saved;
      for n = 0 to String.length saved - 1 do
        resume
          (Fmt.str "truncated to %d bytes" n)
          (String.sub saved 0 n)
          ~expect:(if n < magic_len then 3 else 2)
      done)

(* --- daemon: kill mid-store-commit, restart, re-answer ------------------- *)

let cli_query ~socket ~extra =
  Crashdrive.run ~exe
    ~args:([ "query"; "dac:2"; "--socket"; socket; "--wait"; "10" ] @ extra)
    ()

(* SIGKILL a real daemon at the first store.put crash point (a torn,
   fsynced tmp-file prefix on disk), restart it on the same store
   directory, and require the re-asked query to succeed with exactly
   the stdout a never-crashed daemon prints. *)
let test_daemon_killed_mid_put () =
  require_exe ();
  let dir = fresh_dir () in
  let clean_dir = fresh_dir () in
  let socket = fresh_path ".sock" in
  let shutdown sock =
    ignore
      (Crashdrive.run ~exe
         ~args:[ "shutdown"; "--socket"; sock; "--wait"; "2" ]
         ())
  in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf clean_dir)
    (fun () ->
      (* reference answer from a daemon that never crashes *)
      let ref_sock = fresh_path ".sock" in
      let clean_daemon =
        Crashdrive.spawn ~exe
          ~args:[ "serve"; "--socket"; ref_sock; "--store"; clean_dir;
                  "--quiet" ]
          ()
      in
      let reference = cli_query ~socket:ref_sock ~extra:[] in
      shutdown ref_sock;
      ignore (Crashdrive.wait clean_daemon);
      Alcotest.(check (option int))
        "reference query exits 0" (Some 0)
        (Crashdrive.exited reference);
      (* crashing daemon: dies inside its first store commit *)
      let daemon =
        Crashdrive.spawn
          ~env:[ ("LBSA_IO_CRASH", "store.put:1") ]
          ~exe
          ~args:[ "serve"; "--socket"; socket; "--store"; dir; "--quiet" ]
          ()
      in
      (* the query may or may not get its answer out before the daemon
         dies; only the daemon's death is asserted here *)
      ignore (cli_query ~socket ~extra:[]);
      let dead = Crashdrive.wait daemon in
      if not (Crashdrive.killed_by dead Sys.sigkill) then
        Alcotest.failf "daemon was not SIGKILLed (err=%S)"
          dead.Crashdrive.err;
      (* restart on the same (possibly torn) store directory *)
      let daemon2 =
        Crashdrive.spawn ~exe
          ~args:[ "serve"; "--socket"; socket; "--store"; dir; "--quiet" ]
          ()
      in
      let again = cli_query ~socket ~extra:[] in
      shutdown socket;
      ignore (Crashdrive.wait daemon2);
      Alcotest.(check (option int))
        "post-restart query exits 0" (Some 0)
        (Crashdrive.exited again);
      Alcotest.(check string)
        "post-restart answer byte-identical" reference.Crashdrive.out
        again.Crashdrive.out)

(* --- wire regressions ---------------------------------------------------- *)

(* A peer that dies after sending a partial frame (here: half the magic,
   then a half-close) must surface as the typed [Wire.Closed], never a
   hang, a garbage frame, or an uncaught End_of_file. *)
let test_wire_half_closed_peer () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () ->
      ignore (Unix.write_substring a "LB" 0 2);
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Serve_wire.recv_request b with
      | _ -> Alcotest.fail "partial frame parsed as a request"
      | exception Serve_wire.Closed -> ()
      | exception e ->
        Alcotest.failf "expected Wire.Closed, got %s" (Printexc.to_string e))

(* Forced EINTR on the wire sites must be absorbed by the retry loops:
   the roundtrip still completes, and the retry counter shows the
   interruptions actually happened. *)
let test_wire_eintr_absorbed () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Rio.unforce ();
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () ->
      Rio.reset_counters ();
      Rio.force ~times:3 ~site:"wire.write" ~error:Unix.EINTR ();
      Serve_wire.send_request a Serve_wire.Ping;
      Rio.force ~times:3 ~site:"wire.read" ~error:Unix.EINTR ();
      (match Serve_wire.recv_request b with
      | Serve_wire.Ping -> ()
      | _ -> Alcotest.fail "roundtrip decoded the wrong request");
      Rio.unforce ();
      let c = Rio.counters () in
      Alcotest.(check bool)
        "interruptions were absorbed, not avoided" true
        (c.Rio.c_retries >= 6))

(* --- segment store: flipped byte refused, never decoded ------------------ *)

let test_segstore_flipped_byte () =
  let machine, specs = Consensus_protocols.from_consensus_obj ~m:2 in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let g = Cgraph.build ~machine ~specs ~inputs () in
  let n = min 4 (Cgraph.n_nodes g) in
  let configs = Array.init n (fun id -> Cgraph.node g id) in
  let seg_file_of dir =
    match
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> Filename.check_suffix f ".seg")
    with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one segment file, got %d" (List.length l)
  in
  (* sanity on a pristine store: the round trip works *)
  let dir0 = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir0)
    (fun () ->
      let t0 = Segstore.create ~dir:dir0 in
      Segstore.write_segment t0 ~lo:0 ~hi:n (Array.get configs);
      Alcotest.(check bool)
        "pristine fault-in round-trips" true
        (Config.equal configs.(0) (Segstore.node t0 0)));
  (* flip one payload byte before the first fault-in (nothing is cached
     until a read, so the mutated bytes are what gets validated) *)
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let t = Segstore.create ~dir in
      Segstore.write_segment t ~lo:0 ~hi:n (Array.get configs);
      let seg_file = seg_file_of dir in
      let bytes = Bytes.of_string (read_file seg_file) in
      let i = Bytes.length bytes - 7 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x10));
      write_file seg_file (Bytes.to_string bytes);
      (match Segstore.node t 0 with
      | _ -> Alcotest.fail "flipped byte decoded as a node"
      | exception Segstore.Corrupt msg ->
        Alcotest.(check bool)
          "refusal names the defect" true
          (contains_sub ~sub:"Segstore" msg));
      Alcotest.(check int) "refusal counted" 1 (Segstore.corrupt_count t);
      (* the streamed walk reads the same bytes and refuses them too *)
      (match ignore (Segstore.find_map t (fun _ _ -> None)) with
      | () -> Alcotest.fail "flipped byte decoded by the streamed walk"
      | exception Segstore.Corrupt msg ->
        Alcotest.(check bool)
          "streamed refusal names the defect" true
          (contains_sub ~sub:"Segstore" msg));
      Alcotest.(check int) "streamed refusal counted" 2
        (Segstore.corrupt_count t))

(* A scratch write under a 50% fault plan, forty seeds: each either
   returns with the whole file on disk or raises a [Unix_error] and
   leaves no file.  Both outcomes occur, and short writes are absorbed
   on the way. *)
let test_scratch_write_whole_or_none () =
  let data = Bytes.init 100_000 (fun i -> Char.chr (i land 0xff)) in
  let wrote = ref 0 and failed = ref 0 in
  Rio.reset_counters ();
  Fun.protect
    ~finally:(fun () -> Rio.disarm ())
    (fun () ->
      for seed = 1 to 40 do
        let path = fresh_path ".seg" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            Rio.arm ~seed ~rate_percent:50 ();
            match Rio.write_scratch_file ~site:"segstore.write" ~path data with
            | () ->
              incr wrote;
              if read_file path <> Bytes.to_string data then
                Alcotest.failf "seed %d: the file differs from what was written"
                  seed
            | exception Unix.Unix_error _ ->
              incr failed;
              if Sys.file_exists path then
                Alcotest.failf "seed %d: a failed write left its file" seed)
      done);
  Alcotest.(check bool) "some writes completed" true (!wrote > 0);
  Alcotest.(check bool) "some writes failed" true (!failed > 0);
  Alcotest.(check bool) "short writes were absorbed" true
    ((Rio.counters ()).Rio.c_short_write > 0)

(* --- daemon graceful degradation ----------------------------------------- *)

let ask c q =
  match Serve_client.query c q with
  | Ok (r, cached, _) -> (r, cached)
  | Error msg -> Alcotest.failf "query failed: %s" msg

let verify_q task =
  Serve_api.Verify
    {
      task;
      question = Serve_api.Solve;
      inputs = Serve_api.default_inputs task;
      max_states = 200_000;
      reduce = `None;
      substrate = Serve_api.default_substrate task;
    }

(* A store that starts failing hard (every put raising EROFS, as a
   remounted-read-only disk would) must flip the daemon to compute-only
   mode: queries keep getting correct answers, the degradation is
   counted, and once the store heals a re-probe re-arms persistence. *)
let test_daemon_degrades_and_recovers () =
  let dir = fresh_dir () in
  let socket = fresh_path ".sock" in
  Fun.protect
    ~finally:(fun () ->
      Rio.unforce ();
      rm_rf dir)
    (fun () ->
      Rio.force ~site:"store.put" ~error:Unix.EROFS ();
      let d =
        Domain.spawn (fun () ->
            Serve_daemon.run
              {
                Serve_daemon.socket;
                store_dir = dir;
                workers = 1;
                default_deadline_s = None;
                store_probe_s = 0.05;
                log = false;
              })
      in
      let c =
        match Serve_client.connect ~wait_s:10. ~socket () with
        | Ok c -> c
        | Error msg -> Alcotest.failf "daemon did not come up: %s" msg
      in
      let stats =
        Fun.protect
          ~finally:(fun () ->
            (match Serve_client.connect ~wait_s:10. ~socket () with
            | Ok c2 ->
              ignore (Serve_client.shutdown c2);
              Serve_client.close c2
            | Error _ -> ());
            Serve_client.close c)
          (fun () ->
            (* first query: computes, put fails hard, daemon degrades —
               but the answer must still arrive *)
            let r1, _ = ask c (verify_q (Serve_api.Dac { n = 2 })) in
            (* second query under degradation: still answered *)
            let r2, _ = ask c (verify_q (Serve_api.Consensus { m = 2 })) in
            (match (r1, r2) with
            | Serve_api.Verdict _, Serve_api.Verdict _ -> ()
            | _ -> Alcotest.fail "degraded daemon returned a non-verdict");
            let st =
              match Serve_client.stats c with
              | Ok st -> st
              | Error msg -> Alcotest.failf "stats failed: %s" msg
            in
            Alcotest.(check bool)
              "degradation counted" true
              (st.Serve_wire.st_degraded > 0);
            (* heal the store and wait out the probe interval *)
            Rio.unforce ();
            Unix.sleepf 0.2;
            let r3, _ = ask c (verify_q (Serve_api.Kset { m = 2; k = 2 })) in
            (match r3 with
            | Serve_api.Verdict _ -> ()
            | _ -> Alcotest.fail "healed daemon returned a non-verdict");
            let entries =
              Sys.readdir dir |> Array.to_list
              |> List.filter (fun f -> not (Filename.check_suffix f ".tmp"))
            in
            Alcotest.(check bool)
              "store re-armed after heal (entry persisted)" true
              (entries <> []))
      in
      ignore stats;
      ignore (Domain.join d))

(* The CLI over a store directory it cannot write (mode 555): a real
   `lbsa serve` child still answers `lbsa query` (exit 0, the verdict
   on stdout), `lbsa query --stats` prints a nonzero degraded= counter,
   and a shutdown drains the daemon to exit 0.  A process allowed to
   write anyway (root) would find the directory writable, so for it the
   entry's tmp path is made a directory: that commit fails too, as it
   does on a read-only disk. *)
let test_daemon_read_only_store () =
  require_exe ();
  let dir = fresh_dir () in
  let socket = fresh_path ".sock" in
  (* the query `lbsa query dac:3` sends *)
  let q =
    Serve_api.Verify
      { task = Serve_api.Dac { n = 3 }; question = Serve_api.Solve;
        inputs = [ 1; 0; 0 ]; max_states = Cgraph.default_max_states;
        reduce = `None; substrate = "shm" }
  in
  let cli ~what args =
    let c = Crashdrive.spawn ~exe ~args:(args @ [ "--socket"; socket ]) () in
    match Crashdrive.wait_within c 30. with
    | Some o ->
      Alcotest.(check (option int))
        (Fmt.str "%s exits 0 (err=%S)" what o.Crashdrive.err)
        (Some 0) (Crashdrive.exited o);
      o.Crashdrive.out
    | None ->
      (try Unix.kill (Crashdrive.pid c) Sys.sigkill
       with Unix.Unix_error _ -> ());
      ignore (Crashdrive.wait c);
      Alcotest.failf "%s: no answer within 30 s" what
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.chmod dir 0o755;
      rm_rf dir;
      rm_rf socket)
    (fun () ->
      Unix.chmod dir 0o555;
      if (try Unix.access dir [ Unix.W_OK ]; true
          with Unix.Unix_error _ -> false)
      then begin
        Unix.chmod dir 0o755;
        let entry = Serve_store.path (Serve_store.open_ ~dir) ~key:(Serve_api.key q) in
        Unix.mkdir (entry ^ ".tmp") 0o755;
        Unix.chmod dir 0o555
      end;
      let daemon =
        Crashdrive.spawn ~exe
          ~args:[ "serve"; "--socket"; socket; "--store"; dir; "--quiet" ]
          ()
      in
      let exited = ref false in
      Fun.protect ~finally:(fun () ->
          if not !exited then begin
            (try Unix.kill (Crashdrive.pid daemon) Sys.sigkill
             with Unix.Unix_error _ -> ());
            ignore (Crashdrive.wait daemon)
          end)
      @@ fun () ->
      Alcotest.(check string) "query answered" "OK (inputs=1,0,0, 190 states)\n"
        (cli ~what:"query" [ "query"; "dac:3"; "--wait"; "30" ]);
      let stats = cli ~what:"query --stats" [ "query"; "--stats" ] in
      let degraded =
        List.find_map
          (fun field ->
            match String.split_on_char '=' field with
            | [ "degraded"; n ] -> int_of_string_opt n
            | _ -> None)
          (String.split_on_char ' ' (String.trim stats))
      in
      (match degraded with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "no nonzero degraded= in %S" stats);
      ignore (cli ~what:"shutdown" [ "shutdown" ]);
      let o = Crashdrive.wait daemon in
      exited := true;
      Alcotest.(check (option int))
        (Fmt.str "daemon exits 0 (err=%S)" o.Crashdrive.err)
        (Some 0) (Crashdrive.exited o))

(* --- daemon: hostile frames ---------------------------------------------- *)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let section ~tag payload =
  let b = Buffer.create 64 in
  Codec.write_section (Buffer.add_string b) ~tag payload;
  Buffer.contents b

(* Send raw bytes on a connection of their own, half-close it, and wait
   for the daemon to hang up: whatever the frame, the daemon must drop
   only that connection.  A hang-up with unread bytes arrives as a
   reset. *)
let send_raw ~socket bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Bytes.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 256 with
        | 0 -> ()
        | _ -> drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ())

(* A real `lbsa serve` child gets one hostile frame per connection, and
   after each one still answers a fresh client correctly, from its
   cache once the first answer is in: a hostile peer costs only its
   own connection.  Frame (a) is the old wire format carrying a
   well-formed marshalled value of the wrong shape: at the commit
   before the typed codec it killed the daemon with SIGSEGV. *)
let test_daemon_survives_hostile_frames () =
  require_exe ();
  let dir = fresh_dir () in
  let socket = fresh_path ".sock" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let daemon =
        Crashdrive.spawn ~exe
          ~args:[ "serve"; "--socket"; socket; "--store"; dir; "--quiet" ]
          ()
      in
      let exited = ref false in
      Fun.protect ~finally:(fun () ->
          if not !exited then begin
            (try Unix.kill (Crashdrive.pid daemon) Sys.sigkill
             with Unix.Unix_error _ -> ());
            ignore (Crashdrive.wait daemon)
          end)
      @@ fun () ->
      let client () =
        match Serve_client.connect ~wait_s:10. ~socket () with
        | Ok c -> c
        | Error msg -> Alcotest.failf "daemon unreachable: %s" msg
      in
      Serve_client.close (client ());
      let marshalled = Marshal.to_string (1, 2) [] in
      let ping = section ~tag:"REQUEST" (Codec.encode Serve_wire.request_codec Serve_wire.Ping) in
      let pong =
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> List.iter Unix.close [ a; b ])
          (fun () ->
            Serve_wire.send_response a Serve_wire.Pong;
            Unix.shutdown a Unix.SHUTDOWN_SEND;
            In_channel.input_all (Unix.in_channel_of_descr b))
      in
      let huge =
        let h = Bytes.make Codec.header_len ' ' in
        Bytes.blit_string "REQUEST" 0 h 0 7;
        Bytes.set_int64_be h 8 (Int64.shift_left 1L 40);
        Bytes.to_string h
      in
      let bad_sum =
        let b = Bytes.of_string ping in
        Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 1));
        Bytes.to_string b
      in
      let rng = Random.State.make [| 17 |] in
      let frames =
        [
          ( "(a) marshalled pair in an LBS1 frame",
            of_hex "4c425331000000178495a6be00000003000000010000000300000003a04142" );
          ("(b) marshalled pair in a checksummed section", section ~tag:"REQUEST" marshalled);
          ("(c) 40 random bytes", String.init 40 (fun _ -> Char.chr (Random.State.int rng 256)));
          ("(d) an encoded Pong sent as a request", pong);
          ("(e) a length field of 2^40", huge);
          ("(f) a bad checksum", bad_sum);
        ]
      in
      Alcotest.(check string)
        "frame (a) carries the same marshalled pair" marshalled
        (String.sub (snd (List.hd frames)) 8 23);
      let q = verify_q (Serve_api.Dac { n = 3 }) in
      List.iteri
        (fun i (what, frame) ->
          send_raw ~socket frame;
          let c = client () in
          Fun.protect
            ~finally:(fun () -> Serve_client.close c)
            (fun () ->
              match Serve_client.query c q with
              | Ok (r, cached, _) ->
                Alcotest.(check string)
                  (what ^ ": daemon still answers") "OK (inputs=1,0,0, 190 states)"
                  (Serve_api.render r);
                Alcotest.(check bool) (what ^ ": cache kept") (i > 0) cached
              | Error msg -> Alcotest.failf "%s: query failed: %s" what msg))
        frames;
      let c = client () in
      (match Serve_client.shutdown c with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "shutdown: %s" msg);
      Serve_client.close c;
      let o = Crashdrive.wait daemon in
      exited := true;
      Alcotest.(check (option int))
        (Fmt.str "daemon exits 0 (err=%S)" o.Crashdrive.err)
        (Some 0) (Crashdrive.exited o);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket))

(* --- daemon: stalled peers ----------------------------------------------- *)

let request_frame q =
  section ~tag:"REQUEST"
    (Codec.encode Serve_wire.request_codec
       (Serve_wire.Query { q; deadline_s = None }))

let connect_raw ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* The rendered answer on [fd], or [None] if none starts arriving
   within [within] seconds. *)
let answer_within ~within fd =
  match Unix.select [ fd ] [] [] within with
  | [], _, _ -> None
  | _ -> (
    match Serve_wire.recv_response fd with
    | Serve_wire.Result { r; _ } -> Some (Serve_api.render r)
    | _ -> Some "a non-result response")

(* Two peers stall mid-frame — A after 10 header bytes, B after its
   header and half its payload — and a third client's dac:3 query must
   still be answered within a second by a real `lbsa serve` child.
   Then A and B finish their frames and get their own answers; B sends
   the rest of its frame and the whole frame again in one write, so one
   read holds two frames (replies to one connection follow completion
   order, so both ask the same question). *)
let test_daemon_stalled_peers () =
  require_exe ();
  let dir = fresh_dir () in
  let socket = fresh_path ".sock" in
  let q_a = verify_q (Serve_api.Dac { n = 3 }) in
  let q_b = verify_q (Serve_api.Consensus { m = 2 }) in
  let expect q = Serve_api.render (Serve_api.compute q).Serve_api.res in
  let fds = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fds;
      rm_rf dir)
    (fun () ->
      let daemon =
        Crashdrive.spawn ~exe
          ~args:[ "serve"; "--socket"; socket; "--store"; dir; "--quiet" ]
          ()
      in
      let exited = ref false in
      Fun.protect ~finally:(fun () ->
          if not !exited then begin
            (try Unix.kill (Crashdrive.pid daemon) Sys.sigkill
             with Unix.Unix_error _ -> ());
            ignore (Crashdrive.wait daemon)
          end)
      @@ fun () ->
      (match Serve_client.connect ~wait_s:10. ~socket () with
      | Ok c -> Serve_client.close c
      | Error msg -> Alcotest.failf "daemon unreachable: %s" msg);
      let open_conn () =
        let fd = connect_raw ~socket in
        fds := fd :: !fds;
        fd
      in
      let frame_a = request_frame q_a and frame_b = request_frame q_b in
      let cut_a = 10 in
      let cut_b =
        Codec.header_len + ((String.length frame_b - Codec.header_len) / 2)
      in
      let a = open_conn () and b = open_conn () in
      write_all a (String.sub frame_a 0 cut_a);
      write_all b (String.sub frame_b 0 cut_b);
      (* let the daemon take in both partial frames first *)
      Unix.sleepf 0.2;
      let c = open_conn () in
      write_all c frame_a;
      Alcotest.(check (option string))
        "third client answered within 1 s" (Some (expect q_a))
        (answer_within ~within:1. c);
      write_all a (String.sub frame_a cut_a (String.length frame_a - cut_a));
      write_all b
        (String.sub frame_b cut_b (String.length frame_b - cut_b) ^ frame_b);
      Alcotest.(check (option string))
        "A's finished frame answered" (Some (expect q_a))
        (answer_within ~within:10. a);
      Alcotest.(check (option string))
        "B's finished frame answered" (Some (expect q_b))
        (answer_within ~within:10. b);
      Alcotest.(check (option string))
        "B's second frame, from the same read, answered" (Some (expect q_b))
        (answer_within ~within:10. b);
      let c = match Serve_client.connect ~socket () with
        | Ok c -> c
        | Error msg -> Alcotest.failf "daemon unreachable: %s" msg
      in
      (match Serve_client.shutdown c with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "shutdown: %s" msg);
      Serve_client.close c;
      let o = Crashdrive.wait daemon in
      exited := true;
      Alcotest.(check (option int))
        (Fmt.str "daemon exits 0 (err=%S)" o.Crashdrive.err)
        (Some 0) (Crashdrive.exited o))

(* --- daemon: failed reply writes ------------------------------------------ *)

(* Under [--io-chaos-seed 2] an injected fault hits the daemon's reply
   to its first query.  A reply that cannot be written must close the
   connection, so the `lbsa query` child comes back within 5 s and
   exits 3 naming the closed connection, instead of waiting forever for
   an answer that never comes.  The daemon keeps serving: the next
   query gets the (now memoised) answer, and a shutdown drains it to
   exit 0. *)
let test_daemon_failed_reply_closes () =
  require_exe ();
  let dir = fresh_dir () in
  let socket = fresh_path ".sock" in
  (* A daemon SIGKILLed on failure never unlinks its own socket. *)
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf socket)
    (fun () ->
      let daemon =
        Crashdrive.spawn ~exe
          ~args:
            [ "serve"; "--socket"; socket; "--store"; dir; "--quiet";
              "--io-chaos-seed"; "2" ]
          ()
      in
      let exited = ref false in
      Fun.protect ~finally:(fun () ->
          if not !exited then begin
            (try Unix.kill (Crashdrive.pid daemon) Sys.sigkill
             with Unix.Unix_error _ -> ());
            ignore (Crashdrive.wait daemon)
          end)
      @@ fun () ->
      let cli what args =
        let q =
          Crashdrive.spawn ~exe ~args:(args @ [ "--socket"; socket ]) ()
        in
        match Crashdrive.wait_within q 5. with
        | Some o -> o
        | None ->
          (try Unix.kill (Crashdrive.pid q) Sys.sigkill
           with Unix.Unix_error _ -> ());
          ignore (Crashdrive.wait q);
          Alcotest.failf "%s: no answer and no hang-up within 5 s" what
      in
      let query what = cli what [ "query"; "dac:2"; "--wait"; "10" ] in
      let first = query "first query" in
      Alcotest.(check (option int))
        (Fmt.str "first query exits 3 (err=%S)" first.Crashdrive.err)
        (Some 3) (Crashdrive.exited first);
      Alcotest.(check bool)
        "refusal names the closed connection" true
        (contains_sub ~sub:"closed the connection" first.Crashdrive.err);
      let second = query "second query" in
      Alcotest.(check (option int))
        (Fmt.str "second query exits 0 (err=%S)" second.Crashdrive.err)
        (Some 0) (Crashdrive.exited second);
      Alcotest.(check string)
        "second query answered" "OK (inputs=1,0, 36 states)\n"
        second.Crashdrive.out;
      let stop = cli "shutdown" [ "shutdown" ] in
      Alcotest.(check (option int))
        (Fmt.str "shutdown exits 0 (err=%S)" stop.Crashdrive.err)
        (Some 0) (Crashdrive.exited stop);
      let o = Crashdrive.wait daemon in
      exited := true;
      Alcotest.(check (option int))
        (Fmt.str "daemon exits 0 (err=%S)" o.Crashdrive.err)
        (Some 0) (Crashdrive.exited o));
  Alcotest.(check bool) "socket path removed" false (Sys.file_exists socket)

(* --- seeded fault-plan sweep --------------------------------------------- *)

(* Twenty seeds, every resilient-I/O component, injection rate 25%:
   transient faults must be absorbed, hard faults must surface only as
   the component's typed failure (a [put] Error, a [get] miss, a
   [Corrupt], a [Closed], a [Unix_error] from a commit) — and any
   answer that does come back must equal the unfaulted one.  Zero
   tolerance for wrong bytes and for exceptions outside the typed
   set. *)
let test_fault_plan_sweep () =
  (* unfaulted reference material, built before arming *)
  let machine = Dac_from_pac.machine ~n:3 in
  let specs = Dac_from_pac.specs ~n:3 in
  let inputs = Array.init 3 (fun pid -> Value.int (if pid = 0 then 1 else 0)) in
  let partial = Cgraph.build ~max_states:40 ~machine ~specs ~inputs () in
  let suspended = Option.get partial.Cgraph.suspended in
  let g = Cgraph.build ~machine ~specs ~inputs () in
  let nseg = min 4 (Cgraph.n_nodes g) in
  let seg_configs = Array.init nseg (fun id -> Cgraph.node g id) in
  let survived = ref 0 and refused = ref 0 in
  Fun.protect
    ~finally:(fun () -> Rio.disarm ())
    (fun () ->
      for seed = 1 to 20 do
        Rio.arm ~seed ~rate_percent:25 ();
        (* store: every hit must serve the written bytes *)
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let s = Serve_store.open_ ~dir in
            for i = 0 to 7 do
              let key = Fmt.str "k%02d%04d" i seed in
              let canonical = Fmt.str "question %d/%d" seed i in
              let data = Fmt.str "answer %d/%d" seed i in
              (match Serve_store.put s ~key ~canonical ~data with
              | Ok () -> ()
              | Error _ -> incr refused);
              match Serve_store.get s ~key ~canonical with
              | None -> ()
              | Some got ->
                incr survived;
                if got <> data then
                  Alcotest.failf "seed %d: store served wrong bytes" seed
            done);
        (* checkpoint: save may refuse; a loadable save must thaw equal *)
        let ck = fresh_path ".ckpt" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun f -> if Sys.file_exists f then Sys.remove f)
              [ ck; ck ^ ".tmp" ])
          (fun () ->
            match
              Checkpoint.save ~file:ck
                (Checkpoint.freeze ~label:"sweep" suspended)
            with
            | exception Unix.Unix_error _ -> incr refused
            | () -> (
              match Checkpoint.load ~file:ck with
              | exception Checkpoint.Corrupt _ -> incr refused
              | c ->
                incr survived;
                if Checkpoint.label c <> "sweep" then
                  Alcotest.failf "seed %d: checkpoint label drifted" seed;
                let s' = Checkpoint.thaw c in
                if
                  s'.Cgraph.s_expanded <> suspended.Cgraph.s_expanded
                  || Array.length s'.Cgraph.s_nodes
                     <> Array.length suspended.Cgraph.s_nodes
                then
                  Alcotest.failf "seed %d: checkpoint round-trip drifted" seed))
          ;
        (* segstore: a fault-in either matches the original or refuses *)
        let sdir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf sdir)
          (fun () ->
            match
              let t = Segstore.create ~dir:sdir in
              Segstore.write_segment t ~lo:0 ~hi:nseg (Array.get seg_configs);
              t
            with
            | exception Unix.Unix_error _ -> incr refused
            | t -> (
              for id = 0 to nseg - 1 do
                match Segstore.node t id with
                | exception Segstore.Corrupt _ -> incr refused
                | cfg ->
                  incr survived;
                  if not (Config.equal cfg seg_configs.(id)) then
                    Alcotest.failf "seed %d: segstore served wrong config"
                      seed
              done));
        (* wire: a roundtrip either delivers the exact frame or fails
           with the typed closure/IO errors *)
        for round = 0 to 2 do
          let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (* each side hangs up on its own failure (shutdown, so the fd
             number stays owned): the peer's blocked read then sees EOF
             as [Closed] instead of waiting forever on a half-sent
             frame *)
          let hangup fd =
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ()
          in
          let server =
            Domain.spawn (fun () ->
                match Serve_wire.recv_request b with
                | Serve_wire.Ping -> (
                  try Serve_wire.send_response b Serve_wire.Pong
                  with Serve_wire.Closed | Unix.Unix_error _ | Failure _ ->
                    hangup b)
                | _ -> hangup b
                | exception
                    ( Serve_wire.Closed | Unix.Unix_error _ | Failure _ ) ->
                  hangup b)
          in
          (match
             Serve_wire.send_request a Serve_wire.Ping;
             Serve_wire.recv_response a
           with
          | Serve_wire.Pong -> incr survived
          | _ -> Alcotest.failf "seed %d round %d: wrong frame" seed round
          | exception (Serve_wire.Closed | Unix.Unix_error _) ->
            incr refused;
            hangup a);
          Domain.join server;
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ a; b ]
        done;
        Rio.disarm ()
      done);
  (* the sweep must have both injected real trouble and survived it *)
  let c = Rio.counters () in
  let injected =
    c.Rio.c_eintr + c.Rio.c_short_read + c.Rio.c_short_write + c.Rio.c_enospc
    + c.Rio.c_eio
  in
  Alcotest.(check bool) "faults were injected" true (injected > 0);
  Alcotest.(check bool) "hard faults were refused" true (!refused > 0);
  Alcotest.(check bool) "some operations survived" true (!survived > 0)

(* --- registration -------------------------------------------------------- *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "crash_recovery"
    [
      ( "checkpoint",
        [
          tc "SIGKILL at each crash point, recovery byte-identical"
            test_kill_mid_checkpoint;
          tc "corrupt checkpoint refused with exit 2"
            test_corrupt_checkpoint_refused;
          tc "damaged fuzz checkpoint refused, never resumed"
            test_fuzz_checkpoint_damage_refused;
        ] );
      ( "daemon",
        [
          tc "killed mid-store-commit, restart re-answers identically"
            test_daemon_killed_mid_put;
          tc "store failure degrades to compute-only, then recovers"
            test_daemon_degrades_and_recovers;
          tc "a read-only store: the CLI daemon answers, counts, drains"
            test_daemon_read_only_store;
          tc "hostile frames never kill the daemon"
            test_daemon_survives_hostile_frames;
          tc "stalled peers never block another client"
            test_daemon_stalled_peers;
          tc "a failed reply closes its connection"
            test_daemon_failed_reply_closes;
        ] );
      ( "wire",
        [
          tc "half-closed peer surfaces as Closed" test_wire_half_closed_peer;
          tc "forced EINTR absorbed by retry loops" test_wire_eintr_absorbed;
        ] );
      ( "segstore",
        [
          tc "flipped byte refused as Corrupt" test_segstore_flipped_byte;
          tc "SIGKILL mid-spill, a rerun leaves nothing behind"
            test_kill_mid_spill;
          tc "a scratch write leaves the whole file or none"
            test_scratch_write_whole_or_none;
        ] );
      ( "sweep",
        [ tc "20 seeds x all sites: no wrong answers" test_fault_plan_sweep ]
      );
    ]
