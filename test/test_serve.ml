(* The verification service: canonical keys, the content-addressed
   store under fault injection, the daemon's cache layers (memory,
   persistent, cross-restart), single-flight coalescing under
   concurrent clients, fuzz-prefix resumption, and the CLI front-end.

   The battery's central property: for every query, the answer a client
   receives is byte-identical whether it was computed cold, served from
   the in-memory memo, served from the persistent store after a daemon
   restart, or reassembled from a resumed fuzz prefix. *)

open Lbsa

(* --- scratch plumbing --------------------------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let fresh_path suffix =
  let f = Filename.temp_file "lbsa-serve" suffix in
  Sys.remove f;
  f

let fresh_dir () =
  let d = fresh_path ".store" in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Run [f] against a live in-process daemon; always drain it afterwards
   (even on test failure) so the domain can be joined.  Returns [f]'s
   result and the daemon's final counters. *)
let with_daemon ?(workers = 2) ?default_deadline_s ?(store_probe_s = 5.) ~dir f
    =
  let socket = fresh_path ".sock" in
  let d =
    Domain.spawn (fun () ->
        Serve_daemon.run
          {
            Serve_daemon.socket;
            store_dir = dir;
            workers;
            default_deadline_s;
            store_probe_s;
            log = false;
          })
  in
  (* wait until the daemon accepts before handing the socket to [f]:
     tests must never race the bind (a second in-process daemon started
     too early would win it and serve forever in this thread) *)
  (match Serve_client.connect ~wait_s:10. ~socket () with
  | Ok c -> Serve_client.close c
  | Error msg -> Alcotest.failf "daemon did not come up: %s" msg);
  let res =
    Fun.protect
      ~finally:(fun () ->
        match Serve_client.connect ~wait_s:10. ~socket () with
        | Ok c ->
          ignore (Serve_client.shutdown c);
          Serve_client.close c
        | Error _ -> ())
      (fun () -> f ~socket)
  in
  let stats = Domain.join d in
  (res, stats)

let connect ~socket =
  match Serve_client.connect ~wait_s:10. ~socket () with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let ask ?deadline_s c q =
  match Serve_client.query ?deadline_s c q with
  | Ok (r, cached, _wall) -> (r, cached)
  | Error msg -> Alcotest.failf "query %s: %s" (Serve_api.canonical q) msg

(* --- canonical keys ----------------------------------------------------- *)

let max_states = 200_000

let verify ?(question = Serve_api.Solve) ?(reduce = `None) ?substrate ?inputs
    task =
  let inputs =
    match inputs with Some l -> l | None -> Serve_api.default_inputs task
  in
  let substrate =
    match substrate with
    | Some s -> s
    | None -> Serve_api.default_substrate task
  in
  Serve_api.Verify { task; question; inputs; max_states; reduce; substrate }

(* The golden pin: the canonical preimage format and its digest are the
   persistent store's on-disk address space — drift invalidates (or
   worse, silently re-addresses) every existing store.  Bump the
   lbsa-query/N version tag deliberately, never accidentally. *)
let test_canonical_golden () =
  let q = verify ~reduce:`Sym (Serve_api.Dac { n = 3 }) in
  Alcotest.(check string)
    "canonical preimage"
    "lbsa-query/2 verify task=dac:3 question=solve inputs=1,0,0 \
     max_states=200000 reduce=sym substrate=shm"
    (Serve_api.canonical q);
  Alcotest.(check string) "digest" "1aee6902e752d54b" (Serve_api.key q)

(* Regression for the fingerprint defect this PR fixes: every
   key-determining parameter must separate the canonical preimage.  The
   original `lbsa fingerprint` ignored the reduction mode, the input
   vector and the state quota, so e.g. sym and sym+sleep runs of the
   same task shared a fingerprint — in a cache, one mode's answer would
   be served for the other. *)
let test_key_separation () =
  let dac = Serve_api.Dac { n = 3 } in
  let base = verify dac in
  let distinct label a b =
    if Serve_api.canonical a = Serve_api.canonical b then
      Alcotest.failf "%s: canonicals collide (%s)" label
        (Serve_api.canonical a);
    if Serve_api.key a = Serve_api.key b then
      Alcotest.failf "%s: keys collide" label
  in
  distinct "reduce none/sym" base (verify ~reduce:`Sym dac);
  distinct "reduce sym/sym+sleep" (verify ~reduce:`Sym dac)
    (verify ~reduce:`Sym_sleep dac);
  distinct "reduce none/sym+sleep" base (verify ~reduce:`Sym_sleep dac);
  distinct "inputs" base (verify ~inputs:[ 0; 0; 0 ] dac);
  distinct "question" base (verify ~question:Serve_api.Valence dac);
  distinct "max_states" base
    (Serve_api.Verify
       {
         task = dac;
         question = Serve_api.Solve;
         inputs = Serve_api.default_inputs dac;
         max_states = max_states + 1;
         reduce = `None;
         substrate = "shm";
       });
  distinct "task" base (verify (Serve_api.Consensus { m = 2 }));
  (* the /2 additions: substrate and the liveness question are
     graph-changing, so they must separate keys too *)
  let vc = Serve_api.Vc { n = 2 } in
  distinct "substrate shm/mp" (verify ~substrate:"shm" vc)
    (verify ~substrate:"mp" vc);
  distinct "substrate mp/mp+byz"
    (verify ~substrate:"mp" vc)
    (verify ~substrate:"mp+byz:1" vc);
  distinct "question solve/live" (verify vc)
    (verify ~question:Serve_api.Live vc);
  distinct "task vc/bcast" (verify vc) (verify (Serve_api.Bcast { n = 2 }));
  distinct "verify/fuzz"
    base
    (Serve_api.Fuzz { target = "queue"; trials = 1; procs = 2; ops = 2; seed = 1 })

(* --- the store under fault injection ------------------------------------ *)

(* [Store.put] reports device-level failures as [Error]; these tests run
   against a healthy filesystem, so any [Error] is itself a failure. *)
let put_ok s ~key ~canonical ~data =
  match Serve_store.put s ~key ~canonical ~data with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "Store.put failed: %s" msg

let test_store_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      put_ok s ~key:"abcd" ~canonical:"question one" ~data:"answer";
      Alcotest.(check (option string))
        "roundtrip" (Some "answer")
        (Serve_store.get s ~key:"abcd" ~canonical:"question one");
      Alcotest.(check (list string)) "listed" [ "abcd" ] (Serve_store.entries s);
      (* overwrite is atomic and replaces *)
      put_ok s ~key:"abcd" ~canonical:"question one" ~data:"answer2";
      Alcotest.(check (option string))
        "overwrite" (Some "answer2")
        (Serve_store.get s ~key:"abcd" ~canonical:"question one");
      Alcotest.(check int) "no corruption seen" 0 (Serve_store.corrupt_count s))

(* Apply [mutate] to the entry file and check the store detects it,
   deletes the entry, and a rewrite then works again. *)
let check_detects label mutate =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      let key = "deadbeef00000001" and canonical = "some question" in
      put_ok s ~key ~canonical ~data:"the answer";
      mutate (Serve_store.path s ~key);
      Alcotest.(check (option string))
        (label ^ ": detected as a miss") None
        (Serve_store.get s ~key ~canonical);
      Alcotest.(check int) (label ^ ": counted") 1 (Serve_store.corrupt_count s);
      Alcotest.(check bool)
        (label ^ ": evicted") false
        (Sys.file_exists (Serve_store.path s ~key));
      (* the recompute-and-rewrite path restores service *)
      put_ok s ~key ~canonical ~data:"the answer";
      Alcotest.(check (option string))
        (label ^ ": rewrite serves") (Some "the answer")
        (Serve_store.get s ~key ~canonical))

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

let test_store_truncation () =
  check_detects "truncated" (fun file ->
      let s = read_file file in
      write_file file (String.sub s 0 (String.length s - 3)))

let test_store_payload_flip () =
  check_detects "payload byte flip" (fun file ->
      let s = Bytes.of_string (read_file file) in
      let i = Bytes.length s - 2 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x40));
      write_file file (Bytes.to_string s))

let test_store_checksum_flip () =
  check_detects "checksum byte flip" (fun file ->
      let s = Bytes.of_string (read_file file) in
      (* the section's checksum field follows the magic line, the 8-byte
         tag and the 8-byte length *)
      let i = String.length "LBSA-STORE/2\n" + 16 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x01));
      write_file file (Bytes.to_string s))

let test_store_garbage () =
  check_detects "garbage file" (fun file -> write_file file "not a store entry")

let test_store_empty_file () =
  check_detects "empty file" (fun file -> write_file file "")

(* A digest collision (or a hand-renamed entry): the file is internally
   pristine — magic and checksum verify — but it answers a different
   canonical question.  The preimage check must refuse it; routing by
   digest alone would serve query A's answer to query B. *)
let test_store_collision_refused () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      put_ok s ~key:"aaaa" ~canonical:"question A" ~data:"answer A";
      (* simulate key "bbbb" hashing to the same file contents as "aaaa" *)
      write_file (Serve_store.path s ~key:"bbbb")
        (read_file (Serve_store.path s ~key:"aaaa"));
      Alcotest.(check (option string))
        "collision refused" None
        (Serve_store.get s ~key:"bbbb" ~canonical:"question B");
      Alcotest.(check int) "counted as corrupt" 1 (Serve_store.corrupt_count s);
      Alcotest.(check (option string))
        "original untouched" (Some "answer A")
        (Serve_store.get s ~key:"aaaa" ~canonical:"question A"))

(* The payload guard: a body over [max_payload] is refused outright —
   no file, no corruption count, just an oversized count — and the key
   stays serviceable for normally-sized rewrites. *)
let test_store_oversized_refused () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      let key = "feedface00000001" and canonical = "a big question" in
      put_ok s ~key ~canonical
        ~data:(String.make (Serve_store.max_payload + 1) 'x');
      Alcotest.(check bool)
        "nothing written" false
        (Sys.file_exists (Serve_store.path s ~key));
      Alcotest.(check (option string))
        "reported as a miss" None
        (Serve_store.get s ~key ~canonical);
      Alcotest.(check int) "counted oversized" 1 (Serve_store.oversized_count s);
      Alcotest.(check int)
        "not counted corrupt" 0 (Serve_store.corrupt_count s);
      (* the same key still takes a sane entry afterwards *)
      put_ok s ~key ~canonical ~data:"a small answer";
      Alcotest.(check (option string))
        "small rewrite serves" (Some "a small answer")
        (Serve_store.get s ~key ~canonical))

(* The other half of the guard, end to end: a quota-truncated explore
   answers with a fixed-size verdict+stats summary, never the graph.
   However many states the exploration visited, what crosses the wire
   and what lands in the store stays a few hundred bytes — far under
   both the 16 MB frame cap and the store's [max_payload] — so a
   >=10^7-state answer can never die as a frame error on a cache hit. *)
let test_truncated_explore_roundtrips_as_summary () =
  let task = Serve_api.Dac { n = 3 } in
  let q =
    Serve_api.Verify
      {
        task;
        question = Serve_api.Solve;
        inputs = Serve_api.default_inputs task;
        max_states = 40;  (* dac:3 has 190 reachable states: quota fires *)
        reduce = `None;
        substrate = "shm";
      }
  in
  let computed = Serve_api.compute q in
  (match computed.Serve_api.res with
  | Serve_api.Verdict v ->
    Alcotest.(check string) "quota fired" "truncated" v.Serve_api.v_outcome
  | _ -> Alcotest.fail "solve answered with a non-verdict result");
  Alcotest.(check bool)
    "truncated answers are cacheable (max_states is in the key)" true
    computed.Serve_api.cacheable;
  Alcotest.(check bool)
    "the encoded answer is a summary, not a graph" true
    (String.length (Codec.encode Serve_api.result_codec computed.Serve_api.res)
     < 4096);
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r1, cached1 = ask c q in
                Alcotest.(check bool) "cold is computed" false cached1;
                let r2, cached2 = ask c q in
                Alcotest.(check bool) "truncated answer cached" true cached2;
                Alcotest.(check string)
                  "warm = cold" (Serve_api.render r1) (Serve_api.render r2)))
      in
      let s = Serve_store.open_ ~dir in
      let key = Serve_api.key q in
      let file = Serve_store.path s ~key in
      Alcotest.(check bool) "entry persisted" true (Sys.file_exists file);
      Alcotest.(check bool)
        "persisted entry is summary-sized" true
        ((Unix.stat file).Unix.st_size < 4096))

(* A file far above [max_payload] whose header claims its real length is
   refused from the header alone: counted corrupt, removed, and its body
   never read into memory. *)
let test_store_size_cap_on_read () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      let key = "feedface00000002" and canonical = "a huge question" in
      let file = Serve_store.path s ~key in
      let size = 64 * 1024 * 1024 in
      let magic = "LBSA-STORE/2\n" in
      let h = Bytes.make Codec.header_len ' ' in
      Bytes.blit_string "ENTRY" 0 h 0 5;
      Bytes.set_int64_be h 8
        (Int64.of_int (size - String.length magic - Codec.header_len));
      write_file file (magic ^ Bytes.to_string h);
      Unix.truncate file size;
      let before = Gc.allocated_bytes () in
      let got = Serve_store.get s ~key ~canonical in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check (option string)) "refused" None got;
      Alcotest.(check int) "counted corrupt" 1 (Serve_store.corrupt_count s);
      Alcotest.(check bool) "removed" false (Sys.file_exists file);
      if allocated >= 1e6 then
        Alcotest.failf "get allocated %.0f bytes for a refused entry" allocated)

(* The entry layout of the previous store version: magic, hex checksum
   line, then a 4-byte big-endian preimage length, the preimage and the
   marshalled entry. *)
let write_store_v1 file ~canonical ~data =
  let b = Buffer.create 256 in
  Buffer.add_int32_be b (Int32.of_int (String.length canonical));
  Buffer.add_string b canonical;
  Buffer.add_string b data;
  let body = Buffer.contents b in
  write_file file
    ("LBSA-STORE/1\n" ^ Lbsa_util.Fnv.to_hex (Lbsa_util.Fnv.string body) ^ "\n" ^ body)

(* A store written by the previous version is an upgrade, not damage:
   each old entry is dropped and recomputed as a plain miss (no corrupt
   count, so no corruption storm), and the rewritten entries serve the
   next daemon. *)
let test_store_v1_upgrade () =
  let queries =
    [
      verify (Serve_api.Dac { n = 2 });
      verify (Serve_api.Dac { n = 3 });
      verify ~reduce:`Sym (Serve_api.Dac { n = 3 });
      verify (Serve_api.Consensus { m = 2 });
      verify ~question:Serve_api.Valence (Serve_api.Dac { n = 2 });
      verify ~question:Serve_api.Valence (Serve_api.Consensus { m = 2 });
      verify (Serve_api.Kset { m = 2; k = 2 });
    ]
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Serve_store.open_ ~dir in
      let answers =
        List.map
          (fun q ->
            let r = (Serve_api.compute q).Serve_api.res in
            write_store_v1
              (Serve_store.path s ~key:(Serve_api.key q))
              ~canonical:(Serve_api.canonical q)
              ~data:(Marshal.to_string (Serve_daemon.Final r) []);
            Serve_api.render r)
          queries
      in
      let ask_all () =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.map
                  (fun q ->
                    let r, cached = ask c q in
                    (Serve_api.render r, cached))
                  queries))
      in
      let first, stats = ask_all () in
      Alcotest.(check (list string)) "answers" answers (List.map fst first);
      Alcotest.(check string)
        "old entries are plain misses" "corrupt=0 degraded=0 computed=7"
        (Fmt.str "corrupt=%d degraded=%d computed=%d" stats.Serve_wire.st_corrupt
           stats.Serve_wire.st_degraded stats.Serve_wire.st_computed);
      let again, stats2 = ask_all () in
      Alcotest.(check (list string)) "answers after restart" answers
        (List.map fst again);
      Alcotest.(check bool)
        "all answered from the store" true
        (List.for_all snd again && stats2.Serve_wire.st_hits_store = 7))

(* --- codecs ------------------------------------------------------------- *)

(* Every encoder round-trips, and every decoder turns arbitrary bytes
   into a value or [Codec.Malformed], nothing else.  A mismatch between
   an encoder and its decoder (a field written as a list and read as
   two ints) fails the first property directly. *)

let gen_str = QCheck.Gen.(string_size (int_bound 10))
let gen_ints = QCheck.Gen.(list_size (int_bound 5) int)

let gen_query =
  let open QCheck.Gen in
  let gen_task =
    oneof
      [
        map (fun n -> Serve_api.Dac { n }) int;
        map (fun m -> Serve_api.Consensus { m }) int;
        map2 (fun m k -> Serve_api.Kset { m; k }) int int;
        map (fun name -> Serve_api.Candidate { name }) gen_str;
        map (fun n -> Serve_api.Vc { n }) int;
        map (fun n -> Serve_api.Bcast { n }) int;
      ]
  in
  oneof
    [
      (let* task = gen_task in
       let* question = oneofl Serve_api.[ Solve; Valence; Live ] in
       let* inputs = gen_ints in
       let* max_states = int in
       let* reduce = oneofl [ `None; `Sym; `Sym_sleep ] in
       let+ substrate = gen_str in
       Serve_api.Verify { task; question; inputs; max_states; reduce; substrate });
      (let* target = gen_str in
       let* trials = int in
       let* procs = int in
       let* ops = int in
       let+ seed = int in
       Serve_api.Fuzz { target; trials; procs; ops; seed });
    ]

let gen_result =
  let open QCheck.Gen in
  let ostr = opt gen_str in
  oneof
    [
      (let* v_ok = bool in
       let* v_outcome = gen_str in
       let* v_partial = bool in
       let* v_inputs = gen_ints in
       let* v_states = int in
       let+ v_failure = ostr in
       Serve_api.Verdict
         { v_ok; v_outcome; v_partial; v_inputs; v_states; v_failure });
      (let* l_nodes = int in
       let* l_edges = int in
       let* l_truncated = bool in
       let* l_partial = bool in
       let* l_bivalent = int in
       let* l_univalent = int in
       let* l_undecided = int in
       let+ l_initial = gen_str in
       Serve_api.Valences
         { l_nodes; l_edges; l_truncated; l_partial; l_bivalent; l_univalent;
           l_undecided; l_initial });
      (let* f_target = gen_str in
       let* f_trials = int in
       let* f_completed = int in
       let* f_partial = bool in
       let* f_failure = ostr in
       let+ f_resumed_from = int in
       Serve_api.Fuzz_report
         { f_target; f_trials; f_completed; f_partial; f_failure;
           f_resumed_from });
      (let* lv_live = bool in
       let* lv_nodes = int in
       let* lv_sccs = int in
       let* lv_fair = int in
       let* lv_truncated = bool in
       let* lv_partial = bool in
       let* lv_prefix = int in
       let* lv_cycle = int in
       let+ lv_witness = ostr in
       Serve_api.Liveness_report
         { lv_live; lv_nodes; lv_sccs; lv_fair; lv_truncated; lv_partial;
           lv_prefix; lv_cycle; lv_witness });
    ]

let gen_stats =
  let open QCheck.Gen in
  let* i = array_size (return 14) int in
  let+ f = array_size (return 3) float in
  {
    Serve_wire.st_queries = i.(0); st_hits_mem = i.(1); st_hits_store = i.(2);
    st_misses = i.(3); st_computed = i.(4); st_joined = i.(5);
    st_queue_peak = i.(6); st_workers = i.(7); st_corrupt = i.(8);
    st_degraded = i.(9); st_prefix_stored = i.(10); st_prefix_resumed = i.(11);
    st_hot_us_total = f.(0); st_hot_count = i.(12); st_cold_us_total = f.(1);
    st_cold_count = i.(13); st_uptime_s = f.(2);
  }

let gen_request =
  let open QCheck.Gen in
  oneof
    [
      (let* q = gen_query in
       let+ deadline_s = opt float in
       Serve_wire.Query { q; deadline_s });
      oneofl Serve_wire.[ Stats; Ping; Shutdown ];
    ]

let gen_response =
  let open QCheck.Gen in
  oneof
    [
      (let* r = gen_result in
       let* cached = bool in
       let+ wall_us = float in
       Serve_wire.Result { r; cached; wall_us });
      map (fun s -> Serve_wire.Stats_r s) gen_stats;
      oneofl Serve_wire.[ Pong; Shutting_down ];
      map (fun m -> Serve_wire.Error m) gen_str;
    ]

let gen_entry =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Serve_daemon.Final r) gen_result;
        map (fun n -> Serve_daemon.Prefix n) int;
      ])

let gen_fuzz_checkpoint =
  QCheck.Gen.(
    map2
      (fun ckpt_seed ckpt_done -> { Fuzz_engine.ckpt_seed; ckpt_done })
      int
      (list_size (int_bound 4) (pair gen_str int)))

(* [compare], not [=]: a NaN float must round-trip too. *)
let prop_roundtrip name codec gen =
  QCheck.Test.make ~count:300 ~name:(name ^ " round-trips") (QCheck.make gen)
    (fun x -> compare (Codec.decode codec (Codec.encode codec x)) x = 0)

let prop_garbage name codec =
  QCheck.Test.make ~count:2_000
    ~name:(name ^ " decodes random bytes or refuses them")
    (QCheck.make
       ~print:(fun s -> Fmt.str "%S" s)
       QCheck.Gen.(
         string_size
           ~gen:(oneof [ char; map Char.chr (int_bound 4) ])
           (int_bound 64)))
    (fun s ->
      match Codec.decode codec s with
      | _ -> true
      | exception Codec.Malformed _ -> true)

let prop_store_roundtrip =
  QCheck.Test.make ~count:100 ~name:"store entries round-trip"
    QCheck.(pair (make gen_str) (make gen_str))
    (fun (canonical, data) ->
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let s = Serve_store.open_ ~dir in
          put_ok s ~key:"0123456789abcdef" ~canonical ~data;
          Serve_store.get s ~key:"0123456789abcdef" ~canonical = Some data))

(* The configurations of dac:3's graph, in random windows: decoded
   configurations are [Config.equal] to the originals, every decoded
   value is the original interned value, and two decoded configurations
   hold one array exactly when their object vectors are equal.  The
   bytes do not depend on which originals shared an array: a copy of
   every vector encodes the same. *)
let prop_config_codec =
  let g =
    lazy
      (Cgraph.build ~machine:(Dac_from_pac.machine ~n:3)
         ~specs:(Dac_from_pac.specs ~n:3)
         ~inputs:[| Value.int 1; Value.int 0; Value.int 0 |]
         ())
  in
  let same_values a b = List.length a = List.length b && List.for_all2 ( == ) a b in
  let same_status a b =
    match (a, b) with
    | Config.Decided x, Config.Decided y -> x == y
    | _ -> a = b
  in
  QCheck.Test.make ~count:50 ~name:"dac:3 configurations round-trip"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let g = Lazy.force g in
      let n = Cgraph.n_nodes g in
      let lo = min (a mod n) (b mod n) and hi = max (a mod n) (b mod n) + 1 in
      let cs = Array.init (hi - lo) (fun i -> Cgraph.node g (lo + i)) in
      let bytes = Codec.encode Config_codec.configs cs in
      let cs' = Codec.decode Config_codec.configs bytes in
      let copied =
        Array.map (fun (c : Config.t) -> { c with objects = Array.copy c.objects }) cs
      in
      let shared_iff_equal i j =
        Value.equal_array cs.(i).Config.objects cs.(j).Config.objects
        = (cs'.(i).Config.objects == cs'.(j).Config.objects)
      in
      Array.for_all2
        (fun (c : Config.t) (c' : Config.t) ->
          Config.equal c c'
          && same_values (Array.to_list c.locals) (Array.to_list c'.locals)
          && same_values (Array.to_list c.objects) (Array.to_list c'.objects)
          && Array.for_all2 same_status c.status c'.status)
        cs cs'
      && List.for_all
           (fun i -> List.for_all (shared_iff_equal i) (List.init i Fun.id))
           (List.init (Array.length cs) Fun.id)
      && String.equal bytes (Codec.encode Config_codec.configs copied))

(* Hand-made sections, each one value ([Int 0], tag 2) and one vector:
   a well-formed one decodes, and a vector index or a vector entry's
   value index out of range is refused. *)
let test_config_codec_crafted () =
  let section ~vector_entry ~vector_ref =
    let b = Buffer.create 16 in
    let count = Codec.count.put b and int = Codec.int.put b in
    count 1; int 2; int 0;  (* the value table *)
    count 1; count 1; int vector_entry;  (* the vector table *)
    count 1;  (* one configuration: *)
    count 1; int 0;  (* its locals, *)
    int vector_ref;  (* its vector *)
    count 1; int 0;  (* and its statuses *)
    Buffer.contents b
  in
  let decode s = Codec.decode Config_codec.configs s in
  (match decode (section ~vector_entry:0 ~vector_ref:0) with
  | [| { Config.locals = [| l |]; objects = [| o |]; status = [| Config.Running |] } |]
    when l == Value.int 0 && o == Value.int 0 -> ()
  | _ -> Alcotest.fail "the well-formed section decoded wrong");
  List.iter
    (fun (what, s) ->
      match decode s with
      | _ -> Alcotest.failf "%s decoded" what
      | exception Codec.Malformed _ -> ())
    [
      ("vector index 1 of 1", section ~vector_entry:0 ~vector_ref:1);
      ("vector index -1", section ~vector_entry:0 ~vector_ref:(-1));
      ("vector entry naming value 1 of 1", section ~vector_entry:1 ~vector_ref:0);
      ("vector entry naming value -1", section ~vector_entry:(-1) ~vector_ref:0);
    ]

let codec_tests =
  let both name codec gen = [ prop_roundtrip name codec gen; prop_garbage name codec ] in
  List.concat
    [
      both "Api.query" Serve_api.query_codec gen_query;
      both "Api.result" Serve_api.result_codec gen_result;
      both "Wire.stats" Serve_wire.stats_codec gen_stats;
      both "Wire.request" Serve_wire.request_codec gen_request;
      both "Wire.response" Serve_wire.response_codec gen_response;
      both "daemon store entry" Serve_daemon.entry_codec gen_entry;
      both "fuzz checkpoint" Fuzz_engine.checkpoint_codec gen_fuzz_checkpoint;
      [
        prop_garbage "Config_codec.configs" Config_codec.configs;
        prop_config_codec;
        prop_store_roundtrip;
      ];
    ]

(* --- cache-identity property over the task registry --------------------- *)

let matrix_tasks =
  [
    Serve_api.Dac { n = 3 };
    Serve_api.Consensus { m = 2 };
    Serve_api.Kset { m = 2; k = 2 };
    (* a failing candidate: FAIL answers must cache byte-identically too *)
    Serve_api.Candidate { name = "flp-write-read" };
  ]

let matrix =
  List.concat_map
    (fun task ->
      List.concat_map
        (fun reduce ->
          [
            verify ~question:Serve_api.Solve ~reduce task;
            verify ~question:Serve_api.Valence ~reduce task;
          ])
        [ `None; `Sym; `Sym_sleep ])
    matrix_tasks

(* Every registry protocol/task pair x every --reduce mode x both
   questions: the cold in-process answer, the daemon's computed answer,
   the warm in-memory answer, and the cross-restart store answer must
   render byte-identically. *)
let test_cache_identity_matrix () =
  let reference =
    List.map (fun q -> (q, Serve_api.render (Serve_api.compute q).res)) matrix
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), stats1 =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r_cold, cached_cold = ask c q in
                    Alcotest.(check bool)
                      ("cold is computed: " ^ Serve_api.canonical q)
                      false cached_cold;
                    Alcotest.(check string)
                      ("cold = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r_cold);
                    let r_warm, cached_warm = ask c q in
                    Alcotest.(check bool)
                      ("warm is cached: " ^ Serve_api.canonical q)
                      true cached_warm;
                    Alcotest.(check string)
                      ("warm = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r_warm))
                  reference))
      in
      let n = List.length reference in
      Alcotest.(check int) "one computation per key" n stats1.Serve_wire.st_computed;
      Alcotest.(check int) "one memo hit per key" n stats1.Serve_wire.st_hits_mem;
      (* restart on the same store: every answer must come back from
         disk, byte-identical, with zero computations *)
      let (), stats2 =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r, cached = ask c q in
                    Alcotest.(check bool)
                      ("restart hit: " ^ Serve_api.canonical q)
                      true cached;
                    Alcotest.(check string)
                      ("restart = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r))
                  reference))
      in
      Alcotest.(check int)
        "restart: no recomputation" 0 stats2.Serve_wire.st_computed;
      Alcotest.(check int)
        "restart: all answers from the store" n stats2.Serve_wire.st_hits_store;
      Alcotest.(check int)
        "restart: store pristine" 0 stats2.Serve_wire.st_corrupt)

(* Liveness answers cache like safety answers: cold, warm and
   cross-restart renders byte-identical — including the livelock case,
   whose render carries the fair-SCC counts and shrunk-lasso shape. *)
let test_live_cache_identity () =
  let qs =
    [
      verify ~question:Serve_api.Live (Serve_api.Vc { n = 2 });
      verify ~question:Serve_api.Live (Serve_api.Bcast { n = 2 });
    ]
  in
  let reference =
    List.map (fun q -> (q, Serve_api.render (Serve_api.compute q).res)) qs
  in
  (match reference with
  | (_, vc_render) :: (_, bcast_render) :: _ ->
    Alcotest.(check bool)
      "vc:2 is a livelock" true
      (contains_sub ~sub:"LIVELOCK" vc_render);
    Alcotest.(check bool)
      "bcast:2 is live" true
      (contains_sub ~sub:"LIVE" bcast_render
      && not (contains_sub ~sub:"LIVELOCK" bcast_render))
  | _ -> Alcotest.fail "reference renders missing");
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r1, cached1 = ask c q in
                    Alcotest.(check bool)
                      ("cold is computed: " ^ Serve_api.canonical q)
                      false cached1;
                    Alcotest.(check string)
                      ("cold = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r1);
                    let r2, cached2 = ask c q in
                    Alcotest.(check bool)
                      ("warm is cached: " ^ Serve_api.canonical q)
                      true cached2;
                    Alcotest.(check string)
                      ("warm = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r2))
                  reference))
      in
      let (), stats2 =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                List.iter
                  (fun (q, want) ->
                    let r, cached = ask c q in
                    Alcotest.(check bool)
                      ("restart hit: " ^ Serve_api.canonical q)
                      true cached;
                    Alcotest.(check string)
                      ("restart = reference: " ^ Serve_api.canonical q)
                      want (Serve_api.render r))
                  reference))
      in
      Alcotest.(check int)
        "restart: no recomputation" 0 stats2.Serve_wire.st_computed)

(* Corrupt the store between restarts: the daemon must detect, log,
   recompute, answer identically, and heal the entry on disk. *)
let test_daemon_recovers_from_corrupt_store () =
  let q = verify ~reduce:`Sym (Serve_api.Dac { n = 3 }) in
  let key = Serve_api.key q in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let want, _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () -> Serve_api.render (fst (ask c q))))
      in
      (* flip a payload byte in the persisted entry *)
      let s = Serve_store.open_ ~dir in
      let file = Serve_store.path s ~key in
      Alcotest.(check bool) "entry persisted" true (Sys.file_exists file);
      let b = Bytes.of_string (read_file file) in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      write_file file (Bytes.to_string b);
      let (render2, cached2), stats =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r, cached = ask c q in
                (Serve_api.render r, cached)))
      in
      Alcotest.(check bool) "recomputed, not served corrupt" false cached2;
      Alcotest.(check string) "identical answer after recompute" want render2;
      Alcotest.(check int) "corruption counted" 1 stats.Serve_wire.st_corrupt;
      (* the rewrite healed the entry: a third daemon serves from disk *)
      let cached3, _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () -> snd (ask c q)))
      in
      Alcotest.(check bool) "healed entry serves" true cached3)

(* --- concurrent clients and single-flight -------------------------------- *)

(* N clients fire interleaved duplicate and distinct queries at one
   daemon.  Deterministic guarantees, independent of scheduling: every
   client sees the same answer for the same query; each distinct key is
   computed exactly once (a duplicate either joins the in-flight job or
   hits a cache — never re-runs); and shutdown drains cleanly with all
   clients answered. *)
let test_concurrent_single_flight () =
  let distinct =
    [
      verify (Serve_api.Dac { n = 3 });
      verify ~reduce:`Sym (Serve_api.Dac { n = 3 });
      verify (Serve_api.Consensus { m = 2 });
      verify ~question:Serve_api.Valence (Serve_api.Kset { m = 2; k = 2 });
    ]
  in
  (* every client asks the first query 3 extra times, interleaved *)
  let per_client = (List.hd distinct :: distinct) @ [ List.hd distinct; List.hd distinct ] in
  let n_clients = 6 in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let answers, stats =
        with_daemon ~dir (fun ~socket ->
            let clients =
              List.init n_clients (fun _ ->
                  Domain.spawn (fun () ->
                      let c = connect ~socket in
                      Fun.protect
                        ~finally:(fun () -> Serve_client.close c)
                        (fun () ->
                          List.map
                            (fun q ->
                              (Serve_api.canonical q,
                               Serve_api.render (fst (ask c q))))
                            per_client)))
            in
            List.concat_map Domain.join clients)
      in
      (* determinism: one render per canonical across all clients *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (canonical, render) ->
          match Hashtbl.find_opt tbl canonical with
          | None -> Hashtbl.add tbl canonical render
          | Some prior ->
            Alcotest.(check string)
              ("deterministic across clients: " ^ canonical)
              prior render)
        answers;
      Alcotest.(check int)
        "every distinct key answered"
        (List.length distinct) (Hashtbl.length tbl);
      let total = n_clients * List.length per_client in
      let d = List.length distinct in
      Alcotest.(check int) "all queries answered" total
        (List.length answers);
      Alcotest.(check int) "queries counted" total stats.Serve_wire.st_queries;
      Alcotest.(check int)
        "single-flight: one computation per distinct key" d
        stats.Serve_wire.st_computed;
      Alcotest.(check int)
        "one miss per distinct key" d stats.Serve_wire.st_misses;
      Alcotest.(check int)
        "every duplicate joined or hit a cache" (total - d)
        (stats.Serve_wire.st_joined + stats.Serve_wire.st_hits_mem
        + stats.Serve_wire.st_hits_store))

(* --- fuzz campaigns: caching and prefix resumption ----------------------- *)

let fuzz_q ~trials =
  Serve_api.Fuzz { target = "queue"; trials; procs = 3; ops = 3; seed = 42 }

let test_fuzz_caches_clean_run () =
  let q = fuzz_q ~trials:40 in
  let want = Serve_api.render (Serve_api.compute q).res in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r1, cached1 = ask c q in
                Alcotest.(check bool) "cold" false cached1;
                Alcotest.(check string) "cold render" want (Serve_api.render r1);
                let r2, cached2 = ask c q in
                Alcotest.(check bool) "warm" true cached2;
                Alcotest.(check string) "warm render" want (Serve_api.render r2)))
      in
      ())

(* A deadline-cut campaign persists its completed-trial prefix; the
   identical re-query resumes from it and the final answer is
   byte-identical to an uninterrupted run's.  Timing-tolerant: if the
   box is fast enough that the capped run completes anyway, the test
   degrades to the plain cache-identity check. *)
let test_fuzz_prefix_resume () =
  let q = fuzz_q ~trials:4_000 in
  let want = Serve_api.render (Serve_api.compute q).res in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), stats =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                let r1, _ = ask ~deadline_s:0.05 c q in
                (match r1 with
                | Serve_api.Fuzz_report f ->
                  if f.Serve_api.f_partial then
                    Alcotest.(check bool)
                      "partial run completed a proper prefix" true
                      (f.Serve_api.f_completed < 4_000)
                | _ -> Alcotest.fail "fuzz query answered with a non-fuzz result");
                let r2, _ = ask c q in
                Alcotest.(check string)
                  "resumed final answer = uninterrupted answer" want
                  (Serve_api.render r2);
                let r3, cached3 = ask c q in
                Alcotest.(check bool) "final answer cached" true cached3;
                Alcotest.(check string)
                  "cached = reference" want (Serve_api.render r3)))
      in
      if stats.Serve_wire.st_prefix_stored > 0 then
        Alcotest.(check bool)
          "stored prefix was resumed" true
          (stats.Serve_wire.st_prefix_resumed > 0))

(* --- the task table ------------------------------------------------------ *)

(* The table refuses what it cannot resolve with a one-line reason that
   both front-ends print verbatim: the daemon as an error answer, the
   CLI on stderr with exit 3. *)
let test_task_table_refusals () =
  let refuses reason f =
    match f () with
    | () -> Alcotest.failf "accepted; expected %S" reason
    | exception Invalid_argument msg ->
      Alcotest.(check string) reason reason msg
  in
  let instance t () = ignore (Serve_api.instance t) in
  refuses "task dac:1 needs n >= 2" (instance (Serve_api.Dac { n = 1 }));
  refuses "task cons:0 needs m >= 1" (instance (Serve_api.Consensus { m = 0 }));
  refuses "task kset:2:0 needs k >= 1"
    (instance (Serve_api.Kset { m = 2; k = 0 }));
  refuses "task vc:1 needs n >= 2" (instance (Serve_api.Vc { n = 1 }));
  refuses "task bcast:0 needs n >= 1" (instance (Serve_api.Bcast { n = 0 }));
  refuses "257 processes, but the explorer names at most 256"
    (instance (Serve_api.Dac { n = 257 }));
  refuses "400 processes, but the explorer names at most 256"
    (instance (Serve_api.Kset { m = 20; k = 20 }));
  refuses "task dac:3 expects 3 inputs, got 2" (fun () ->
      ignore
        (Serve_api.input_vector ~inputs:[ 1; 0 ] (Serve_api.Dac { n = 3 })));
  refuses "task dac:3 is shared-memory; use --substrate shm" (fun () ->
      ignore (Serve_api.substrate (Serve_api.Dac { n = 3 }) "mp"));
  refuses "task vc:2 is message-passing; use --substrate mp" (fun () ->
      ignore (Serve_api.substrate (Serve_api.Vc { n = 2 }) "shm"));
  refuses "unknown substrate \"mp+byz:-1\" (try shm, mp, mp+byz:<f>)"
    (fun () ->
      ignore (Serve_api.substrate (Serve_api.Vc { n = 2 }) "mp+byz:-1"))

(* The family check sweeps: every binary vector for consensus and DAC
   (candidates included), the one distinct-inputs vector for k-set. *)
let test_task_table_families () =
  let family t = Serve_api.family (Serve_api.instance t) in
  Alcotest.(check int) "dac:3" 8
    (List.length (family (Serve_api.Dac { n = 3 })));
  Alcotest.(check int) "cons:2" 4
    (List.length (family (Serve_api.Consensus { m = 2 })));
  Alcotest.(check int) "3dac candidate" 8
    (List.length
       (family (Serve_api.Candidate { name = "3dac-sa2-then-cons2" })));
  match family (Serve_api.Kset { m = 2; k = 2 }) with
  | [ v ] ->
    Alcotest.(check (list string)) "kset:2:2 vector" [ "0"; "1"; "2"; "3" ]
      (List.map (Fmt.str "%a" Value.pp) (Array.to_list v))
  | f -> Alcotest.failf "kset:2:2 family has %d vectors" (List.length f)

(* --- wire-level behaviour ------------------------------------------------ *)

let test_ping_stats_and_bad_query () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                (match Serve_client.ping c with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "ping: %s" msg);
                (* malformed queries come back as errors, not crashes *)
                (match
                   Serve_client.query c
                     (Serve_api.Verify
                        {
                          task = Serve_api.Candidate { name = "no-such" };
                          question = Serve_api.Solve;
                          inputs = [ 0; 1 ];
                          max_states;
                          reduce = `None;
                          substrate = "shm";
                        })
                 with
                | Error msg ->
                  Alcotest.(check bool)
                    "names the unknown candidate" true
                    (contains_sub ~sub:"no-such" msg)
                | Ok _ -> Alcotest.fail "unknown candidate accepted");
                (match
                   Serve_client.query c
                     (verify ~inputs:[ 1 ] (Serve_api.Dac { n = 3 }))
                 with
                | Error _ -> ()
                | Ok _ -> Alcotest.fail "wrong input arity accepted");
                (match
                   Serve_client.query c
                     (verify ~inputs:[ 1 ] (Serve_api.Dac { n = 1 }))
                 with
                | Error msg ->
                  Alcotest.(check bool)
                    "names the size bound" true
                    (contains_sub ~sub:"task dac:1 needs n >= 2" msg)
                | Ok _ -> Alcotest.fail "out-of-range size accepted");
                match Serve_client.stats c with
                | Ok s ->
                  Alcotest.(check int)
                    "bad queries counted but not computed" 0
                    s.Serve_wire.st_computed
                | Error msg -> Alcotest.failf "stats: %s" msg))
      in
      ())

(* A query with more processes than the explorer names is refused on
   the miss path with the task table's one line: never scheduled, so
   neither a miss nor a computation, and never retried. *)
let test_oversized_query_refused () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            let c = connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve_client.close c)
              (fun () ->
                (match
                   Serve_client.query c
                     (verify
                        ~inputs:(List.init 257 (fun pid -> if pid = 0 then 1 else 0))
                        (Serve_api.Dac { n = 257 }))
                 with
                | Error msg ->
                  Alcotest.(check string) "refusal"
                    "257 processes, but the explorer names at most 256" msg
                | Ok _ -> Alcotest.fail "dac:257 accepted");
                (match Serve_client.stats c with
                | Ok s ->
                  Alcotest.(check (pair int int)) "misses, computed" (0, 0)
                    (s.Serve_wire.st_misses, s.Serve_wire.st_computed)
                | Error msg -> Alcotest.failf "stats: %s" msg);
                let r, cached = ask c (verify (Serve_api.Dac { n = 3 })) in
                Alcotest.(check bool) "dac:3 computed" false cached;
                Alcotest.(check string) "dac:3 answer" "OK (inputs=1,0,0, 190 states)"
                  (Serve_api.render r)))
      in
      ())

(* second daemon on the same socket must refuse to start *)
let test_socket_exclusion () =
  let dir = fresh_dir () in
  let dir2 = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf dir2)
    (fun () ->
      let (), _ =
        with_daemon ~dir (fun ~socket ->
            match
              Serve_daemon.run
                {
                  Serve_daemon.socket;
                  store_dir = dir2;
                  workers = 1;
                  default_deadline_s = None;
                  store_probe_s = 5.;
                  log = false;
                }
            with
            | exception Failure msg ->
              Alcotest.(check bool)
                "names the socket" true
                (contains_sub ~sub:"already" msg)
            | _ -> Alcotest.fail "second daemon bound the same socket")
      in
      ())

(* --- the CLI front-end --------------------------------------------------- *)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))

let run fmt = Fmt.kstr Sys.command fmt

let test_cli_round_trip () =
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let q = Filename.quote in
  let socket = fresh_path ".sock" in
  let dir = fresh_dir () in
  let out1 = fresh_path ".out" and out2 = fresh_path ".out" in
  let started = ref false in
  Fun.protect
    ~finally:(fun () ->
      if !started then
        ignore
          (run "%s shutdown --socket %s --wait 2 >/dev/null 2>&1" (q exe)
             (q socket));
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ out1; out2 ];
      rm_rf dir)
    (fun () ->
      Alcotest.(check int) "daemon starts in the background" 0
        (run "%s serve --socket %s --store %s --quiet >/dev/null 2>&1 &"
           (q exe) (q socket) (q dir));
      started := true;
      Alcotest.(check int) "cold query succeeds" 0
        (run "%s query dac:3 --socket %s --wait 10 > %s 2>/dev/null" (q exe)
           (q socket) (q out1));
      Alcotest.(check int) "hot query succeeds" 0
        (run "%s query dac:3 --socket %s > %s 2>/dev/null" (q exe) (q socket)
           (q out2));
      Alcotest.(check int) "cold and hot stdout byte-identical" 0
        (run "cmp -s %s %s" (q out1) (q out2));
      (* a failing candidate propagates the CLI-wide exit-code policy *)
      Alcotest.(check int) "failing candidate exits 1" 1
        (Sys.command
           (Fmt.str "%s query cand:flp-write-read --socket %s >/dev/null 2>&1"
              (q exe) (q socket)));
      Alcotest.(check int) "clean drain" 0
        (run "%s shutdown --socket %s >/dev/null 2>&1" (q exe) (q socket));
      started := false;
      Alcotest.(check int) "query after shutdown cannot connect" 3
        (Sys.command
           (Fmt.str "%s query dac:3 --socket %s >/dev/null 2>&1" (q exe)
              (q socket))))

(* The repaired fingerprint: cross-process stable under intern-id
   shifts, and every key-determining parameter separates both the
   structural fingerprint and the printed cache key. *)
let test_cli_fingerprint_pins_parameters () =
  if not (Sys.file_exists exe) then
    Alcotest.fail (Fmt.str "CLI executable not found at %s" exe);
  let q = Filename.quote in
  let capture args =
    let f = fresh_path ".fp" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists f then Sys.remove f)
      (fun () ->
        Alcotest.(check int)
          ("fingerprint " ^ args) 0
          (run "%s fingerprint %s > %s 2>/dev/null" (q exe) args (q f));
        String.trim (read_file f))
  in
  let base = capture "-n 3" in
  let warmed = capture "-n 3 --intern-warmup 2000" in
  Alcotest.(check string) "intern-id shift changes nothing" base warmed;
  let sym = capture "-n 3 --reduce sym" in
  let sleep = capture "-n 3 --reduce sym+sleep" in
  let other_inputs = capture "-n 3 --inputs 0,0,0" in
  let distinct label a b =
    if a = b then Alcotest.failf "%s: fingerprints collide: %s" label a
  in
  distinct "none vs sym" base sym;
  distinct "sym vs sym+sleep" sym sleep;
  distinct "default vs 0,0,0 inputs" base other_inputs;
  (* the printed key= agrees with the in-process canonical digest:
     cross-process golden for the cache address *)
  let expect_key =
    Serve_api.key
      (Serve_api.Verify
         {
           task = Serve_api.Dac { n = 3 };
           question = Serve_api.Solve;
           inputs = [ 1; 0; 0 ];
           max_states = Lbsa_modelcheck.Graph.default_max_states;
           reduce = `Sym;
           substrate = "shm";
         })
  in
  Alcotest.(check bool)
    "key= field matches the in-process digest" true
    (contains_sub ~sub:("key=" ^ expect_key) sym)

(* --- suite --------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "keys",
        [
          Alcotest.test_case "canonical golden pin" `Quick test_canonical_golden;
          Alcotest.test_case "parameters separate keys" `Quick
            test_key_separation;
        ] );
      ( "task table",
        [
          Alcotest.test_case "refusals" `Quick test_task_table_refusals;
          Alcotest.test_case "oversized query refused once" `Quick
            test_oversized_query_refused;
          Alcotest.test_case "input families" `Quick test_task_table_families;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "truncation detected" `Quick test_store_truncation;
          Alcotest.test_case "payload flip detected" `Quick
            test_store_payload_flip;
          Alcotest.test_case "checksum flip detected" `Quick
            test_store_checksum_flip;
          Alcotest.test_case "garbage refused" `Quick test_store_garbage;
          Alcotest.test_case "empty file refused" `Quick test_store_empty_file;
          Alcotest.test_case "digest collision refused" `Quick
            test_store_collision_refused;
          Alcotest.test_case "oversized payload refused" `Quick
            test_store_oversized_refused;
          Alcotest.test_case "truncated explore round-trips as a summary"
            `Quick test_truncated_explore_roundtrips_as_summary;
          Alcotest.test_case "size cap enforced on read" `Quick
            test_store_size_cap_on_read;
          Alcotest.test_case "LBSA-STORE/1 entries upgrade as plain misses"
            `Quick test_store_v1_upgrade;
        ] );
      ( "codecs",
        List.map QCheck_alcotest.to_alcotest codec_tests
        @ [
            Alcotest.test_case "crafted configuration sections" `Quick
              test_config_codec_crafted;
          ] );
      ( "cache identity",
        [
          Alcotest.test_case "registry x reduce x question matrix" `Slow
            test_cache_identity_matrix;
          Alcotest.test_case "liveness answers cache byte-identically" `Quick
            test_live_cache_identity;
          Alcotest.test_case "daemon recovers from corrupt store" `Quick
            test_daemon_recovers_from_corrupt_store;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "single-flight under concurrent clients" `Slow
            test_concurrent_single_flight;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean campaign cached" `Quick
            test_fuzz_caches_clean_run;
          Alcotest.test_case "prefix resumption" `Slow test_fuzz_prefix_resume;
        ] );
      ( "wire",
        [
          Alcotest.test_case "ping, stats, malformed queries" `Quick
            test_ping_stats_and_bad_query;
          Alcotest.test_case "socket exclusion" `Quick test_socket_exclusion;
        ] );
      ( "cli",
        [
          Alcotest.test_case "serve/query/shutdown round trip" `Slow
            test_cli_round_trip;
          Alcotest.test_case "fingerprint pins its parameters" `Slow
            test_cli_fingerprint_pins_parameters;
        ] );
    ]
