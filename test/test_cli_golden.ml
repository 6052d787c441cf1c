(* Golden CLI outputs: stdout and exit code of every verification
   subcommand (check, solve, valence, explore, fingerprint) over each
   task and reduction mode, pinned byte for byte.  The CLI and the
   daemon resolve tasks through one table (Api), so a change to that
   table shows up here as a changed line.  explore's measurement lines
   (wall_s=, states_per_sec=, peak_rss_kb=) vary from run to run and
   are dropped before comparing. *)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "lbsa_cli.exe"))

let volatile line =
  List.exists
    (fun prefix -> String.starts_with ~prefix line)
    [ "wall_s="; "states_per_sec="; "peak_rss_kb=" ]

(* Run the CLI on space-separated [args]: (stdout without the volatile
   lines, stderr, exit code). *)
let run args =
  let out = Filename.temp_file "lbsa-golden" ".out" in
  let err = Filename.temp_file "lbsa-golden" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let argv =
        String.concat " "
          (List.map Filename.quote (String.split_on_char ' ' args))
      in
      let rc =
        Sys.command
          (Fmt.str "%s %s > %s 2> %s" (Filename.quote exe) argv
             (Filename.quote out) (Filename.quote err))
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      let stdout =
        String.concat "\n"
          (List.filter
             (fun l -> not (volatile l))
             (String.split_on_char '\n' (read out)))
      in
      (stdout, read err, rc))

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_run ~args ~rc ~stdout =
  let out, err, code = run args in
  Alcotest.(check string) (args ^ ": stdout") stdout out;
  Alcotest.(check int) (Fmt.str "%s: exit code (stderr: %s)" args err) rc code

(* (arguments, exit code, stdout) *)
let golden =
  [
    ( "check dac -n 3 --reduce none",
      0,
      {|OK (inputs=1,1,1, 158 states)
|} );
    ( "check dac -n 3 --reduce sym",
      0,
      {|OK (inputs=1,1,1, 92 states)
|} );
    ( "check dac -n 3 --reduce sym+sleep",
      0,
      {|OK (inputs=1,1,1, 40 states)
|} );
    ( "check consensus -m 2 --reduce none",
      0,
      {|OK (inputs=1,1, 9 states)
|} );
    ( "check consensus -m 2 --reduce sym",
      0,
      {|OK (inputs=1,1, 6 states)
|} );
    ( "check consensus -m 2 --reduce sym+sleep",
      0,
      {|OK (inputs=1,1, 3 states)
|} );
    ( "check consensus -m 3 --reduce none",
      0,
      {|OK (inputs=1,1,1, 27 states)
|} );
    ( "check consensus -m 3 --reduce sym",
      0,
      {|OK (inputs=1,1,1, 10 states)
|} );
    ( "check consensus -m 3 --reduce sym+sleep",
      0,
      {|OK (inputs=1,1,1, 4 states)
|} );
    ( "check kset -m 2 -k 2 --reduce none",
      0,
      {|OK (inputs=0,1,2,3, 169 states)
|} );
    ( "check kset -m 2 -k 2 --reduce sym",
      0,
      {|OK (inputs=0,1,2,3, 121 states)
|} );
    ( "check kset -m 2 -k 2 --reduce sym+sleep",
      0,
      {|OK (inputs=0,1,2,3, 25 states)
|} );
    ( "check candidate --name flp-write-read",
      0,
      {|candidate flp-write-read (consensus among 2) — expected to FAIL:
FAIL (inputs=1,0, 22 states): disagreement: 1 vs 0
witness:
violation: disagreement: 1 vs 0
schedule: 0 0 0 1 1 1
configuration:
p0: (halt, 1) [decided 1]
p1: (halt, 0) [decided 0]
obj0: 1
obj1: 0

|} );
    ( "check candidate --name flp-spin",
      0,
      {|candidate flp-spin (consensus among 2) — expected to FAIL:
FAIL (inputs=0,0, 12 states): process 0 can take infinitely many steps (cycle at node 1)
(liveness failure: no safety witness configuration)
|} );
    ( "check candidate --name 3dac-sa2-then-cons2",
      0,
      {|candidate 3dac-sa2-then-cons2 (3-DAC) — expected to FAIL:
FAIL (inputs=1,0,0, 226 states): node 196: disagreement: 1 vs 0
witness:
violation: disagreement: 1 vs 0
schedule: 0 0 0 1 1 2 2 2
configuration:
p0: (halt, 1) [decided 1]
p1: (halt, 1) [running]
p2: (halt, 0) [decided 0]
obj0: [0; 1]
obj1: (1, 2)

|} );
    (* A known-bad candidate keeps failing under every reduction mode;
       only its state count and failing node move. *)
    ( "check candidate --name 3dac-sa2-then-cons2 --reduce sym",
      0,
      {|candidate 3dac-sa2-then-cons2 (3-DAC) — expected to FAIL:
FAIL (inputs=1,0,0, 226 states): node 196: disagreement: 1 vs 0
witness:
violation: disagreement: 1 vs 0
schedule: 0 0 0 1 1 2 2 2
configuration:
p0: (halt, 1) [decided 1]
p1: (halt, 1) [running]
p2: (halt, 0) [decided 0]
obj0: [0; 1]
obj1: (1, 2)

|} );
    ( "check candidate --name 3dac-sa2-then-cons2 --reduce sym+sleep",
      0,
      {|candidate 3dac-sa2-then-cons2 (3-DAC) — expected to FAIL:
FAIL (inputs=1,0,0, 81 states): node 73: disagreement: 1 vs 0
witness:
violation: disagreement: 1 vs 0
schedule: 0 0 0 1 1 2 2 2
configuration:
p0: (halt, 1) [decided 1]
p1: (halt, 1) [running]
p2: (halt, 0) [decided 0]
obj0: [0; 1]
obj1: (1, 2)

|} );
    ( "check candidate --name flp-write-read --reduce sym",
      0,
      {|candidate flp-write-read (consensus among 2) — expected to FAIL:
FAIL (inputs=1,0, 22 states): disagreement: 1 vs 0
witness:
violation: disagreement: 1 vs 0
schedule: 0 0 0 1 1 1
configuration:
p0: (halt, 1) [decided 1]
p1: (halt, 0) [decided 0]
obj0: 1
obj1: 0

|} );
    ( "check candidate --name flp-write-read --reduce sym+sleep",
      0,
      {|candidate flp-write-read (consensus among 2) — expected to FAIL:
FAIL (inputs=1,0, 11 states): disagreement: 1 vs 0
witness:
violation: disagreement: 1 vs 0
schedule: 0 0 0 1 1 1
configuration:
p0: (halt, 1) [decided 1]
p1: (halt, 0) [decided 0]
obj0: 1
obj1: 0

|} );
    ( "check candidate --name 3dac-cons2-announce",
      0,
      {|candidate 3dac-cons2-announce (3-DAC) — expected to FAIL:
FAIL (inputs=0,0,0, 84 states): node 5: termination (b) fails for q2
(liveness failure: no safety witness configuration)
|} );
    ( "check candidate --name 3dac-cons2-announce --reduce sym",
      0,
      {|candidate 3dac-cons2-announce (3-DAC) — expected to FAIL:
FAIL (inputs=0,0,0, 84 states): node 5: termination (b) fails for q2
(liveness failure: no safety witness configuration)
|} );
    ( "check candidate --name 3dac-cons2-announce --reduce sym+sleep",
      0,
      {|candidate 3dac-cons2-announce (3-DAC) — expected to FAIL:
FAIL (inputs=0,0,0, 35 states): node 5: termination (b) fails for q2
(liveness failure: no safety witness configuration)
|} );
    ( "check candidate --name 3cons-from-22pac",
      0,
      {|candidate 3cons-from-22pac (consensus among 3) — expected to FAIL:
FAIL (inputs=0,0,0, 84 states): process 0 can take infinitely many steps (cycle at node 19)
(liveness failure: no safety witness configuration)
|} );
    ( "check candidate --name pac-retry",
      0,
      {|candidate pac-retry (consensus among 2) — expected to FAIL:
FAIL (inputs=0,0, 23 states): process 0 can take infinitely many steps (cycle at node 0)
(liveness failure: no safety witness configuration)
|} );
    ( "check vc -n 2",
      1,
      {|FAIL (inputs=0,0, 26 states): process 0 can take infinitely many steps (cycle at node 1)
|} );
    ( "check vc -n 2 --live",
      1,
      {|LIVELOCK (26 configurations, 1 fair SCC of 26): lasso prefix=5 cycle=2
livelock lasso (head node 18):
prefix (5 steps):
   0  p0: obj0.send(e0) -> 1
   1  p0: obj0.recv(0, [e0], false) -> (e0, 1)
   2  p1: obj0.recv(1, [e0], true) -> timeout
   3  p1: obj0.send(e1) -> 1
   4  p1: obj0.recv(1, [e1], false) -> (e1, 1)
cycle (2 steps):
   0  p0: obj0.recv(0, [e0], false) -> ⊥
   1  p1: obj0.recv(1, [e1], false) -> ⊥
|} );
    ( "check bcast -n 2 --live",
      0,
      {|LIVE (21 configurations, 21 SCCs, no fair cycle)
|} );
    ( "check consensus -m 2 --live",
      0,
      {|LIVE (13 configurations, 13 SCCs, no fair cycle)
|} );
    ( "check consensus -m 2 --max-states 1",
      2,
      {|PARTIAL [truncated] (inputs=0,0, 1 states): exploration stopped (truncated); safety holds on the 1 explored states
|} );
    ( "solve dac -n 3 --reduce none",
      0,
      {|OK (inputs=1,0,0, 190 states)
|} );
    ( "solve dac -n 3 --reduce sym",
      0,
      {|OK (inputs=1,0,0, 110 states)
|} );
    ( "solve dac -n 3 --reduce sym+sleep",
      0,
      {|OK (inputs=1,0,0, 44 states)
|} );
    ( "solve dac -n 6 --reduce none",
      0,
      {|OK (inputs=1,0,0,0,0,0, 19230 states)
|} );
    ( "solve dac -n 7 --reduce sym+sleep",
      0,
      {|OK (inputs=1,0,0,0,0,0,0, 258 states)
|} );
    ( "solve dac -n 9 --reduce sym+sleep",
      0,
      {|OK (inputs=1,0,0,0,0,0,0,0,0, 431 states)
|} );
    ( "solve consensus -m 3 --reduce none",
      0,
      {|OK (inputs=0,1,0, 43 states)
|} );
    ( "solve consensus -m 3 --reduce sym",
      0,
      {|OK (inputs=0,1,0, 22 states)
|} );
    ( "solve consensus -m 3 --reduce sym+sleep",
      0,
      {|OK (inputs=0,1,0, 8 states)
|} );
    ( "solve kset -m 2 -k 2 --reduce none",
      0,
      {|OK (inputs=0,1,2,3, 169 states)
|} );
    ( "solve kset -m 2 -k 2 --reduce sym",
      0,
      {|OK (inputs=0,1,2,3, 121 states)
|} );
    ( "solve kset -m 2 -k 2 --reduce sym+sleep",
      0,
      {|OK (inputs=0,1,2,3, 25 states)
|} );
    ( "solve dac -n 3 --inputs 0,1,1",
      0,
      {|OK (inputs=0,1,1, 190 states)
|} );
    ( "valence --protocol cons --reduce none",
      0,
      {|protocol cons, inputs 0 1: 13 configurations (16 edges)
valence: 1 bivalent, 12 univalent, 0 undecided
initial: bivalent
critical configurations: 1
  node 0: common poised object = 2-consensus
bivalent dead-end at node 0
|} );
    ( "valence --protocol cons --reduce sym",
      0,
      {|protocol cons, inputs 0 1: 11 configurations (14 edges)
valence: 1 bivalent, 10 univalent, 0 undecided
initial: bivalent
critical configurations: 1
  node 0: common poised object = 2-consensus
bivalent dead-end at node 0
|} );
    ( "valence --protocol cons --reduce sym+sleep",
      0,
      {|protocol cons, inputs 0 1: 5 configurations (4 edges)
valence: 1 bivalent, 4 univalent, 0 undecided
initial: bivalent
critical configurations: 1
  node 0: common poised object = 2-consensus
bivalent dead-end at node 0
|} );
    ( "valence --protocol dac --reduce none",
      0,
      {|protocol dac, inputs 1 0 0: 190 configurations (418 edges)
valence: 11 bivalent, 179 univalent, 0 undecided
initial: bivalent
critical configurations: 4
  node 1: common poised object = 3-PAC
  node 7: common poised object = 3-PAC
  node 10: common poised object = 3-PAC
bivalent dead-end at node 1
|} );
    ( "valence --protocol dac --reduce sym",
      0,
      {|protocol dac, inputs 1 0 0: 110 configurations (240 edges)
valence: 7 bivalent, 103 univalent, 0 undecided
initial: bivalent
critical configurations: 3
  node 1: common poised object = 3-PAC
  node 5: common poised object = 3-PAC
  node 18: common poised object = 3-PAC
bivalent dead-end at node 1
|} );
    ( "valence --protocol dac --reduce sym+sleep",
      0,
      {|protocol dac, inputs 1 0 0: 44 configurations (81 edges)
valence: 7 bivalent, 37 univalent, 0 undecided
initial: bivalent
critical configurations: 3
  node 1: common poised object = 3-PAC
  node 5: common poised object = 3-PAC
  node 16: common poised object = 3-PAC
bivalent dead-end at node 1
|} );
    ( "valence --protocol flp-write-read --reduce none",
      0,
      {|protocol flp-write-read, inputs 0 1: 22 configurations (31 edges)
valence: 10 bivalent, 12 univalent, 0 undecided
initial: bivalent
critical configurations: 0
bivalent dead-end at node 21
|} );
    ( "valence --protocol flp-write-read --reduce sym",
      0,
      {|protocol flp-write-read, inputs 0 1: 22 configurations (31 edges)
valence: 10 bivalent, 12 univalent, 0 undecided
initial: bivalent
critical configurations: 0
bivalent dead-end at node 21
|} );
    ( "valence --protocol flp-write-read --reduce sym+sleep",
      0,
      {|protocol flp-write-read, inputs 0 1: 11 configurations (13 edges)
valence: 5 bivalent, 6 univalent, 0 undecided
initial: bivalent
critical configurations: 0
bivalent dead-end at node 10
|} );
    ( "valence --protocol flp-spin --reduce none",
      0,
      {|protocol flp-spin, inputs 0 1: 12 configurations (18 edges)
valence: 0 bivalent, 12 univalent, 0 undecided
initial: 0-valent
critical configurations: 0
no bivalent configurations
|} );
    ( "valence --protocol flp-spin --reduce sym",
      0,
      {|protocol flp-spin, inputs 0 1: 12 configurations (18 edges)
valence: 0 bivalent, 12 univalent, 0 undecided
initial: 0-valent
critical configurations: 0
no bivalent configurations
|} );
    ( "valence --protocol flp-spin --reduce sym+sleep",
      0,
      {|protocol flp-spin, inputs 0 1: 7 configurations (10 edges)
valence: 0 bivalent, 7 univalent, 0 undecided
initial: 0-valent
critical configurations: 0
no bivalent configurations
|} );
    ( "valence --protocol pac-retry --reduce none",
      0,
      {|protocol pac-retry, inputs 0 1: 27 configurations (40 edges)
valence: 7 bivalent, 20 univalent, 0 undecided
initial: bivalent
critical configurations: 0
bivalence maintainable: adversary avoids decisions forever
|} );
    ( "valence --protocol pac-retry --reduce sym",
      0,
      {|protocol pac-retry, inputs 0 1: 27 configurations (40 edges)
valence: 7 bivalent, 20 univalent, 0 undecided
initial: bivalent
critical configurations: 0
bivalence maintainable: adversary avoids decisions forever
|} );
    ( "valence --protocol pac-retry --reduce sym+sleep",
      0,
      {|protocol pac-retry, inputs 0 1: 15 configurations (20 edges)
valence: 7 bivalent, 8 univalent, 0 undecided
initial: bivalent
critical configurations: 0
bivalence maintainable: adversary avoids decisions forever
|} );
    ( "explore dac:3 --fingerprint --domains 1",
      0,
      {|task=dac:3
reduce=none
states=190
edges=418
levels=10
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.5478
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=d0e8ae5f
|} );
    ( "explore dac:4 --fingerprint --domains 1",
      0,
      {|task=dac:4
reduce=none
states=918
edges=2732
levels=13
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.6643
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=f018ebca
|} );
    ( "explore cons:3 --fingerprint --domains 1",
      0,
      {|task=cons:3
reduce=none
states=43
edges=82
levels=7
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.4878
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=d5ac81bb
|} );
    ( "explore kset:2:2 --fingerprint --domains 1",
      0,
      {|task=kset:2:2
reduce=none
states=169
edges=416
levels=9
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.5962
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=1a2a0306
|} );
    ( "explore of:2:2 --fingerprint --domains 1",
      0,
      {|task=of:2:2
reduce=none
states=921
edges=1704
levels=27
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.4601
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=ba849ddf
|} );
    ( "explore of:3:1 --fingerprint --domains 1",
      0,
      {|task=of:3:1
reduce=none
states=5349
edges=15562
levels=27
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.6563
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=b084b3ea
|} );
    ( "explore of:3:2 --fingerprint --domains 1",
      0,
      {|task=of:3:2
reduce=none
states=104871
edges=300706
levels=52
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.6513
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=c47ba12b
|} );
    (* explore takes query's task syntax: a candidate's graph is
       valence's (12 configurations, 18 edges), and vc:2 explores under
       mp, the graph of check vc -n 2 (26 states). *)
    ( "explore cand:flp-spin --fingerprint --domains 1",
      0,
      {|task=cand:flp-spin
reduce=none
states=12
edges=18
levels=7
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.3889
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=fc8d72a9
|} );
    ( "explore vc:2 --fingerprint --domains 1",
      0,
      {|task=vc:2
reduce=none
states=26
edges=68
levels=9
truncated=false
outcome=done
domains=1
shards=1
dedup_rate=0.6324
spill_segments=0
spill_bytes=0
seg_faults=0
frozen_keys=0
key_faults=0
fingerprint=4132111a
|} );
    ( "fingerprint -n 3",
      0,
      {|states=190 edges=418 truncated=false reduce=none question=solve substrate=shm fingerprint=6b728d95 key=05069e4553440337
|} );
    (* Intern-order determinism: interning 1000 unrelated values first
       shifts every intern id the build meets (and so every transition
       memo key), never a byte of the answer.  Each of the four rows
       after it moves one parameter of the cache key off -n 3's, and
       with it the fingerprint. *)
    ( "fingerprint -n 3 --intern-warmup 1000",
      0,
      {|states=190 edges=418 truncated=false reduce=none question=solve substrate=shm fingerprint=6b728d95 key=05069e4553440337
|} );
    ( "fingerprint -n 3 --reduce sym",
      0,
      {|states=110 edges=240 truncated=false reduce=sym question=solve substrate=shm fingerprint=2b32fbea key=0c7f417d040ada03
|} );
    ( "fingerprint -n 3 --inputs 0,0,0",
      0,
      {|states=158 edges=358 truncated=false reduce=none question=solve substrate=shm fingerprint=1cb708a1 key=29488c189676df30
|} );
    ( "fingerprint -n 3 --question live",
      0,
      {|states=190 edges=418 truncated=false reduce=none question=live substrate=shm fingerprint=1d6d26c6 key=24b0517c72f72b2b
|} );
    ( "fingerprint -n 3 --substrate mp",
      0,
      {|states=190 edges=418 truncated=false reduce=none question=solve substrate=mp fingerprint=348ee75c key=10036f04c5ca7969
|} );
    ( "fingerprint -n 4 --reduce sym",
      0,
      {|states=244 edges=718 truncated=false reduce=sym question=solve substrate=shm fingerprint=8ad83bf5 key=297a0c4188fcd85a
|} );
    ( "fingerprint -n 3 --inputs 0,0,0 --reduce sym+sleep",
      0,
      {|states=40 edges=78 truncated=false reduce=sym+sleep question=solve substrate=shm fingerprint=31632f1b key=3c70f04364765194
|} );
    ( "fingerprint -n 3 --question live --substrate mp",
      0,
      {|states=190 edges=418 truncated=false reduce=none question=live substrate=mp fingerprint=474cce69 key=1964fb588cd641c1
|} );
    (* The dac quotients under the symmetry group: node sets,
       fingerprints and cache keys must not move with the
       canonicalizer. *)
    ( "fingerprint -n 6 --reduce sym",
      0,
      {|states=760 edges=3388 truncated=false reduce=sym question=solve substrate=shm fingerprint=1b7addaa key=28262b0b0eef66c0
|} );
    ( "fingerprint -n 7 --reduce sym+sleep",
      0,
      {|states=258 edges=1161 truncated=false reduce=sym+sleep question=solve substrate=shm fingerprint=767143c4 key=18c62dfad200c735
|} );
    ( "fingerprint -n 8 --reduce sym+sleep",
      0,
      {|states=339 edges=1751 truncated=false reduce=sym+sleep question=solve substrate=shm fingerprint=b9ff65e0 key=2e7457c43e375128
|} );
    ( "fingerprint -n 9 --reduce sym+sleep",
      0,
      {|states=431 edges=2513 truncated=false reduce=sym+sleep question=solve substrate=shm fingerprint=81e70cfa key=1fdb7c33feac9ef3
|} );
  ]

let golden_stdout args =
  match List.find_opt (fun (a, _, _) -> a = args) golden with
  | Some (_, _, stdout) -> stdout
  | None -> Alcotest.failf "no golden entry for %S" args

(* Malformed sizes and input vectors: refused with exit 3 and a reason
   on stderr — never a verdict on stdout, never an uncaught exception. *)
let refusals =
  [
    ("solve dac -n 3 --inputs 1,0", "task dac:3 expects 3 inputs, got 2");
    ("solve consensus -m 2 --inputs 0,1,1", "task cons:2 expects 2 inputs, got 3");
    ( "solve consensus -m 2 --inputs 1,0,0,0",
      "task cons:2 expects 2 inputs, got 4" );
    ("solve kset -m 2 -k 2 --inputs 0,1", "task kset:2:2 expects 4 inputs, got 2");
    ("fingerprint -n 3 --inputs 0,0", "task dac:3 expects 3 inputs, got 2");
    ("check dac -n 1", "task dac:1 needs n >= 2");
    ("check dac -n 1 --live", "task dac:1 needs n >= 2");
    ("check consensus -m 0", "task cons:0 needs m >= 1");
    ("check kset -m 0 -k 2", "task kset:0:2 needs m >= 1");
    ("check kset -m 2 -k 0", "task kset:2:0 needs k >= 1");
    ("check vc -n 1", "task vc:1 needs n >= 2");
    ("solve consensus -m 0", "task cons:0 needs m >= 1");
    ("solve dac -n 1", "task dac:1 needs n >= 2");
    ("fingerprint -n 1", "task dac:1 needs n >= 2");
    ("valence --protocol dac -n 1", "task dac:1 needs n >= 2");
    ("valence --protocol cons -m 0", "task cons:0 needs m >= 1");
    ("check dac -n 3 --substrate mp", "task dac:3 is shared-memory");
    ("check vc -n 2 --substrate shm", "task vc:2 is message-passing");
    ("query cand:nope --socket no-such.sock", "unknown candidate \"nope\"");
  ]

let test_refusal (args, reason) () =
  let out, err, rc = run args in
  Alcotest.(check int) (args ^ ": exit code") 3 rc;
  Alcotest.(check string) (args ^ ": no verdict on stdout") "" out;
  if not (contains ~sub:reason err) then
    Alcotest.failf "%s: stderr %S does not say %S" args err reason

(* A bad --shards or --spill-threshold is a usage error too, refused
   with exactly one stderr line before anything is built; the threshold
   is checked even without --spill-dir.  So are a machine whose pids do
   not fit a packed step's 8 bits (refused at the build's entry, not in
   the middle of a merge), a NaN --deadline (it would never expire), a
   --resume path that is a directory (here the test's working
   directory, ".") and a [power] or [bg] size the library does not
   define (checked before the first line of the answer). *)
let flag_refusals =
  [
    ("explore dac:257", "lbsa explore: 257 processes, but the explorer names at most 256");
    ("solve dac -n 257", "lbsa solve: 257 processes, but the explorer names at most 256");
    (* Refused by the task table before the 2^257-vector family sweep
       is built, not by the build. *)
    ("check dac -n 257", "lbsa check: 257 processes, but the explorer names at most 256");
    ( "valence --protocol dac -n 257",
      "lbsa valence: 257 processes, but the explorer names at most 256" );
    ( "solve dac -n 3 --deadline nan",
      "lbsa solve: --deadline nan is not a number of seconds" );
    ( "solve dac -n 3 --resume .",
      "cannot resume: Checkpoint.load: . is not a version-7 checkpoint file" );
    ( "fuzz --impl snapshot:3 --trials 10 --seed 1 --resume .",
      "cannot resume: Engine.load_checkpoint: . is not a version-3 fuzz \
       checkpoint" );
    ( "explore dac:3 --shards 3",
      "lbsa explore: --shards 3 is not a power of two in [1, 4096]" );
    ( "explore dac:3 --shards 0",
      "lbsa explore: --shards 0 is not a power of two in [1, 4096]" );
    ( "explore dac:3 --shards 8192",
      "lbsa explore: --shards 8192 is not a power of two in [1, 4096]" );
    ( "valence --protocol dac -n 3 --shards 6",
      "lbsa valence: --shards 6 is not a power of two in [1, 4096]" );
    ( "solve dac -n 3 --spill-dir D --spill-threshold 0",
      "lbsa solve: --spill-threshold 0 is below 1" );
    ( "solve dac -n 3 --spill-threshold 0",
      "lbsa solve: --spill-threshold 0 is below 1" );
    ( "check dac -n 3 --shards 3",
      "lbsa check: --shards 3 is not a power of two in [1, 4096]" );
    ("power -n 0", "lbsa power: -n 0 is below 2");
    ("bg --simulators 0", "lbsa bg: --simulators 0 is below 1");
    (* Sizes separation and qadri do not define are checked against
       their bounds before the report starts; lin-check and universal
       build their implementation as part of resolving the command. *)
    ("separation -n 0", "lbsa separation: -n 0 is below 2");
    ("separation -n 1", "lbsa separation: -n 1 is below 2");
    ("separation -n 2 --max-k 0", "lbsa separation: --max-k 0 is below 1");
    ("qadri -m 2 -n 2", "lbsa qadri: -n 2 is below 3");
    ("qadri -m 0 -n 3", "lbsa qadri: -m 0 is below 2");
    ("lin-check --impl snapshot -n 0", "lbsa lin-check: Snapshot.spec: m must be >= 1");
    ( "lin-check --impl pacnm -n 2 -m 0",
      "lbsa lin-check: Pac_nm.spec: n and m must be >= 1" );
    ( "lin-check --impl oprime -n 2 --max-k 0",
      "lbsa lin-check: O_prime.spec: empty power sequence" );
    ("universal -n 0", "lbsa universal: Universal.implementation: n >= 1");
    (* Two calls per client: past 31 clients the history outgrows the
       linearizability checker's 62 calls, refused before the header
       line instead of by the checker mid-run (or, at 33, by the
       construction running out of slots). *)
    ( "universal -n 32 --trials 1",
      "lbsa universal: 32 clients make 64 calls; the linearizability \
       checker takes at most 62" );
    ( "universal -n 33 --trials 1",
      "lbsa universal: 33 clients make 66 calls; the linearizability \
       checker takes at most 62" );
    ( "lin-check --impl snapshot -n 32 --trials 1",
      "lbsa lin-check: 32 clients make 64 calls; the linearizability \
       checker takes at most 62" );
    (* The key fingerprint prints must address a query the daemon would
       take: an unknown substrate name is refused as check and query
       refuse it. *)
    ( "fingerprint -n 3 --substrate bogus",
      "lbsa fingerprint: unknown substrate \"bogus\" (try shm, mp, \
       mp+byz:<f>)" );
    (* A daemon needs a job domain to compute anything.  The socket is
       a directory, so a regression that started serving would fail to
       bind at once instead of blocking the suite. *)
    ("serve --workers 0 --socket .", "lbsa serve: --workers 0 is below 1");
    ("serve --workers=-1 --socket .", "lbsa serve: --workers -1 is below 1");
    (* Unknown names carry the command's prefix like every other
       refusal. *)
    ( "valence --protocol nope",
      "lbsa valence: unknown protocol \"nope\"; known: cons, flp-write-read, \
       flp-spin, pac-retry, dac" );
    ( "lin-check --impl nope",
      "lbsa lin-check: unknown implementation \"nope\"; known: snapshot, \
       naive-snapshot, pacnm, oprime" );
    ( "fuzz --impl snapshot:0",
      "lbsa fuzz: unknown impl target \"snapshot:0\": Snapshot.spec: m must \
       be >= 1" );
    (* No daemon to reach exits 3 for shutdown as for query. *)
    ( "shutdown --socket no-such.sock",
      "lbsa shutdown: no daemon listening on no-such.sock" );
  ]

let test_flag_refusal (args, line) () =
  let out, err, rc = run args in
  Alcotest.(check int) (args ^ ": exit code") 3 rc;
  Alcotest.(check string) (args ^ ": no verdict on stdout") "" out;
  Alcotest.(check string) (args ^ ": stderr") (line ^ "\n") err

(* Cmdliner's own parse errors are usage errors too: exit 3 with its
   error as the first stderr line (a usage hint follows), nothing on
   stdout. *)
let parse_refusals =
  [
    ("check dac -n 3 --inputs 1,0,0", "lbsa: unknown option '--inputs'.");
    ("check dac --max-states -5", "lbsa: unknown option '-5'.");
    ("explore of:0:0", {|lbsa: TASK argument: "of:0:0": expected an integer >= 2|});
    ("query dac:0", {|lbsa: TASK argument: "dac:0": expected an integer >= 2|});
    ("solve dac -n 3 --spill-threshold -1", "lbsa: unknown option '-1'.");
    ( "solve dac -n 3 --inputs 1,x,0",
      {|lbsa: option '--inputs': "1,x,0" is not a comma-separated integer list|} );
  ]

let test_parse_refusal (args, line) () =
  let out, err, rc = run args in
  Alcotest.(check int) (args ^ ": exit code") 3 rc;
  Alcotest.(check string) (args ^ ": no verdict on stdout") "" out;
  Alcotest.(check string) (args ^ ": first stderr line") line
    (List.hd (String.split_on_char '\n' err))

(* README's exit-code table: a clean pass and a definitive failure (the
   seeded mutant), each with the first line it prints.  The partial and
   usage-error rows have theirs in [golden] ("check consensus -m 2
   --max-states 1"), [test_candidate_truncated] and [refusals]. *)
let exit_codes =
  [
    ("check consensus -m 2", 0, "OK (inputs=1,1, 9 states)");
    ( "fuzz --impl mutant-pac:2 --trials 300 --seed 42",
      1,
      "FAIL impl mutant-pac:2: linearizability violation" );
    (* Help and version are not parse errors; an uncaught exception
       (here [run-dac]'s own [Invalid_argument], not yet a typed
       refusal) stays an internal error. *)
    ("--version", 0, "1.0.0");
    ("check --help=plain", 0, "NAME");
    ("run-dac -n 0", 125, "");
  ]

let test_exit_code (args, rc, first_line) () =
  let out, err, code = run args in
  Alcotest.(check int) (Fmt.str "%s: exit code (stderr: %s)" args err) rc code;
  Alcotest.(check string)
    (args ^ ": first stdout line")
    first_line
    (List.hd (String.split_on_char '\n' out))

(* Fixed-seed fuzz campaigns that must stay clean: a register-built
   construction, a PAC-family one under crash faults, and the
   message-passing network object under the linearizability oracle.
   The PASS line carries the domain count and wall time, so the last
   line is compared. *)
let clean_fuzz =
  [
    "fuzz --impl snapshot:3 --trials 200 --seed 42";
    "fuzz --impl pacnm:2:2 --trials 200 --faults 2 --seed 42";
    "fuzz --impl identity:mpnet:2:2 --trials 200 --seed 42";
  ]

let test_clean_fuzz args () =
  let out, err, rc = run args in
  Alcotest.(check int) (Fmt.str "%s: exit code (stderr: %s)" args err) 0 rc;
  Alcotest.(check string)
    (args ^ ": last stdout line")
    "fuzz: 1 campaigns clean"
    (List.hd (List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out))))

(* valence builds only the protocol it is asked for, so a size another
   protocol cannot take does not matter; pac-retry is the cand:pac-retry
   row, whose graph does not depend on -n. *)
let test_valence_sizes () =
  List.iter
    (fun (args, same_as) ->
      check_run ~args ~rc:0 ~stdout:(golden_stdout same_as))
    [
      ("valence --protocol cons -n 1", "valence --protocol cons --reduce none");
      ( "valence --protocol pac-retry -n 1",
        "valence --protocol pac-retry --reduce none" );
      ( "valence --protocol pac-retry -n 5",
        "valence --protocol pac-retry --reduce none" );
    ]

(* check candidate inverts 0/1 (the candidate is expected to fail), but a
   partial sweep confirms nothing: it exits 2 and skips the witness
   search.  Candidates run under the same budget as every other check. *)
let test_candidate_truncated () =
  check_run ~args:"check candidate --name flp-write-read --max-states 3" ~rc:2
    ~stdout:
      {|candidate flp-write-read (consensus among 2) — expected to FAIL:
PARTIAL [truncated] (inputs=0,0, 3 states): exploration stopped (truncated); safety holds on the 3 explored states
|}

let test_candidate_deadline () =
  check_run ~args:"check candidate --name flp-write-read --deadline 0" ~rc:2
    ~stdout:
      {|candidate flp-write-read (consensus among 2) — expected to FAIL:
PARTIAL [deadline expired] (inputs=0,0, 0 states): input-family sweep stopped (deadline expired) before all 4 vectors
|}

(* A budget stop in an input-family sweep names the first vector it did
   not check, whatever --domains fans the sweep over (0 keeps the
   sequential sweep). *)
let test_partial_sweep_domains () =
  List.iter
    (fun (task, stdout) ->
      List.iter
        (fun d ->
          check_run ~args:(Fmt.str "check %s --deadline 0 --domains %d" task d)
            ~rc:2 ~stdout)
        [ 0; 1; 2; 3; 4 ])
    [
      ( "consensus -m 2",
        {|PARTIAL [deadline expired] (inputs=0,0, 0 states): input-family sweep stopped (deadline expired) before all 4 vectors
|} );
      ( "dac -n 3",
        {|PARTIAL [deadline expired] (inputs=0,0,0, 0 states): input-family sweep stopped (deadline expired) before all 8 vectors
|} );
    ]

(* A fresh scratch directory for [f], removed afterwards whatever the
   CLI left in it. *)
let with_temp_dir suffix f =
  let dir = Filename.temp_dir "lbsa-golden" suffix in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then
        ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let check_removed what dir =
  Alcotest.(check bool) (what ^ ": spill directory removed") false
    (Sys.file_exists dir)

(* of:3:2 spilled to disk in 4 shards, at 1, 2 and 4 domains: the
   resident row's graph (same states, edges and fingerprint), the cold
   prefix's configurations in segments (frozen_keys counts its ids), and
   the spill directory removed once the graph is complete. *)
let test_explore_spilled () =
  List.iter
    (fun d ->
      with_temp_dir ".spill" (fun dir ->
          check_run
            ~args:
              (Fmt.str
                 "explore of:3:2 --fingerprint --domains %d --shards 4 \
                  --spill-dir %s --spill-threshold 20000"
                 d dir)
            ~rc:0
            ~stdout:
              (Fmt.str
                 {|task=of:3:2
reduce=none
states=104871
edges=300706
levels=52
truncated=false
outcome=done
domains=%d
shards=4
dedup_rate=0.6513
spill_segments=21
spill_bytes=1034411
seg_faults=0
frozen_keys=86431
key_faults=0
fingerprint=c47ba12b
|}
                 d);
          check_removed (Fmt.str "domains=%d" d) dir))
    [ 1; 2; 4 ]

(* The sharded, spilled solver prints the resident verdict byte for
   byte: dac:3 spilled in full; and stopped at the first safe point
   (--deadline 0, exit 2) with a checkpoint, then resumed spilled.
   [solve] removes its spill directory once the graph completes. *)
let test_solve_spilled () =
  with_temp_dir ".ckpt" (fun tmp ->
      let spill = Filename.concat tmp "spill.d" in
      let ckpt = Filename.concat tmp "ooc.ckpt" in
      let spilled =
        Fmt.str "solve dac -n 3 --shards 4 --spill-dir %s --spill-threshold 40"
          spill
      in
      let resident, _, rc = run "solve dac -n 3" in
      Alcotest.(check int) "resident: exit code" 0 rc;
      check_run ~args:spilled ~rc:0 ~stdout:resident;
      check_removed "spilled run" spill;
      let _, err, rc = run (Fmt.str "%s --deadline 0 --checkpoint %s" spilled ckpt) in
      Alcotest.(check int) (Fmt.str "deadline 0: exit code (stderr: %s)" err) 2 rc;
      check_run ~args:(Fmt.str "%s --resume %s" spilled ckpt) ~rc:0
        ~stdout:resident;
      check_removed "resumed run" spill)

(* A quota-stopped dac:4 checkpoint carries 307 nodes and their packed
   steps (a --deadline 0 one holds the initial node alone, no edges);
   resumed resident, and resumed into a spilled, sharded build, it
   prints the uninterrupted verdict. *)
let test_solve_quota_resume () =
  with_temp_dir ".ckpt" (fun tmp ->
      let spill = Filename.concat tmp "qspill.d" in
      let ckpt = Filename.concat tmp "q.ckpt" in
      let full = "OK (inputs=1,0,0,0, 918 states)\n" in
      check_run ~args:"solve dac -n 4" ~rc:0 ~stdout:full;
      let _, err, rc =
        run (Fmt.str "solve dac -n 4 --max-states 300 --checkpoint %s" ckpt)
      in
      Alcotest.(check int) (Fmt.str "quota: exit code (stderr: %s)" err) 2 rc;
      check_run ~args:(Fmt.str "solve dac -n 4 --resume %s" ckpt) ~rc:0
        ~stdout:full;
      check_run
        ~args:
          (Fmt.str
             "solve dac -n 4 --shards 4 --spill-dir %s --spill-threshold 40 \
              --resume %s"
             spill ckpt)
        ~rc:0 ~stdout:full;
      check_removed "resumed spilled run" spill)

(* A checkpoint's label names its task in the positional spelling, with
   its inputs and reduction mode; a resume compares it byte for byte, so
   checkpoints written by an earlier build stay resumable. *)
let test_checkpoint_labels () =
  List.iter
    (fun (task, label) ->
      with_temp_dir ".ckpt" (fun tmp ->
          let ckpt = Filename.concat tmp "l.ckpt" in
          let args =
            Fmt.str "solve %s --max-states 5 --checkpoint %s" task ckpt
          in
          let _, err, rc = run args in
          Alcotest.(check int) (Fmt.str "%s: exit code (stderr: %s)" args err) 2
            rc;
          Alcotest.(check string) (task ^ ": label") label
            (Lbsa.Checkpoint.label (Lbsa.Checkpoint.load ~file:ckpt))))
    [
      ("dac -n 4", "solve dac n=4 inputs=1,0,0,0 reduce=none");
      ( "consensus -m 3 --reduce sym",
        "solve consensus m=3 inputs=0,1,0 reduce=sym" );
      ( "kset -m 2 -k 2 --reduce sym+sleep --inputs 3,2,1,0",
        "solve kset m=2 k=2 inputs=3,2,1,0 reduce=sym+sleep" );
    ]

(* Under --io-chaos-seed 1 the first spilled segment's write fails hard
   (ENOSPC): the run is refused with exit 2 and one stderr line naming
   the site, never an uncaught exception.  Seed 6's injected faults are
   all absorbed, and it prints the unarmed answer. *)
let test_spill_io_failure () =
  let solve dir seed =
    Fmt.str
      "solve dac -n 6 --domains 1 --spill-dir %s --spill-threshold 2000 \
       --io-chaos-seed %d"
      dir seed
  in
  with_temp_dir ".spill" (fun dir ->
      let out, err, rc = run (solve dir 1) in
      Alcotest.(check int) (Fmt.str "seed 1: exit code (stderr: %s)" err) 2 rc;
      Alcotest.(check string) "seed 1: no verdict" "" out;
      let line = "lbsa solve: I/O failed at segstore.write: No space left on device\n" in
      if not (contains ~sub:line err) then
        Alcotest.failf "seed 1: stderr %S does not hold %S" err line);
  with_temp_dir ".spill" (fun dir ->
      check_run ~args:(solve dir 6) ~rc:0
        ~stdout:(golden_stdout "solve dac -n 6 --reduce none");
      check_removed "seed 6" dir)

let test_candidate_shards () =
  check_run ~args:"check candidate --name 3dac-sa2-then-cons2 --shards 4"
    ~rc:0
    ~stdout:(golden_stdout "check candidate --name 3dac-sa2-then-cons2")

let lines s = String.split_on_char '\n' s

let has_line ~prefix ?(suffix = "") s =
  List.exists
    (fun l ->
      String.starts_with ~prefix l && String.ends_with ~suffix l)
    (lines s)

(* [line] without a trailing "  <d> domain(s)  <t>s": the part of a
   fuzz PASS line that varies with the domain count and the clock. *)
let strip_domains_wall line =
  let digit c = c >= '0' && c <= '9' in
  let rec back p i = if i > 0 && p line.[i - 1] then back p (i - 1) else i in
  let ends_at suffix i =
    let k = String.length suffix in
    i >= k && String.sub line (i - k) k = suffix
  in
  let n = String.length line in
  let cut =
    if n = 0 || line.[n - 1] <> 's' then None
    else
      let t = back (fun c -> digit c || c = '.') (n - 1) in
      if t = n - 1 || not (ends_at "  " t) then None
      else
        let w =
          if ends_at " domains" (t - 2) then Some (t - 10)
          else if ends_at " domain" (t - 2) then Some (t - 9)
          else None
        in
        Option.bind w (fun w ->
            let d = back digit w in
            if d < w && ends_at "  " d then Some (d - 2) else None)
  in
  match cut with Some i -> String.sub line 0 i | None -> line

(* The fuzz fan-out and the input-family sweep share the hash-consed
   value core across domains (the lock-striped intern table under real
   contention): each prints the same lines, and exits the same, on one
   domain as on several.  The fuzz PASS line's domain count and wall
   time are stripped first.  A failing campaign names the same trial.
   (A deadline-stopped sweep names the same vector: "partial sweep".) *)
let test_domain_counts () =
  let same ~args ~rc ~domains ?(strip = Fun.id) () =
    let outs =
      List.map
        (fun d ->
          let args = Fmt.str "%s --domains %d" args d in
          let out, err, code = run args in
          Alcotest.(check int) (Fmt.str "%s: exit code (stderr: %s)" args err)
            rc code;
          String.concat "\n" (List.map strip (lines out)))
        domains
    in
    List.iter
      (fun o -> Alcotest.(check string) (args ^ ": same lines") (List.hd outs) o)
      outs;
    List.hd outs
  in
  let fuzz =
    same ~args:"fuzz --impl snapshot:3 --trials 200 --seed 42" ~rc:0
      ~domains:[ 1; 2 ] ~strip:strip_domains_wall ()
  in
  Alcotest.(check string) "snapshot:3 PASS line, stripped"
    "PASS impl snapshot:3             200 trials"
    (List.hd (lines fuzz));
  ignore (same ~args:"check dac -n 3" ~rc:0 ~domains:[ 1; 2 ] ());
  let mutant =
    same ~args:"fuzz --impl mutant-pac:2 --trials 300 --seed 42 --no-shrink"
      ~rc:1 ~domains:[ 1; 4 ] ()
  in
  Alcotest.(check bool) "mutant-pac:2 names trial 10" true
    (contains ~sub:"reproduce with --seed 42 (trial 10)" mutant)

(* The explorer's output does not depend on the domain count: of:3:2's
   levels are big enough to spread over every domain, and it prints the
   1-domain row but for its domains= line. *)
let test_explore_domains () =
  let row = golden_stdout "explore of:3:2 --fingerprint --domains 1" in
  List.iter
    (fun d ->
      check_run
        ~args:(Fmt.str "explore of:3:2 --fingerprint --domains %d" d)
        ~rc:0
        ~stdout:
          (String.concat "\n"
             (List.map
                (fun l -> if l = "domains=1" then Fmt.str "domains=%d" d else l)
                (lines row))))
    [ 2; 4 ]

(* --stats counts the successors the build generated, and every one of
   them is an edge: on a complete graph and on a quota- or
   deadline-stopped one alike. *)
let test_stats_successors () =
  List.iter
    (fun args ->
      let out, _, _ = run args in
      let line prefix =
        match List.find_opt (String.starts_with ~prefix) (lines out) with
        | Some l -> l
        | None -> Alcotest.failf "%s: no %S line in %S" args prefix out
      in
      let edges = Scanf.sscanf (line "edges: ") "edges: %d" Fun.id in
      let succs =
        Scanf.sscanf (line "dedup: ") "dedup: %_d hits (%_f%% of %d successors)"
          Fun.id
      in
      Alcotest.(check int) (args ^ ": successors = edges") edges succs)
    [
      "solve dac -n 4 --stats";
      "check dac -n 4 --max-states 300 --stats";
      "solve dac -n 4 --deadline 0 --stats";
    ]

(* kset's family is one vector: --stats prints no family: line, and
   --domains drives that vector's explorer.  The binary families print
   the sweep line, fanned over --domains. *)
let test_stats_family_lines () =
  let out, _, rc = run "check kset -m 2 -k 2 --stats --domains 2" in
  Alcotest.(check int) "kset exit code" 0 rc;
  Alcotest.(check bool) "kset prints no family: line" false
    (has_line ~prefix:"family:" out);
  Alcotest.(check bool) "kset explorer runs on 2 domains" true
    (has_line ~prefix:"wall:" ~suffix:"2 domains)" out);
  let out, _, rc = run "check consensus -m 2 --stats --domains 2" in
  Alcotest.(check int) "consensus exit code" 0 rc;
  Alcotest.(check bool) "consensus sweep fans over 2 domains" true
    (has_line ~prefix:"family: 4 vectors, 44 states total" ~suffix:"2 domains)"
       out);
  Alcotest.(check bool) "consensus vectors explore on 1 domain" true
    (has_line ~prefix:"wall:" ~suffix:"1 domain)" out)

(* The option names each command lists under --help=plain (--help and
   --version aside), sorted: a flag defined once for several commands
   must not add an option to a command or drop one from it. *)
let options =
  [
    ("run-dac", "--scheduler --seed -n");
    ( "check",
      "--chaos-seed --deadline --domains --live --max-states --name --reduce \
       --shards --stats --substrate -k -m -n" );
    ( "solve",
      "--chaos-seed --checkpoint --deadline --domains --inputs \
       --io-chaos-seed --max-states --reduce --resume --shards --spill-dir \
       --spill-threshold --stats -k -m -n" );
    ( "valence",
      "--max-states --protocol --reduce --shards --spill-dir \
       --spill-threshold --stats -m -n" );
    ( "explore",
      "--chaos-seed --deadline --domains --fingerprint --max-states --reduce \
       --shards --spill-dir --spill-threshold --stats" );
    ("power", "--max-k --max-states -n");
    ("separation", "--max-k --max-states -n");
    ("lin-check", "--deadline --impl --max-k --seed --trials -m -n");
    ( "fuzz",
      "--chaos-seed --checkpoint --deadline --domains --faults --impl \
       --no-shrink --ops --procs --resume --seed --shrink-budget --spec \
       --trials" );
    ("universal", "--seed --trials -n");
    ("bg", "--seed --simulators --trials");
    ("qadri", "--max-states -m -n");
    ("objects", "");
    ( "fingerprint",
      "--inputs --intern-warmup --max-states --question --reduce --substrate \
       -n" );
    ( "serve",
      "--default-deadline --io-chaos-seed --quiet --socket --store \
       --store-probe --workers" );
    ( "query",
      "--deadline --fuzz --inputs --max-states --ops --procs --question \
       --reduce --seed --socket --stats --substrate --trials --wait" );
    ("shutdown", "--socket --wait");
  ]

let test_options (cmd, names) () =
  let out, err, rc = run (cmd ^ " --help=plain") in
  Alcotest.(check int) (Fmt.str "%s: exit code (stderr: %s)" cmd err) 0 rc;
  let listed =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"       -" l then
          let l = String.trim l in
          let stop =
            String.fold_left
              (fun (i, stop) c ->
                (i + 1, if stop < 0 && String.contains "= [" c then i else stop))
              (0, -1) l
            |> snd
          in
          Some (if stop < 0 then l else String.sub l 0 stop)
        else None)
      (lines out)
  in
  Alcotest.(check string) (cmd ^ ": options") names
    (String.concat " "
       (List.sort compare
          (List.filter (fun o -> o <> "--help" && o <> "--version") listed)))

(* solve reads --inputs with the converter fingerprint and query use,
   which allows blanks around an entry. *)
let test_inputs_blanks () =
  let out = Filename.temp_file "lbsa-golden" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let rc =
        Sys.command
          (Fmt.str "%s solve dac -n 3 --inputs %s > %s" (Filename.quote exe)
             (Filename.quote "1, 0,0") (Filename.quote out))
      in
      Alcotest.(check int) "exit code" 0 rc;
      Alcotest.(check string) "stdout"
        (golden_stdout "solve dac -n 3 --reduce none")
        (In_channel.with_open_bin out In_channel.input_all))

(* One codec: no byte that leaves the process is marshalled, so no
   source under lib/ or bin/ mentions [Marshal.] at all (the walk reads
   the copies dune keeps beside the built executables). *)
let test_no_marshal () =
  let root = Filename.concat (Filename.dirname Sys.executable_name) ".." in
  let scanned = ref [] in
  let rec walk rel =
    let path = Filename.concat root rel in
    if Sys.is_directory path then
      Array.iter
        (fun f -> if f.[0] <> '.' then walk (Filename.concat rel f))
        (Sys.readdir path)
    else if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
    then begin
      scanned := rel :: !scanned;
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.iteri (fun i line ->
             if contains ~sub:"Marshal." line then
               Alcotest.failf "%s:%d: %s" rel (i + 1) line)
    end
  in
  walk "lib";
  walk "bin";
  List.iter
    (fun f ->
      if not (List.mem f !scanned) then Alcotest.failf "%s was not scanned" f)
    [ "lib/util/codec.ml"; "bin/lbsa_cli.ml" ]

let () =
  if not (Sys.file_exists exe) then
    failwith (Fmt.str "CLI executable not found at %s" exe);
  let group cmd =
    ( cmd,
      List.filter_map
        (fun (args, rc, stdout) ->
          if String.starts_with ~prefix:(cmd ^ " ") args then
            Some
              (Alcotest.test_case args `Quick (fun () ->
                   check_run ~args ~rc ~stdout))
          else None)
        golden )
  in
  Alcotest.run "cli_golden"
    (List.map group [ "check"; "solve"; "valence"; "explore"; "fingerprint" ]
    @ [
        ( "explore of:3:2",
          [
            Alcotest.test_case "same row for any --domains" `Quick
              test_explore_domains;
            Alcotest.test_case "spilled in 4 shards" `Quick test_explore_spilled;
          ] );
        ( "out of core",
          [
            Alcotest.test_case "spilled solve = resident, checkpoint and resume"
              `Quick test_solve_spilled;
            Alcotest.test_case "quota checkpoint resumed resident and spilled"
              `Quick test_solve_quota_resume;
            Alcotest.test_case "a failed spill write exits 2" `Quick
              test_spill_io_failure;
            Alcotest.test_case "checkpoint labels" `Quick
              test_checkpoint_labels;
          ] );
        ( "refusals",
          List.map
            (fun ((args, _) as r) ->
              Alcotest.test_case args `Quick (test_refusal r))
            refusals
          @ List.map
              (fun ((args, _) as r) ->
                Alcotest.test_case args `Quick (test_flag_refusal r))
              flag_refusals
          @ List.map
              (fun ((args, _) as r) ->
                Alcotest.test_case args `Quick (test_parse_refusal r))
              parse_refusals
          @ [
              Alcotest.test_case "valence builds only its protocol" `Quick
                test_valence_sizes;
              Alcotest.test_case "solve --inputs allows blanks" `Quick
                test_inputs_blanks;
            ] );
        ( "exit codes",
          List.map
            (fun ((args, _, _) as r) ->
              Alcotest.test_case args `Quick (test_exit_code r))
            exit_codes
          @ List.map
              (fun args -> Alcotest.test_case args `Quick (test_clean_fuzz args))
              clean_fuzz );
        ( "options",
          List.map
            (fun ((cmd, _) as r) -> Alcotest.test_case cmd `Quick (test_options r))
            options );
        ( "candidate policy",
          [
            Alcotest.test_case "truncated sweep exits 2, no witness" `Quick
              test_candidate_truncated;
            Alcotest.test_case "deadline honoured" `Quick
              test_candidate_deadline;
            Alcotest.test_case "shards honoured" `Quick test_candidate_shards;
          ] );
        ( "stats",
          [
            Alcotest.test_case "family line and domains" `Quick
              test_stats_family_lines;
            Alcotest.test_case "successors = edges" `Quick
              test_stats_successors;
          ] );
        ( "partial sweep",
          [
            Alcotest.test_case "same vector for any --domains" `Quick
              test_partial_sweep_domains;
          ] );
        ( "domains",
          [
            Alcotest.test_case "fuzz and check print the same on 1, 2, 4"
              `Quick test_domain_counts;
          ] );
        ( "sources",
          [ Alcotest.test_case "no Marshal in lib or bin" `Quick test_no_marshal ]
        );
      ])
