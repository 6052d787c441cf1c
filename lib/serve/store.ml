open Lbsa_util

(* The persistent memo store: one file per entry in a flat directory,
   addressed by the query key's hex digest.

   Entry layout: the magic line "LBSA-STORE/2\n", then one {!Codec}
   section tagged ENTRY whose payload is the pair (canonical preimage,
   data).

   The failure policy is "degrade to recomputation, never a wrong
   answer": any deviation — missing magic, short file, checksum
   mismatch, trailing bytes, a stored preimage that is not the
   requested one (a digest collision or a hand-renamed file) — makes
   [get] count the entry corrupt, delete it, and report a miss.  An
   entry of a retired version is deleted and reported as a plain miss:
   it is not damaged, only older.  Writes go through a tmp-then-rename
   so a crash mid-write leaves either the old entry or none, and a
   concurrent reader never sees a torn file. *)

type t = {
  dir : string;
  mutable corrupt : int;
  mutable oversized : int;
  mutable io_errors : int;
  mutable puts : int;
  mutable gets : int;
}

let magic = "LBSA-STORE/2\n"
let retired = [ "LBSA-STORE/1\n" ]
let entry_codec = Codec.(pair string string)

(* Entries are verdict+stats summaries, a few hundred bytes each; the
   cap is pure armour.  Half the wire layer's 16 MB frame cap: anything
   the store accepts is guaranteed to fit back through a response frame
   with room to spare, so a future payload that somehow embeds graph
   bulk (a 10^7-state exploration is gigabytes) is refused here — the
   service degrades to recomputing that answer — rather than persisted
   only to die as a frame error on every later cache hit. *)
let max_payload = 8 * 1024 * 1024

let open_ ~dir =
  (if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if not (Sys.is_directory dir) then
    failwith (Fmt.str "Store.open_: %s is not a directory" dir);
  { dir; corrupt = 0; oversized = 0; io_errors = 0; puts = 0; gets = 0 }

let dir t = t.dir
let corrupt_count t = t.corrupt
let oversized_count t = t.oversized
let io_error_count t = t.io_errors

let path t ~key = Filename.concat t.dir (key ^ ".lbsa")

(* Entry commits run the full Rio durability discipline (write tmp,
   fsync file, rename, fsync directory): a power loss at any point
   leaves the old entry or none, never a zero-length "committed"
   file. *)
let put_unchecked t ~key payload =
  Rio.with_atomic_file ~site:"store.put" ~path:(path t ~key) (fun w ->
      Rio.write_string w magic;
      Codec.write_section (Rio.write_string w) ~tag:"ENTRY" payload);
  t.puts <- t.puts + 1

let put t ~key ~canonical ~data =
  let payload = Codec.encode entry_codec (canonical, data) in
  if String.length payload > max_payload then begin
    (* refuse, don't write: the entry would be unservable (see
       [max_payload]); the daemon just recomputes this answer *)
    t.oversized <- t.oversized + 1;
    Ok ()
  end
  else
    match put_unchecked t ~key payload with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      t.io_errors <- t.io_errors + 1;
      Error (Unix.error_message e)
    | exception Sys_error msg ->
      t.io_errors <- t.io_errors + 1;
      Error msg

(* A put/remove of a throwaway entry through the exact commit path:
   the daemon's degraded mode re-probes with this before re-arming. *)
let probe t =
  let key = ".probe" in
  match put_unchecked t ~key (Codec.encode entry_codec ("probe", "")) with
  | () ->
    t.puts <- t.puts - 1;
    (try Sys.remove (path t ~key) with Sys_error _ -> ());
    Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error msg -> Error msg

let discard t file =
  t.corrupt <- t.corrupt + 1;
  try Sys.remove file with Sys_error _ -> ()

(* Read and validate one entry.  The section cap is [max_payload], so a
   file whose header claims more is refused before its body is read. *)
let read_entry ~canonical file =
  In_channel.with_open_bin file (fun ic ->
      let header = In_channel.really_input_string ic (String.length magic) in
      if List.exists (fun r -> header = Some r) retired then `Retired
      else if header <> Some magic then `Corrupt
      else
        try
          match Codec.read_section ~read:(really_input ic) ~limit:max_payload with
          | "ENTRY", payload when pos_in ic = in_channel_length ic -> (
            match Codec.decode entry_codec payload with
            | canonical', data when canonical' = canonical -> `Entry data
            | _ -> `Corrupt)
          | _ -> `Corrupt
        with Codec.Malformed _ | End_of_file -> `Corrupt)

(* Failure classification on read: a validation defect (bad magic,
   checksum, preimage) means the *entry* is bad — discard it and
   recompute; a [Unix_error] means the *device* is sick (injected or
   real EIO) — the entry may be fine, so keep it, retry once with
   backoff, and count an io error for the daemon's degradation
   tracking. *)
let get t ~key ~canonical =
  t.gets <- t.gets + 1;
  let file = path t ~key in
  if not (Sys.file_exists file) then None
  else
    let attempt () =
      Rio.inject_read_fault ~site:"store.get";
      read_entry ~canonical file
    in
    match
      try attempt ()
      with Unix.Unix_error _ ->
        Rio.sleep_backoff ~site:"store.get" ~attempt:0;
        attempt ()
    with
    | `Entry data -> Some data
    | `Retired ->
      (try Sys.remove file with Sys_error _ -> ());
      None
    | `Corrupt ->
      discard t file;
      None
    | exception (Sys_error _ | End_of_file) ->
      discard t file;
      None
    | exception Unix.Unix_error _ ->
      t.io_errors <- t.io_errors + 1;
      None

let entries t =
  if Sys.file_exists t.dir && Sys.is_directory t.dir then
    Array.to_list (Sys.readdir t.dir)
    |> List.filter (fun f -> Filename.check_suffix f ".lbsa")
    |> List.map Filename.chop_extension
    |> List.sort String.compare
  else []
