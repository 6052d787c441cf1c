open Lbsa_util
open Lbsa_runtime

(* Disk-spilled node segments.  See the .mli for the format and the
   re-interning contract. *)

let magic = "LBSA-SEG/4\n"

(* The section holds the segment's first id and its configurations;
   [lo, hi) is checked against the segment table on fault-in.
   [write_segment] writes this layout a piece at a time. *)
let nodes_codec = Codec.(pair int Config_codec.configs)

exception Corrupt of string
(* A spilled segment that fails validation on fault-in (bad magic,
   framing, checksum, or undecodable payload), or keeps failing with
   I/O errors after a retry.  Segments are a cache of data this run
   already computed and dropped from RAM, so there is nothing to
   recompute from — the typed refusal propagates to the supervisor /
   CLI boundary (a clean partial exit), never a crash. *)

type seg = { lo : int; hi : int; file : string }

type loaded = {
  l_seg : int; (* index into segs *)
  l_configs : Config.t array;
}

let cache_slots = 4

type t = {
  sdir : string;
  mutable segs : seg array; (* sorted by lo; contiguous *)
  mutable bytes : int;
  mutable n_faults : int;
  mutable n_corrupt : int;
  cache : loaded option array;
  mutable clock : int; (* next cache slot to evict *)
  enc : Config_codec.encoder; (* reused by every segment written *)
  payload : Buffer.t; (* likewise *)
}

let dir t = t.sdir
let n_segments t = Array.length t.segs
let spilled_bytes t = t.bytes
let faults t = t.n_faults
let corrupt_count t = t.n_corrupt

let spilled_upto t =
  let n = Array.length t.segs in
  if n = 0 then 0 else t.segs.(n - 1).hi

(* A segment, or the tmp file of an atomic commit that an older build
   wrote segments with and a kill left behind. *)
let is_seg_file name =
  String.starts_with ~prefix:"seg-" name
  && (Filename.check_suffix name ".seg" || Filename.check_suffix name ".seg.tmp")

let create ~dir =
  (if Sys.file_exists dir then begin
     if not (Sys.is_directory dir) then
       failwith (Fmt.str "Segstore.create: %s is not a directory" dir);
     (* Stale segments (from an interrupted run, or an unrelated one)
        are never trusted: a resumed build re-spills from scratch. *)
     Array.iter
       (fun name ->
         if is_seg_file name then
           try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
       (Sys.readdir dir)
   end
   else
     try Unix.mkdir dir 0o755
     with Unix.Unix_error (e, _, _) ->
       failwith
         (Fmt.str "Segstore.create: cannot create %s: %s" dir
            (Unix.error_message e)));
  {
    sdir = dir;
    segs = [||];
    bytes = 0;
    n_faults = 0;
    n_corrupt = 0;
    cache = Array.make cache_slots None;
    clock = 0;
    enc = Config_codec.encoder ();
    payload = Buffer.create 4096;
  }

let write_segment t ~lo ~hi config =
  if lo <> spilled_upto t then invalid_arg "Segstore.write_segment: gap";
  if hi < lo then invalid_arg "Segstore.write_segment: hi < lo";
  let file = Filename.concat t.sdir (Printf.sprintf "seg-%012d.seg" lo) in
  (* [nodes_codec]'s layout, encoded into the store's own buffers *)
  Buffer.clear t.payload;
  Codec.int.put t.payload lo;
  Config_codec.put_configs t.enc t.payload (hi - lo) (fun i -> config (lo + i));
  let data = Codec.section_file ~prefix:magic ~tag:"SEGNODES" t.payload in
  Rio.write_scratch_file ~site:"segstore.write" ~path:file data;
  t.bytes <- t.bytes + Bytes.length data;
  t.segs <- Array.append t.segs [| { lo; hi; file } |]

(* One read attempt: the magic line, then the SEGNODES section whose
   checksum covers the whole payload, then nothing.  Raises [Corrupt]
   for a validation defect (the file's bytes are wrong — retrying
   cannot help), [Sys_error] / [Unix_error] for a device-level failure
   (possibly transient). *)
let read_payload s =
  Rio.inject_read_fault ~site:"segstore.read";
  let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt in
  let ic = open_in_bin s.file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let header =
        Option.value ~default:"" (In_channel.really_input_string ic (String.length magic))
      in
      if not (String.equal header magic) then
        corrupt "Segstore: %s is not a segment file" s.file;
      match Codec.input_section ic ~tag:"SEGNODES" with
      | exception Codec.Malformed msg -> corrupt "Segstore: %s: %s" s.file msg
      | payload ->
        if pos_in ic <> in_channel_length ic then
          corrupt "Segstore: %s: trailing bytes" s.file;
        payload)

let refuse t msg =
  t.n_corrupt <- t.n_corrupt + 1;
  raise (Corrupt msg)

let malformed t s msg = refuse t (Fmt.str "Segstore: %s: %s" s.file msg)

let check_range t s ~lo ~n =
  if lo <> s.lo || n <> s.hi - s.lo then
    refuse t (Fmt.str "Segstore: %s: SEGNODES range mismatch" s.file)

(* The one segment read, behind both the cached load and the streamed
   pass, with the recompute-or-refuse policy: a device error gets one
   backed-off retry (transient EIO, injected or real); a validation
   defect or a second device failure is counted and refused with the
   typed [Corrupt] — never a crash, never silently wrong data (the
   section checksum decides).  The payload is whole and checked before
   any configuration is decoded from it, so a retry never hands a
   configuration on twice. *)
let load_payload t idx =
  let s = t.segs.(idx) in
  let payload =
    match read_payload s with
    | p -> p
    | exception Corrupt msg -> refuse t msg
    | exception (Sys_error _ | Unix.Unix_error _) -> (
      Rio.sleep_backoff ~site:"segstore.read" ~attempt:0;
      match read_payload s with
      | p -> p
      | exception Corrupt msg -> refuse t msg
      | exception Sys_error msg -> refuse t (Fmt.str "Segstore: %s" msg)
      | exception Unix.Unix_error (e, _, _) ->
        refuse t (Fmt.str "Segstore: %s: %s" s.file (Unix.error_message e)))
  in
  t.n_faults <- t.n_faults + 1;
  payload

(* A segment decoded whole, for the cache. *)
let load_seg t idx =
  let s = t.segs.(idx) in
  match Codec.decode nodes_codec (load_payload t idx) with
  | exception Codec.Malformed msg -> malformed t s msg
  | lo, l_configs ->
    check_range t s ~lo ~n:(Array.length l_configs);
    { l_seg = idx; l_configs }

let cached t idx =
  let rec find i =
    if i >= cache_slots then None
    else
      match t.cache.(i) with
      | Some l when l.l_seg = idx -> Some l
      | _ -> find (i + 1)
  in
  match find 0 with
  | Some l -> l
  | None ->
    let l = load_seg t idx in
    t.cache.(t.clock) <- Some l;
    t.clock <- (t.clock + 1) mod cache_slots;
    l

(* Binary search over the sorted, contiguous segment array. *)
let seg_index t id =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Segstore: index out of spilled range"
    else
      let mid = (lo + hi) / 2 in
      let s = t.segs.(mid) in
      if id < s.lo then go lo mid
      else if id >= s.hi then go (mid + 1) hi
      else mid
  in
  go 0 (Array.length t.segs)

let node t id =
  let idx = seg_index t id in
  (cached t idx).l_configs.(id - t.segs.(idx).lo)

(* The streamed pass over one segment: the same checked read as
   [load_seg], then its configurations decoded one at a time straight
   into [f], none of them held after [f] returns.  A configuration that
   is dropped at once dies in the minor heap; one stored in a cached
   segment's array (thousands of elements, so allocated in the major
   heap) is promoted with it. *)
let find_map_seg t idx f =
  let s = t.segs.(idx) in
  let c = Codec.cursor (load_payload t idx) in
  match
    (* [nodes_codec]'s layout, read a piece at a time *)
    let lo = Codec.int.get c in
    let vals, n = Config_codec.get_table c in
    (lo, n, vals)
  with
  | exception Codec.Malformed msg -> malformed t s msg
  | lo, n, vals ->
    check_range t s ~lo ~n;
    let rec go id =
      if id = s.hi then begin
        (try Codec.at_end c with Codec.Malformed msg -> malformed t s msg);
        None
      end
      else
        match Config_codec.get_config vals c with
        | exception Codec.Malformed msg -> malformed t s msg
        | config -> ( match f id config with None -> go (id + 1) | r -> r)
    in
    go lo

let find_map t f =
  let rec go idx =
    if idx = Array.length t.segs then None
    else match find_map_seg t idx f with None -> go (idx + 1) | r -> r
  in
  go 0

let clean_dir ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun name ->
        if is_seg_file name then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end
