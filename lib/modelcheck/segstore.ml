open Lbsa_runtime

(* Disk-spilled CSR segments.  See the .mli for the format and the
   re-interning contract; the short version is that segments hold
   Mirror forms, never Config.t, and every fault-in goes back through
   the Value smart constructors. *)

(* --- framed section IO --------------------------------------------------- *)

module Segio = struct
  let tag_len = 8

  let put_be buf n =
    for i = 7 downto 0 do
      Buffer.add_char buf (Char.chr ((n lsr (i * 8)) land 0xff))
    done

  (* Eight bytes hold one more bit than an OCaml int, so the top bit
     would be shifted out unread; [put_be] never sets it, and a set one
     is a flipped byte that would otherwise pass every check. *)
  let get_be s off =
    if Char.code s.[off] land 0x80 <> 0 then
      failwith "Segio.read_section: header field out of range";
    let n = ref 0 in
    for i = 0 to 7 do
      n := (!n lsl 8) lor Char.code s.[off + i]
    done;
    !n

  (* Sink-based writer so sections can stream through an [out_channel]
     or a {!Lbsa_util.Rio} atomic-commit writer alike. *)
  let write_section_sink sink ~tag payload =
    if String.length tag > tag_len then invalid_arg "Segio.write_section: tag";
    sink tag;
    sink (String.make (tag_len - String.length tag) ' ');
    let hdr = Buffer.create 16 in
    put_be hdr (String.length payload);
    put_be hdr (Lbsa_util.Fnv.string payload);
    sink (Buffer.contents hdr);
    sink payload

  let write_section oc ~tag payload =
    write_section_sink (output_string oc) ~tag payload

  let read_section ic =
    match really_input_string ic tag_len with
    | exception End_of_file -> None
    | tag -> (
      let hdr =
        try really_input_string ic 16
        with End_of_file -> failwith "Segio.read_section: truncated header"
      in
      let len = get_be hdr 0 in
      let sum = get_be hdr 8 in
      if len < 0 then failwith "Segio.read_section: negative length";
      (* a corrupt length field must fail as a framing defect, not as an
         attempt to allocate a flipped-bit-sized string: no section can
         be longer than what is left of the file *)
      if len > in_channel_length ic - pos_in ic then
        failwith "Segio.read_section: length field exceeds file size";
      match really_input_string ic len with
      | exception End_of_file -> failwith "Segio.read_section: truncated payload"
      | payload ->
        if Lbsa_util.Fnv.string payload <> sum then
          failwith "Segio.read_section: checksum mismatch";
        Some (String.trim tag, payload))
end

(* --- the store ----------------------------------------------------------- *)

let magic = "LBSA-SEG/1\n"

exception Corrupt of string
(* A spilled segment that fails validation on fault-in (bad magic,
   framing, checksum, or undecodable payload), or keeps failing with
   I/O errors after a retry.  Segments are a cache of data this run
   already computed and dropped from RAM, so there is nothing to
   recompute from — the typed refusal propagates to the supervisor /
   CLI boundary (a clean partial exit), never an unmarshal crash. *)

type seg = { lo : int; hi : int; elo : int; ehi : int; file : string }

type loaded = {
  l_seg : int; (* index into segs *)
  l_configs : Config.t array;
  l_steps : (int * Config.event * int) array;
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
}

let dir t = t.sdir
let n_segments t = Array.length t.segs
let spilled_bytes t = t.bytes
let faults t = t.n_faults
let corrupt_count t = t.n_corrupt

let spilled_upto t =
  let n = Array.length t.segs in
  if n = 0 then 0 else t.segs.(n - 1).hi

let is_seg_file name =
  String.length name > 4
  && String.sub name 0 4 = "seg-"
  && Filename.check_suffix name ".seg"

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
  }

let write_segment t ~lo ~hi ~elo ~ehi ~configs ~edges =
  if lo <> spilled_upto t then invalid_arg "Segstore.write_segment: gap";
  if hi - lo <> Array.length configs || ehi - elo <> Array.length edges then
    invalid_arg "Segstore.write_segment: range/payload mismatch";
  let file = Filename.concat t.sdir (Printf.sprintf "seg-%012d.seg" lo) in
  Lbsa_util.Rio.with_atomic_file ~site:"segstore.write" ~path:file (fun w ->
      let sink = Lbsa_util.Rio.write_string w in
      sink magic;
      Segio.write_section_sink sink ~tag:"SEGMETA"
        (Marshal.to_string (lo, hi, elo, ehi) []);
      Segio.write_section_sink sink ~tag:"SEGNODES"
        (Marshal.to_string configs []);
      Segio.write_section_sink sink ~tag:"SEGEDGES"
        (Marshal.to_string edges []));
  t.bytes <- t.bytes + (try (Unix.stat file).Unix.st_size with Unix.Unix_error _ -> 0);
  t.segs <- Array.append t.segs [| { lo; hi; elo; ehi; file } |]

(* One parse attempt.  Raises [Corrupt] for a validation defect (the
   file's bytes are wrong — retrying cannot help), [Sys_error] /
   [Unix_error] for a device-level failure (possibly transient). *)
let read_seg_file t idx =
  let s = t.segs.(idx) in
  Lbsa_util.Rio.inject_read_fault ~site:"segstore.read";
  let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt in
  let ic = open_in_bin s.file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let header =
        try really_input_string ic (String.length magic)
        with End_of_file -> ""
      in
      if not (String.equal header magic) then
        corrupt "Segstore: %s is not a segment file" s.file;
      let expect tag =
        match Segio.read_section ic with
        | Some (t', payload) when String.equal t' tag -> payload
        | Some (t', _) ->
          corrupt "Segstore: %s: expected %s, got %s" s.file tag t'
        | None -> corrupt "Segstore: %s: truncated" s.file
        | exception Failure msg -> corrupt "Segstore: %s: %s" s.file msg
      in
      let unmarshal : type a. string -> a = fun payload ->
        (* the checksum already validated these bytes, but a format skew
           from another build would still explode here — keep it typed *)
        try Marshal.from_string payload 0
        with Failure msg | Invalid_argument msg ->
          corrupt "Segstore: %s: undecodable section: %s" s.file msg
      in
      let lo', hi', elo', ehi' =
        (unmarshal (expect "SEGMETA") : int * int * int * int)
      in
      if lo' <> s.lo || hi' <> s.hi || elo' <> s.elo || ehi' <> s.ehi then
        corrupt "Segstore: %s: range mismatch" s.file;
      let pconfigs = (unmarshal (expect "SEGNODES") : Mirror.pconfig array) in
      let pedges = (unmarshal (expect "SEGEDGES") : Mirror.pedge array) in
      if Array.length pconfigs <> s.hi - s.lo
         || Array.length pedges <> s.ehi - s.elo
      then corrupt "Segstore: %s: payload/range mismatch" s.file;
      {
        l_seg = idx;
        l_configs = Array.map Mirror.thaw_config pconfigs;
        l_steps = Array.map Mirror.thaw_step pedges;
      })

(* Fault-in with the recompute-or-refuse policy: a device error gets
   one backed-off retry (transient EIO, injected or real); a validation
   defect or a second device failure is counted and refused with the
   typed [Corrupt] — never an unmarshal crash, never silently wrong
   data (the per-section checksums decide). *)
let load_seg t idx =
  let refuse msg =
    t.n_corrupt <- t.n_corrupt + 1;
    raise (Corrupt msg)
  in
  let l =
    match read_seg_file t idx with
    | l -> l
    | exception Corrupt msg -> refuse msg
    | exception (Sys_error _ | Unix.Unix_error _ | End_of_file) -> (
      Lbsa_util.Rio.sleep_backoff ~site:"segstore.read" ~attempt:0;
      match read_seg_file t idx with
      | l -> l
      | exception Corrupt msg -> refuse msg
      | exception Sys_error msg -> refuse (Fmt.str "Segstore: %s" msg)
      | exception Unix.Unix_error (e, _, _) ->
        refuse
          (Fmt.str "Segstore: %s: %s" t.segs.(idx).file (Unix.error_message e))
      | exception End_of_file ->
        refuse (Fmt.str "Segstore: %s: truncated" t.segs.(idx).file))
  in
  t.n_faults <- t.n_faults + 1;
  l

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
let seg_index t ~key ~lo_of ~hi_of =
  let n = Array.length t.segs in
  let rec go lo hi =
    if lo >= hi then invalid_arg "Segstore: index out of spilled range"
    else
      let mid = (lo + hi) / 2 in
      let s = t.segs.(mid) in
      if key < lo_of s then go lo mid
      else if key >= hi_of s then go (mid + 1) hi
      else mid
  in
  go 0 n

let node t id =
  let idx = seg_index t ~key:id ~lo_of:(fun s -> s.lo) ~hi_of:(fun s -> s.hi) in
  let l = cached t idx in
  l.l_configs.(id - t.segs.(idx).lo)

let step t i =
  let idx =
    seg_index t ~key:i ~lo_of:(fun s -> s.elo) ~hi_of:(fun s -> s.ehi)
  in
  let l = cached t idx in
  l.l_steps.(i - t.segs.(idx).elo)

let remove_all t =
  Array.iter
    (fun s -> try Sys.remove s.file with Sys_error _ -> ())
    t.segs;
  t.segs <- [||];
  Array.fill t.cache 0 cache_slots None;
  (try Unix.rmdir t.sdir with Unix.Unix_error _ -> ())

let clean_dir ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun name ->
        if is_seg_file name then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end
