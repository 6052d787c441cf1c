open Lbsa_util

(* Checkpoint persistence; see the .mli for the file layout.  Chunked
   sections make a corrupt chunk fail at its own offset, and writing a
   large checkpoint never builds a second whole-graph copy. *)

type t = { label : string; suspended : Graph.suspended }

let label t = t.label
let reduction t = t.suspended.Graph.s_reduction
let substrate t = t.suspended.Graph.s_substrate
let freeze ~label suspended = { label; suspended }
let thaw t = t.suspended

(* The version is part of the magic line, so a format change refuses
   old checkpoints loudly instead of misreading them.  Old versions are
   refused, not migrated: a checkpoint is a resumable scratch artifact,
   and the exploration it froze is cheaper to redo than a silent
   cross-version misread would be to debug.  Version 4 recorded the
   substrate; version 5 replaced [Marshal] payloads with the typed
   codec; version 6 stores edges as packed steps, without events;
   version 7 writes each distinct object vector of a node chunk once,
   in a vector table that its configurations name by index. *)
let version = 7
let magic = Fmt.str "LBSA-CHECKPOINT/%d\n" version
let magic_family = "LBSA-CHECKPOINT/"

exception Version_mismatch of string

exception Corrupt of string

(* Array chunk size for the streamed node/edge sections. *)
let chunk_len = 65_536

let nodes_codec = Codec.(pair int Config_codec.configs)
let edges_codec = Codec.(pair int (array int))

(* CKMETA: the label and the two mode names, then the offsets, the
   frontier sizes and the scalars of the suspended exploration, ending
   with the node and edge counts the chunks must add up to. *)
let meta_codec = Codec.(pair (array string) (array (array int)))

let meta { label; suspended = s } =
  ( [| label; s.Graph.s_reduction; s.Graph.s_substrate |],
    [| s.Graph.s_offsets; s.Graph.s_frontier_sizes;
       [| s.Graph.s_expanded; s.Graph.s_dedup_hits; s.Graph.s_n_succs;
          s.Graph.s_canonized; s.Graph.s_ample_nodes; s.Graph.s_ample_pruned;
          Array.length s.Graph.s_nodes; Array.length s.Graph.s_targets |] |] )

(* The save streams through a {!Rio} atomic commit: tmp file, fsync,
   rename, directory fsync.  Without the fsyncs, tmp+rename only
   protects against a *process* crash — a power loss shortly after
   rename could still leave the new name pointing at unwritten data.
   The crash points Rio exposes under LBSA_IO_CRASH=checkpoint.save:<n>
   are what the kill-mid-checkpoint harness drives. *)
let save ~file t =
  Rio.with_atomic_file ~site:"checkpoint.save" ~path:file (fun w ->
      let sink = Rio.write_string w in
      sink magic;
      Codec.write_section sink ~tag:"CKMETA" (Codec.encode meta_codec (meta t));
      let stream tag codec arr =
        let n = Array.length arr in
        let lo = ref 0 in
        while !lo < n do
          let len = min chunk_len (n - !lo) in
          Codec.write_section sink ~tag
            (Codec.encode codec (!lo, Array.sub arr !lo len));
          lo := !lo + len
        done
      in
      stream "CKNODES" nodes_codec t.suspended.Graph.s_nodes;
      stream "CKEDGES" edges_codec t.suspended.Graph.s_targets)

let load ~file =
  let ic =
    try open_in_bin file
    with Sys_error e -> failwith (Fmt.str "Checkpoint.load: %s" e)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* A path that opens but cannot be read (a directory) has no magic
         line either. *)
      let header =
        match In_channel.really_input_string ic (String.length magic) with
        | Some h -> h
        | None | (exception Sys_error _) -> ""
      in
      if not (String.equal header magic) then
        if String.starts_with ~prefix:magic_family header then
          raise
            (Version_mismatch
               (Fmt.str
                  "Checkpoint.load: %s is a %s checkpoint; this build reads \
                   version %d only (re-run the exploration to produce a new \
                   checkpoint)"
                  file (String.trim header) version))
        else
          failwith
            (Fmt.str "Checkpoint.load: %s is not a version-%d checkpoint file"
               file version);
      (* Magic validated: any defect from here on is a *corrupt
         checkpoint*, reported with the typed [Corrupt] so CLIs can
         refuse it cleanly (exit 2). *)
      let defect msg =
        raise (Corrupt (Fmt.str "Checkpoint.load: %s: %s" file msg))
      in
      (* Chunks arrive in order and add up to exactly [total] elements. *)
      let chunks tag codec total =
        let rec go acc got =
          if got >= total then Array.concat (List.rev acc)
          else
            let lo, chunk = Codec.decode codec (Codec.input_section ic ~tag) in
            if lo <> got || Array.length chunk = 0 then
              defect (Fmt.str "%s chunk out of order" tag);
            go (chunk :: acc) (got + Array.length chunk)
        in
        let arr = go [] 0 in
        if Array.length arr <> total then
          defect (Fmt.str "%s chunks overrun the count" tag);
        arr
      in
      match
        Rio.inject_read_fault ~site:"checkpoint.load";
        match Codec.decode meta_codec (Codec.input_section ic ~tag:"CKMETA") with
        | ( [| label; reduction; substrate |],
            [| offsets; frontier_sizes;
               [| expanded; dedup_hits; n_succs; canonized; ample_nodes;
                  ample_pruned; n_nodes; n_edges |] |] ) ->
          let nodes = chunks "CKNODES" nodes_codec n_nodes in
          let targets = chunks "CKEDGES" edges_codec n_edges in
          if pos_in ic <> in_channel_length ic then defect "trailing bytes";
          { label;
            suspended =
              Graph.suspended_of_parts ~nodes ~expanded ~targets ~offsets
                ~dedup_hits ~n_succs ~frontier_sizes ~reduction ~substrate
                ~canonized ~ample_nodes ~ample_pruned }
        | _ -> defect "CKMETA: wrong field count"
      with
      | t -> t
      | exception (Codec.Malformed msg | Invalid_argument msg | Sys_error msg)
        ->
        defect msg
      | exception Unix.Unix_error (e, _, _) -> defect (Unix.error_message e))
