open Lbsa_util

(* The wire protocol: one {!Codec} section per message over a local
   stream socket, tagged by direction, its payload written by the typed
   encoders below.  See the .mli for the refusal contract. *)

type stats = {
  st_queries : int;
  st_hits_mem : int;
  st_hits_store : int;
  st_misses : int;
  st_computed : int;
  st_joined : int;
  st_queue_peak : int;
  st_workers : int;
  st_running_peak : int;
  st_corrupt : int;
  st_degraded : int;
  st_prefix_stored : int;
  st_prefix_resumed : int;
  st_hot_us_total : float;
  st_hot_count : int;
  st_cold_us_total : float;
  st_cold_count : int;
  st_uptime_s : float;
}

type request =
  | Query of { q : Api.query; deadline_s : float option }
  | Stats
  | Ping
  | Shutdown

type response =
  | Result of { r : Api.result; cached : bool; wall_us : float }
  | Stats_r of stats
  | Pong
  | Shutting_down
  | Error of string

(* The counters as one int array and one float array. *)
let stats_codec =
  let open Codec in
  let ints = array int and floats = array float in
  { put = (fun b s ->
      ints.put b
        [| s.st_queries; s.st_hits_mem; s.st_hits_store; s.st_misses;
           s.st_computed; s.st_joined; s.st_queue_peak; s.st_workers;
           s.st_running_peak; s.st_corrupt; s.st_degraded; s.st_prefix_stored;
           s.st_prefix_resumed; s.st_hot_count; s.st_cold_count |];
      floats.put b [| s.st_hot_us_total; s.st_cold_us_total; s.st_uptime_s |]);
    get = (fun c ->
      let i = ints.get c in
      match (i, floats.get c) with
      | ( [| st_queries; st_hits_mem; st_hits_store; st_misses; st_computed;
             st_joined; st_queue_peak; st_workers; st_running_peak; st_corrupt;
             st_degraded; st_prefix_stored; st_prefix_resumed; st_hot_count;
             st_cold_count |],
          [| st_hot_us_total; st_cold_us_total; st_uptime_s |] ) ->
        { st_queries; st_hits_mem; st_hits_store; st_misses; st_computed;
          st_joined; st_queue_peak; st_workers; st_running_peak; st_corrupt;
          st_degraded; st_prefix_stored; st_prefix_resumed; st_hot_us_total;
          st_hot_count; st_cold_us_total; st_cold_count; st_uptime_s }
      | _ -> malformed "stats: wrong field count") }

let request_codec =
  let open Codec in
  let deadline = option float in
  variant
    ~put:(fun b -> function
      | Query { q; deadline_s } ->
        tag b 0;
        Api.query_codec.put b q;
        deadline.put b deadline_s
      | Stats -> tag b 1
      | Ping -> tag b 2
      | Shutdown -> tag b 3)
    ~get:(fun c -> function
      | 0 ->
        let q = Api.query_codec.get c in
        Query { q; deadline_s = deadline.get c }
      | 1 -> Stats
      | 2 -> Ping
      | 3 -> Shutdown
      | k -> bad_tag k)

let response_codec =
  let open Codec in
  variant
    ~put:(fun b -> function
      | Result { r; cached; wall_us } ->
        tag b 0;
        Api.result_codec.put b r;
        bool.put b cached;
        float.put b wall_us
      | Stats_r s -> tag b 1; stats_codec.put b s
      | Pong -> tag b 2
      | Shutting_down -> tag b 3
      | Error msg -> tag b 4; string.put b msg)
    ~get:(fun c -> function
      | 0 ->
        let r = Api.result_codec.get c in
        let cached = bool.get c in
        Result { r; cached; wall_us = float.get c }
      | 1 -> Stats_r (stats_codec.get c)
      | 2 -> Pong
      | 3 -> Shutting_down
      | 4 -> Error (string.get c)
      | k -> bad_tag k)

let max_frame = 16 * 1024 * 1024

exception Closed

(* {!Rio} retries EINTR/EAGAIN and completes short transfers; a clean
   end of stream (a peer that died or half-closed mid-frame) is
   [Closed], and hard I/O errors propagate as [Unix_error]. *)
let really_read fd buf off len =
  try Rio.really_read ~site:"wire.read" fd buf off len
  with End_of_file -> raise Closed

let send fd ~tag codec msg =
  let payload = Codec.encode codec msg in
  if String.length payload > max_frame then
    invalid_arg "Wire.send: frame too large";
  let frame = Buffer.create (Codec.header_len + String.length payload) in
  Codec.write_section (Buffer.add_string frame) ~tag payload;
  Rio.really_write ~site:"wire.write" fd (Buffer.to_bytes frame) 0
    (Buffer.length frame)

(* The cap is checked before the payload is allocated, and any defect
   (a foreign tag, a bad checksum, an undecodable payload) is a
   [Failure]: the daemon closes that connection and keeps serving. *)
let read_frame ~read ~tag codec =
  try
    match Codec.read_section ~read ~limit:max_frame with
    | tag', payload when String.equal tag' tag -> Codec.decode codec payload
    | tag', _ -> Codec.malformed "expected %s, got %S" tag tag'
  with Codec.Malformed m -> failwith ("Wire.recv: " ^ m)

let recv fd ~tag codec = read_frame ~read:(really_read fd) ~tag codec

let send_request fd r = send fd ~tag:"REQUEST" request_codec r
let recv_request fd = recv fd ~tag:"REQUEST" request_codec

let send_response fd r = send fd ~tag:"RESPONSE" response_codec r
let recv_response fd = recv fd ~tag:"RESPONSE" response_codec

(* A connection's unread bytes, [data.(0 .. len-1)].  [need] is how many
   of them the next frame takes: the header's length until a header has
   been seen, then the whole frame's. *)
type inbox = { mutable data : Bytes.t; mutable len : int; mutable need : int }

let inbox () = { data = Bytes.create 4096; len = 0; need = Codec.header_len }

exception Partial

let read_requests ib fd f =
  if Bytes.length ib.data - ib.len < 4096 then begin
    let data = Bytes.create (2 * Bytes.length ib.data) in
    Bytes.blit ib.data 0 data 0 ib.len;
    ib.data <- data
  end;
  let got =
    Rio.read ~site:"wire.read" fd ib.data ib.len (Bytes.length ib.data - ib.len)
  in
  if got = 0 then raise Closed;
  ib.len <- ib.len + got;
  (* Decode every complete frame through the same section reader as
     [recv], over a cursor into the buffer; a frame that runs past the
     buffered bytes records what it needs and waits for more. *)
  let pos = ref 0 in
  (try
     while ib.len - !pos >= ib.need do
       let at = ref !pos in
       let read buf off len =
         if !at + len > ib.len then begin
           ib.need <- !at + len - !pos;
           raise Partial
         end;
         Bytes.blit ib.data !at buf off len;
         at := !at + len
       in
       let req = read_frame ~read ~tag:"REQUEST" request_codec in
       ib.need <- Codec.header_len;
       pos := !at;
       f req
     done
   with Partial -> ());
  Bytes.blit ib.data !pos ib.data 0 (ib.len - !pos);
  ib.len <- ib.len - !pos

let zero_stats ~workers =
  {
    st_queries = 0;
    st_hits_mem = 0;
    st_hits_store = 0;
    st_misses = 0;
    st_computed = 0;
    st_joined = 0;
    st_queue_peak = 0;
    st_workers = workers;
    st_running_peak = 0;
    st_corrupt = 0;
    st_degraded = 0;
    st_prefix_stored = 0;
    st_prefix_resumed = 0;
    st_hot_us_total = 0.;
    st_hot_count = 0;
    st_cold_us_total = 0.;
    st_cold_count = 0;
    st_uptime_s = 0.;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "queries=%d hits=%d (mem %d, store %d) misses=%d computed=%d joined=%d \
     queue_peak=%d workers=%d running_peak=%d corrupt=%d degraded=%d \
     prefix_stored=%d prefix_resumed=%d hot_us_mean=%.1f cold_us_mean=%.1f \
     uptime_s=%.1f"
    s.st_queries
    (s.st_hits_mem + s.st_hits_store)
    s.st_hits_mem s.st_hits_store s.st_misses s.st_computed s.st_joined
    s.st_queue_peak s.st_workers s.st_running_peak s.st_corrupt s.st_degraded
    s.st_prefix_stored
    s.st_prefix_resumed
    (if s.st_hot_count = 0 then 0.
     else s.st_hot_us_total /. float s.st_hot_count)
    (if s.st_cold_count = 0 then 0.
     else s.st_cold_us_total /. float s.st_cold_count)
    s.st_uptime_s
