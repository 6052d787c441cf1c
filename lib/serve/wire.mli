(** The daemon's wire protocol over a local stream socket: each message
    is one {!Lbsa_util.Codec} section, tagged [REQUEST] from client to
    daemon and [RESPONSE] back, its payload written by
    {!request_codec} or {!response_codec}.

    A length above the 16 MB frame cap is refused before anything is
    allocated; a foreign tag, a checksum mismatch or an undecodable
    payload is a [Failure] from [recv_*] or {!read_requests}, and the
    daemon answers it by closing that one connection.  The daemon reads
    requests through an {!inbox} per connection, so a peer that stalls
    mid-frame holds up only itself. *)

open Lbsa_util

(** Cumulative daemon counters, as served by a [Stats] request. *)
type stats = {
  st_queries : int;  (** [Query] requests received *)
  st_hits_mem : int;  (** answered from the in-memory memo *)
  st_hits_store : int;  (** answered from the persistent store *)
  st_misses : int;  (** required a computation *)
  st_computed : int;  (** computations actually run (≤ misses) *)
  st_joined : int;  (** queries that joined an in-flight computation *)
  st_queue_peak : int;  (** max simultaneous distinct in-flight keys *)
  st_workers : int;  (** the cap on job domains alive at once *)
  st_running_peak : int;  (** the most job domains alive at once *)
  st_corrupt : int;  (** corrupt / truncated store entries discarded *)
  st_degraded : int;
      (** store operations skipped or failed while the daemon is in
          compute-only degraded mode (0 while the store is healthy) *)
  st_prefix_stored : int;  (** partial fuzz prefixes persisted *)
  st_prefix_resumed : int;  (** computations resumed from a prefix *)
  st_hot_us_total : float;  (** cumulative latency of cache hits *)
  st_hot_count : int;
  st_cold_us_total : float;  (** cumulative latency of computed answers *)
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

val stats_codec : stats Codec.t
val request_codec : request Codec.t
val response_codec : response Codec.t

exception Closed
(** The peer closed the connection mid-frame. *)

val send_request : Unix.file_descr -> request -> unit
val recv_request : Unix.file_descr -> request
(** Raises {!Closed}, [Failure] on a malformed frame, or [Unix_error]. *)

type inbox
(** A connection's buffered, not yet decoded request bytes. *)

val inbox : unit -> inbox

val read_requests : inbox -> Unix.file_descr -> (request -> unit) -> unit
(** One read from a readable [fd] (through {!Rio} at the [wire.read]
    site) into the inbox, then every complete request it now holds, in
    order, to the callback; an incomplete frame stays buffered.  Raises
    {!Closed} at end of stream, [Failure] on a malformed frame (the
    over-cap check fires as soon as a header is buffered), or
    [Unix_error]. *)

val send_response : Unix.file_descr -> response -> unit
val recv_response : Unix.file_descr -> response

val zero_stats : workers:int -> stats
val pp_stats : Format.formatter -> stats -> unit
