(** Execution traces: the event sequence of a run (the concrete
    counterpart of the paper's histories). *)

type entry = { index : int; event : Config.event }
type t = entry list

val empty : t

val append : t -> Config.event -> t
(** O(length) per call — fine for one-off extension, quadratic if used
    in a loop; build incrementally with {!builder}/{!add} (as the
    executor does) or all at once with {!of_events} instead. *)

val of_events : Config.event list -> t
(** Index a whole event list into a trace in one O(n) pass. *)

(** Mutable builder used by the executor. *)
type builder

val builder : unit -> builder
val add : builder -> Config.event -> unit
val build : builder -> t

val events : t -> Config.event list
val length : t -> int
val pid_of_event : Config.event -> int

val pp_event : Format.formatter -> Config.event -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

val pp_lanes : ?n:int -> Format.formatter -> t -> unit
(** Sequence-diagram rendering: one column per process, one row per
    atomic step.  [n] forces a minimum lane count. *)
