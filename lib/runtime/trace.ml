open Lbsa_spec

(* Execution traces: the sequence of events produced by a run, the
   concrete counterpart of the paper's "histories". *)

type entry = { index : int; event : Config.event }

type t = entry list
(* Stored in execution order. *)

let empty = []

(* One traversal per call (the old [trace @ [...]] plus [List.length]
   walked the list twice).  Still O(n) per append by nature of the list
   representation: to build a trace incrementally, use [builder]/[add],
   or [of_events] for a ready-made event list. *)
let append trace event =
  let rec go i = function
    | [] -> [ { index = i; event } ]
    | e :: rest -> e :: go (i + 1) rest
  in
  go 0 trace

let of_events events = List.mapi (fun index event -> { index; event }) events

(* Efficient builder used by the executor. *)
type builder = { mutable rev : entry list; mutable len : int }

let builder () = { rev = []; len = 0 }

let add b event =
  b.rev <- { index = b.len; event } :: b.rev;
  b.len <- b.len + 1

let build b = List.rev b.rev

let events t = List.map (fun e -> e.event) t

let length = List.length

let pid_of_event = function
  | Config.Op_event { pid; _ } | Config.Decide_event { pid; _ }
  | Config.Abort_event { pid } ->
    pid

let pp_event ppf = function
  | Config.Op_event { pid; obj; op; response } ->
    Fmt.pf ppf "p%d: obj%d.%a -> %a" pid obj Op.pp op Value.pp response
  | Config.Decide_event { pid; value } ->
    Fmt.pf ppf "p%d: decide %a" pid Value.pp value
  | Config.Abort_event { pid } -> Fmt.pf ppf "p%d: abort" pid

let pp_entry ppf { index; event } = Fmt.pf ppf "%4d  %a" index pp_event event

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:(any "@,") pp_entry) t

(* One column per process: a sequence-diagram-style rendering where each
   row is one atomic step and only the acting process's lane is filled.
   Used by the examples to make schedules visually obvious. *)
let pp_lanes ?(n = 0) ppf t =
  let n =
    List.fold_left (fun acc e -> max acc (pid_of_event e.event + 1)) n t
  in
  let lane_width = 22 in
  let header =
    String.concat "" (List.map (fun pid -> Fmt.str "%-*s" lane_width (Fmt.str "p%d" pid))
                        (List.init n (fun i -> i)))
  in
  Fmt.pf ppf "%s@." header;
  List.iter
    (fun { event; _ } ->
      let pid = pid_of_event event in
      let text =
        match event with
        | Config.Op_event { obj; op; response; _ } ->
          Fmt.str "o%d.%s->%s" obj (Op.to_string op) (Value.to_string response)
        | Config.Decide_event { value; _ } ->
          Fmt.str "DECIDE %s" (Value.to_string value)
        | Config.Abort_event _ -> "ABORT"
      in
      let text =
        if String.length text > lane_width - 2 then
          String.sub text 0 (lane_width - 2)
        else text
      in
      let line =
        String.concat ""
          (List.init n (fun i ->
               if i = pid then Fmt.str "%-*s" lane_width text
               else String.make lane_width ' '))
      in
      Fmt.pf ppf "%s@." line)
    t
