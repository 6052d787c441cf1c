(* Spawn/wait plumbing for the crash-recovery harness.  See the .mli
   for the contract; the only subtlety below is capturing output
   through temp files rather than pipes — a child that SIGKILLs itself
   mid-write must never deadlock the harness on a full pipe, and a temp
   file preserves whatever the child managed to flush before dying. *)

type outcome = {
  status : Unix.process_status;
  out : string;
  err : string;
}

type child = {
  c_pid : int;
  c_out : string; (* temp file path *)
  c_err : string;
}

let pid c = c.c_pid

let temp prefix = Filename.temp_file prefix ".log"

let env_assoc () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
           Some
             (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> None)

let spawn ?(env = []) ~exe ~args () =
  let out_file = temp "lbsa-crash-out" in
  let err_file = temp "lbsa-crash-err" in
  (* child-provided entries override the parent's *)
  let merged =
    env
    @ List.filter (fun (k, _) -> not (List.mem_assoc k env)) (env_assoc ())
  in
  let envp =
    Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) merged)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out =
    Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let fd_err =
    Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ devnull; fd_out; fd_err ])
    (fun () ->
      let c_pid =
        Unix.create_process_env exe
          (Array.of_list (exe :: args))
          envp devnull fd_out fd_err
      in
      { c_pid; c_out = out_file; c_err = err_file })

let slurp file =
  match open_in_bin file with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let collect c status =
  let out = slurp c.c_out in
  let err = slurp c.c_err in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ c.c_out; c.c_err ];
  { status; out; err }

let wait c =
  let rec await () =
    match Unix.waitpid [] c.c_pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
  in
  collect c (await ())

let wait_within c seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] c.c_pid with
    | 0, _ when Unix.gettimeofday () >= deadline -> None
    | 0, _ ->
      Unix.sleepf 0.01;
      poll ()
    | _, status -> Some (collect c status)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

let run ?env ~exe ~args () = wait (spawn ?env ~exe ~args ())

let killed_by o signum =
  match o.status with Unix.WSIGNALED s -> s = signum | _ -> false

let exited o = match o.status with Unix.WEXITED c -> Some c | _ -> None
