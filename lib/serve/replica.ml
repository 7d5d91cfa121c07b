(* One serving replica as the supervisor sees it: a record of closures
   (call / alive / kill) over either a spawned child process or a bare
   socket. All socket I/O is done with [Unix.select] + raw reads
   against an explicit deadline — never buffered channels — so a
   timeout is a typed [Error Timeout] decided by our clock, not a
   Sys_error fished out of errno, and a timed-out connection is closed
   rather than returned to the pool (its late reply must never be
   misread as the answer to a later request). *)

(* Writing to a peer that died (exactly what the chaos harness
   injects) must raise EPIPE and flow into the typed error handling
   below — the default SIGPIPE action would kill the whole
   supervisor/front-door process instead. Ignored dispositions survive
   fork+exec, so spawned replicas inherit this too. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let () = ignore_sigpipe ()

type error =
  | Timeout
  | Connection of string
  | Garbled of string

let error_to_string = function
  | Timeout -> "timeout"
  | Connection m -> "connection: " ^ m
  | Garbled m -> "garbled: " ^ m

type t = {
  pid : int option;
  describe : string;
  call :
    Protocol.request -> timeout_s:float -> (Protocol.response, error) result;
  alive : unit -> bool;
  kill : unit -> unit;
}

(* ---------- low-level deadline I/O ---------- *)

type conn = { fd : Unix.file_descr; mutable residue : Bytes.t }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    Ok { fd; residue = Bytes.empty }
  with
  | Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Connection (Unix.error_message e))
  | exn ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Connection (Printexc.to_string exn))

(* Write one protocol line, never blocking past [deadline]: a stalled
   peer (SIGSTOPped replica with a full socket buffer — a scenario the
   chaos plan injects) must surface as [Error Timeout], not block the
   request thread indefinitely. Each write is preceded by a
   writability select against the remaining budget; a blocking write
   after a positive select transfers at least one byte without
   blocking (the connection is checked out exclusively, so no other
   thread competes for the buffer space select saw). A dead peer
   raises EPIPE/ECONNRESET immediately (SIGPIPE is ignored above). *)
let write_line c line ~deadline =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off >= len then Ok ()
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Error Timeout
      else
        match Unix.select [] [ c.fd ] [] remaining with
        | _, [], _ -> Error Timeout
        | _ -> (
            match Unix.write_substring c.fd data off (len - off) with
            | n -> go (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                go off
            | exception Unix.Unix_error (e, _, _) ->
                Error (Connection (Unix.error_message e)))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read until '\n' or [deadline] (absolute, Unix.gettimeofday clock).
   Bytes after the newline are kept as residue for the next read on
   this connection. *)
let read_line c ~deadline =
  let buf = Buffer.create 256 in
  Buffer.add_bytes buf c.residue;
  c.residue <- Bytes.empty;
  let chunk = Bytes.create 4096 in
  let take_line () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        let line = String.sub s 0 i in
        let rest = String.length s - i - 1 in
        c.residue <- Bytes.of_string (String.sub s (i + 1) rest);
        Some line
  in
  let rec go () =
    match take_line () with
    | Some line -> Ok line
    | None -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then Error Timeout
        else
          match Unix.select [ c.fd ] [] [] remaining with
          | [], _, _ -> Error Timeout
          | _ -> (
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> Error (Connection "peer closed the connection")
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Connection (Unix.error_message e)))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let round_trip c req ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  match write_line c (Protocol.encode_request req) ~deadline with
  | Error _ as e -> e
  | Ok () -> (
      match read_line c ~deadline with
      | Error _ as e -> e
      | Ok line -> (
          match Protocol.decode_response line with
          | Error e -> Error (Garbled e)
          | Ok resp ->
              if Protocol.response_id resp = Protocol.request_id req then
                Ok resp
              else
                Error
                  (Garbled
                     (Printf.sprintf "reply id %S for request id %S"
                        (Protocol.response_id resp)
                        (Protocol.request_id req)))))

(* ---------- connection pool ---------- *)

(* Idle connections to one socket. Checkout pops (or dials); a call
   that succeeds checks its connection back in, any failure closes it.
   [close_all] empties the pool and marks it closed so late check-ins
   are closed instead of cached. *)
type pool = {
  path : string;
  mutex : Mutex.t;
  mutable idle : conn list;
  mutable closed : bool;
}

let pool_create path = { path; mutex = Mutex.create (); idle = []; closed = false }

let pool_checkout p =
  Mutex.lock p.mutex;
  let cached =
    match p.idle with
    | c :: rest ->
        p.idle <- rest;
        Some c
    | [] -> None
  in
  Mutex.unlock p.mutex;
  match cached with Some c -> Ok c | None -> connect_fd p.path

let pool_checkin p c =
  Mutex.lock p.mutex;
  let keep = not p.closed in
  if keep then p.idle <- c :: p.idle;
  Mutex.unlock p.mutex;
  if not keep then close_conn c

let pool_close_all p =
  Mutex.lock p.mutex;
  let conns = p.idle in
  p.idle <- [];
  p.closed <- true;
  Mutex.unlock p.mutex;
  List.iter close_conn conns

let pool_call p req ~timeout_s =
  match pool_checkout p with
  | Error _ as e -> e
  | Ok c -> (
      match round_trip c req ~timeout_s with
      | Ok _ as ok ->
          pool_checkin p c;
          ok
      | Error _ as e ->
          (* On any failure the connection's stream state is suspect
             (half-written request, reply still in flight): drop it. *)
          close_conn c;
          e)

(* ---------- constructors ---------- *)

let dev_null_in () = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0

let dev_null_out () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

let spawn ~exe ~args ~socket () =
  let argv = Array.of_list (exe :: args) in
  let fd_in = dev_null_in () in
  let fd_out = dev_null_out () in
  let spawn_result =
    try Ok (Unix.create_process exe argv fd_in fd_out Unix.stderr)
    with
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | exn -> Error (Printexc.to_string exn)
  in
  (try Unix.close fd_in with Unix.Unix_error _ -> ());
  (try Unix.close fd_out with Unix.Unix_error _ -> ());
  match spawn_result with
  | Error e -> Error (Printf.sprintf "cannot start %s: %s" exe e)
  | Ok pid ->
      let pool = pool_create socket in
      (* Exit is observed at most once per process: cache it. The
         mutex makes the check-exited / waitpid / kill sequences
         atomic across threads (heartbeat calls [alive], request and
         drain threads call [kill]) — without it, kill could pass the
         [not !exited] check just as another thread's waitpid reaps
         the child, then SIGKILL a recycled pid belonging to an
         unrelated process. *)
      let proc_mutex = Mutex.create () in
      let exited = ref false in
      let reap_locked ~block =
        if !exited then true
        else
          let flags = if block then [] else [ Unix.WNOHANG ] in
          match Unix.waitpid flags pid with
          | 0, _ -> false
          | _ ->
              exited := true;
              true
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              exited := true;
              true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      let reap ~block =
        Mutex.lock proc_mutex;
        let r = reap_locked ~block in
        Mutex.unlock proc_mutex;
        r
      in
      Ok
        {
          pid = Some pid;
          describe = Printf.sprintf "pid:%d socket:%s" pid socket;
          call = (fun req ~timeout_s -> pool_call pool req ~timeout_s);
          alive = (fun () -> not (reap ~block:false));
          kill =
            (fun () ->
              pool_close_all pool;
              Mutex.lock proc_mutex;
              if not !exited then begin
                (try Unix.kill pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                ignore (reap_locked ~block:true)
              end;
              Mutex.unlock proc_mutex);
        }

let call_once ~socket ~timeout_s req =
  match connect_fd socket with
  | Error _ as e -> e
  | Ok c ->
      let r = round_trip c req ~timeout_s in
      close_conn c;
      r
