(* Per-channel-pair connection state: a write lock so replies from
   worker/dispatcher domains and the reader thread never interleave
   bytes, and an outstanding-reply count so EOF can wait for quiescence
   before the channels are closed under the server's feet. *)
type conn = {
  out : out_channel;
  lock : Mutex.t;
  cond : Condition.t;
  mutable outstanding : int;
}

let write_line conn line =
  Mutex.lock conn.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.lock)
    (fun () ->
      (* A client that hung up mid-flight must not kill the server. *)
      try
        output_string conn.out line;
        output_char conn.out '\n';
        flush conn.out
      with Sys_error _ -> ())

let reply_callback conn response =
  write_line conn (Protocol.encode_response response);
  Mutex.lock conn.lock;
  conn.outstanding <- conn.outstanding - 1;
  Condition.broadcast conn.cond;
  Mutex.unlock conn.lock

type handler = Protocol.request -> (Protocol.response -> unit) -> unit

let serve_channels_handler handler ic oc =
  (* write_line's [Sys_error] catch only sees a client hang-up if the
     broken-pipe write raises instead of delivering a fatal SIGPIPE. *)
  Replica.ignore_sigpipe ();
  let conn = { out = oc; lock = Mutex.create (); cond = Condition.create (); outstanding = 0 } in
  (try
     while true do
       let line = input_line ic in
       if String.length (String.trim line) > 0 then
         match Protocol.decode_request line with
         | Error msg ->
             write_line conn
               (Protocol.encode_response
                  (Protocol.Error_reply
                     {
                       e_id = "unknown";
                       code = Protocol.Invalid_request;
                       message = msg;
                     }))
         | Ok req ->
             Mutex.lock conn.lock;
             conn.outstanding <- conn.outstanding + 1;
             Mutex.unlock conn.lock;
             handler req (reply_callback conn)
     done
   with End_of_file -> ());
  Mutex.lock conn.lock;
  while conn.outstanding > 0 do
    Condition.wait conn.cond conn.lock
  done;
  Mutex.unlock conn.lock

let serve_channels server ic oc =
  serve_channels_handler (Server.submit server) ic oc

let listen_unix_handler handler ~path =
  Replica.ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  (* A signal (e.g. the fleet's SIGTERM handler poking its shutdown
     pipe) interrupts accept with EINTR; that must restart the loop,
     not crash the front door out from under the shutdown thread. *)
  let rec accept_retry () =
    match Unix.accept sock with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_retry ()
  in
  while true do
    let fd, _addr = accept_retry () in
    let _t : Thread.t =
      Thread.create
        (fun fd ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          (try serve_channels_handler handler ic oc with _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ())
        fd
    in
    ()
  done

let listen_unix server ~path = listen_unix_handler (Server.submit server) ~path
