(** A handle on one serving replica, as seen by the {!Supervisor}.

    A replica is usually a child process running [serve --socket PATH]
    plus a pooled Unix-socket client speaking the {!Protocol} line
    format, but the type is a plain record of closures so tests
    substitute in-process fakes (scripted replies, refusing sockets,
    processes that "die" on cue) without forking anything.

    Transport failures are typed: the supervisor treats {!Timeout} and
    {!Connection} as evidence against the replica (circuit-breaker
    food, hedge triggers) and {!Garbled} as protocol corruption — the
    connection that produced it is never reused. *)

val ignore_sigpipe : unit -> unit
(** Set SIGPIPE to ignore for this process (idempotent, no-op where
    unsupported), so writes to a dead peer raise [EPIPE] and become
    typed {!Connection} errors instead of killing the process. Runs
    once at module load; daemon entry points ({!Supervisor.create},
    the {!Frontend} accept loops) also call it explicitly. Ignored
    dispositions survive fork+exec, so spawned replicas inherit it. *)

type error =
  | Timeout  (** no complete reply line within the caller's deadline *)
  | Connection of string  (** connect/write/EOF-level failure *)
  | Garbled of string  (** reply line undecodable or for the wrong id *)

val error_to_string : error -> string

type t = {
  pid : int option;  (** [None] for in-process fakes *)
  describe : string;  (** for logs and status lines *)
  call :
    Protocol.request -> timeout_s:float -> (Protocol.response, error) result;
      (** Synchronous round trip. Each in-flight call holds its own
          pooled connection, so concurrent calls never interleave
          replies; a call that fails in any way discards its
          connection (a late reply to a timed-out request must never
          be read by the next call). *)
  alive : unit -> bool;
      (** Whether the underlying process still runs. Reaps the child
          on first observation of exit; idempotent after that. *)
  kill : unit -> unit;  (** SIGKILL + reap; idempotent. *)
}

val spawn :
  exe:string ->
  args:string list ->
  socket:string ->
  unit ->
  (t, string) result
(** Start [exe args] with [Unix.create_process] (fork+exec — safe with
    OCaml 5 domains running) and return a handle whose [call] connects
    to [socket]. stdin/stdout are [/dev/null]; stderr is inherited so
    replica crashes stay diagnosable. The child is expected to create
    [socket] once ready — callers probe with {!Protocol.Ping} (the
    supervisor's health loop does this) rather than assuming
    readiness. Returns [Error] if the executable cannot be started. *)

val call_once :
  socket:string ->
  timeout_s:float ->
  Protocol.request ->
  (Protocol.response, error) result
(** One-shot convenience for CLI clients: connect (failing fast with
    [Connection] if nobody listens), send, await one reply under
    [timeout_s], close. *)
