(** Fleet supervisor: crash recovery, health-checked routing, hedged
    retries — the front door of a multi-replica serving fleet.

    The supervisor owns [replicas] slots, each holding one
    {!Replica.t} (normally a child [serve --socket] process). It
    routes [optimize] requests by consistent-hashing the nest digest
    ({!Engine.target_digest}) over a {!Router} ring, so each replica
    serves a stable shard of the digest space and its digest-keyed
    result cache stays hot through the failure and recovery of other
    replicas. Per slot it keeps a {!Breaker} (shed to healthy replicas
    while a slot misbehaves) and a {!Backoff} (capped exponential
    restart schedule with seeded jitter).

    {!tick} is one supervision pass — detect exited processes,
    relaunch the ones whose backoff delay has elapsed, ping the live
    ones with a deadline, promote [starting -> up], recycle stalled
    replicas whose breaker has opened. Production runs call
    {!start_heartbeat} which ticks on a background thread; tests drive
    {!tick} directly under an injected clock and sleep function, so
    restart/backoff/breaker schedules are asserted without a single
    real sleep.

    Requests stranded by a dying replica (timeout, connection drop,
    garbled reply) get exactly one hedged retry on the next healthy
    replica in ring order; if that also fails the client receives a
    typed [upstream_failure]. When no replica is routable the reply is
    [unavailable] — the fleet never hangs a client on a dead backend.

    {!drain} and {!reload} never drop an accepted request: a slot is
    first fenced from new routing, then its in-flight count is waited
    down to zero (condition-variable, event-driven), and only then is
    the process stopped. *)

type config = {
  replicas : int;
  vnodes : int;  (** ring points per replica; {!Router.create} *)
  request_timeout_s : float;
      (** per-attempt deadline the supervisor imposes on replica calls *)
  health_interval_s : float;  (** heartbeat period *)
  health_timeout_s : float;  (** ping deadline per health probe *)
  ready_timeout_s : float;
      (** how long a freshly launched replica may take to answer its
          first ping before it is recycled *)
  hedge : bool;  (** allow the one hedged retry (default true) *)
  breaker : Breaker.config;
  backoff : Backoff.config;
  seed : int;  (** jitter seed; slot [i] uses [seed + i] *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  launcher:(index:int -> (Replica.t, string) result) ->
  unit ->
  (t, string) result
(** Launch every slot once via [launcher] (failures go straight onto
    the restart schedule; {!create} itself only fails on an invalid
    config). [now]/[sleep] default to [Unix.gettimeofday]/[Thread.delay]
    and exist to be replaced by mock clocks in tests. *)

val call : t -> Protocol.request -> Protocol.response
(** The front door. [optimize] routes by digest with breaker shedding
    and the hedged retry; [ping] answers directly; [stats] returns the
    fleet status body (a header line, one line per slot as in
    {!status}, then the fleet counters); [metrics] returns the fleet's
    own scrape merged with every up replica's. While draining, every
    request is answered [shutting_down]. *)

val tick : t -> unit
(** One supervision pass; see the module description. Safe to call
    concurrently with {!call}, {!reload} and a running heartbeat. *)

val start_heartbeat : t -> unit
(** Spawn the background thread that runs {!tick} every
    [health_interval_s]. Idempotent; stopped by {!drain}, and not
    restartable after it. *)

val await_ready : t -> timeout_s:float -> bool
(** Tick until every slot is up (true) or the timeout elapses (false).
    Uses the injected clock and sleep. *)

val reload : t -> (unit, string) result
(** Rolling restart, slot by slot: fence from routing, wait in-flight
    to zero, stop the old process, relaunch, wait ready. A slot that fails to come back is put on the
    normal restart schedule and reported in [Error]; the rest of the
    fleet keeps serving throughout. *)

val drain : t -> unit
(** Graceful shutdown: fence every slot, wait for all in-flight
    requests to finish, stop all replicas and the heartbeat.
    Idempotent. *)

(** {1 Introspection} *)

type replica_status = {
  rs_index : int;
  rs_state : string;  (** ["starting"|"up"|"down"|"draining"] *)
  rs_pid : int option;
  rs_restarts : int;  (** relaunches since {!create} *)
  rs_breaker : Breaker.state;
  rs_in_flight : int;
  rs_generation : int;  (** bumps per launch; guards stale outcomes *)
}

val status : t -> replica_status array

val metrics : t -> Util.Metrics.t
(** The supervisor's own registry: [fleet_*] counters and histograms
    plus per-replica [fleet_replica_<i>_up] / [..._breaker_state] /
    [..._in_flight] gauges. *)

(** {1 Chaos and test hooks} *)

val replica_pid : t -> int -> int option

val kill_replica : t -> int -> unit
(** SIGKILL slot [i]'s process {e without} telling the supervisor —
    the crash must be discovered by the health loop, exactly like a
    real die. The chaos harness's [kill] action. *)

val replica_call :
  t ->
  int ->
  Protocol.request ->
  timeout_s:float ->
  (Protocol.response, Replica.error) result
(** Side-channel call to one replica (bench uses it to read per-shard
    cache stats). [Error Connection] when the slot has no process. *)
