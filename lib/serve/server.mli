(** The serving daemon's core, layer 3 of [lib/serve]: wires
    {!Batcher} admission to {!Engine} rollouts over a
    {!Util.Domain_pool}, with a dispatcher domain in between.

    Transport-agnostic: callers ({!Frontend}, tests) push decoded
    {!Protocol.request}s through {!submit} and receive
    {!Protocol.response}s through a callback — no sockets, no line
    parsing in this layer, so every queueing, shedding, deadline and
    drain behaviour is unit-testable in-process.

    Lifecycle of an [optimize] request: {!submit} resolves the target
    (parse failures answered synchronously), then admits into the
    batcher — a full queue answers [Overloaded], a draining server
    [Shutting_down]. The dispatcher wakes on admission, expires
    overdue requests ([Deadline_exceeded]), and whenever a worker slot
    is free hands the oldest [min queued max_batch] requests to the
    pool at once, where {!Engine.solve_batch} answers them with one
    lockstep rollout per step. Dispatch is work-conserving: nothing
    waits for company, so batches form only from the backlog that
    builds while every worker is busy.

    [stats]/[metrics]/[ping] are answered synchronously on the
    caller's thread and never queue.

    Callbacks fire on the submitting thread (synchronous replies), the
    dispatcher domain (shed/expired/drain replies) or a worker domain
    (served replies) — they must be thread-safe and quick. *)

type config = {
  workers : int;  (** rollout worker domains; >= 1 *)
  batcher : Batcher.config;
}

val default_config : config
(** 1 worker (single-core friendly), {!Batcher.default_config}. *)

type t

val create : ?config:config -> Engine.t -> t
(** Spawns the dispatcher domain and the worker pool; the server is
    accepting as soon as this returns. *)

val submit : t -> Protocol.request -> (Protocol.response -> unit) -> unit
(** Never raises and always answers: every submitted request produces
    exactly one callback invocation, eventually. *)

val drain : t -> unit
(** Graceful shutdown: stop admitting (new optimize requests are
    answered [Shutting_down]), serve everything already admitted, then
    stop the dispatcher and join the worker pool. Idempotent and safe
    from several threads — one caller does the work, the rest block
    until the drain completes. *)

val metrics : t -> Util.Metrics.t
(** Live registry — counters [serve_requests_total],
    [serve_replies_total{...}]-style per-code counters, histograms
    [serve_latency_seconds], [serve_queue_wait_seconds],
    [serve_batch_size], and the engine evaluator's
    [eval_<tag>_cache_*_total] counters as a collector. The [metrics]
    reply renders it followed by {!Util.Metrics.global}. See
    [docs/serving.md] for the full reference. *)
