(** The compute core of [lib/serve]: target resolution, result caching
    and batched greedy rollouts. Transport-free and thread-compatible —
    {!Server} calls {!solve_batch} from worker domains; callers on
    different domains must use disjoint calls (the shared pieces, the
    policy weights (read-only at inference) and the {!Util.Sharded_cache},
    are domain-safe).

    Determinism contract: the policy decodes greedily
    ({!Policy.act_greedy_batch}, row-independent), the evaluator is
    noiseless, and the cache stores exactly what the rollout computed —
    so one engine answers identical requests with identical schedules
    and speedups, however they are batched, whether or not they hit the
    cache. *)

type t

type config = {
  hidden : int;  (** policy width; see {!Policy.create} *)
  backbone_layers : int;
      (** policy backbone depth; see {!Policy.create}. A checkpoint
          loads only into the architecture that saved it: the CLI's
          [train --save] writes depth 2. *)
  checkpoint : string option;
      (** weights to serve ({!Serialize} format); [None] serves a
          seed-0x51-initialized policy — useful for smoke tests *)
  cache_capacity : int;  (** result-cache bound (entries) *)
  measure_delay_s : float;
      (** emulated hardware-measurement time per unique uncached nest
          in a batch (a real deployment times candidate schedules on
          hardware; the analytic evaluator does not). [solve_batch]
          sleeps [measure_delay_s * ceil(unique_misses / jobs)] before
          rolling out — [jobs] nests measure concurrently — so serving
          latency is measurement-bound the way production is, cache
          hits stay instant, and fleet benchmarks scale with replicas
          instead of with this host's core count. 0 (off) by
          default. *)
  jobs : int;
      (** rollout parallelism (default 1; {!create} rejects values
          below 1). Above 1 the engine owns a {!Util.Domain_pool} of
          [jobs] workers; each miss batch splits into [jobs] contiguous
          chunks decoded as independent lockstep rollouts. Rows of a
          batch are independent (greedy decode, per-row forked env), so
          results are identical to [jobs = 1] for any batch and any
          chunking — only latency changes. Call {!shutdown} when done
          to join the pool. *)
}

val default_config : config
(** Hidden 64, backbone depth 4 ({!Policy.create}'s
    default), no checkpoint, capacity 4096, no measurement delay,
    jobs 1. *)

type outcome = {
  schedule : string;  (** printable {!Schedule} notation *)
  speedup : float;
}

val create : config -> (t, string) result
(** Build the policy (loading [checkpoint] if given), the base
    environment, the result cache and (for [jobs > 1]) the rollout
    pool. [Error] on an unreadable or mismatched checkpoint, or on
    [jobs < 1]. *)

val shutdown : t -> unit
(** Join the rollout pool, if any. Idempotent; a no-op for
    [jobs = 1]. Call after the last {!solve_batch}. *)

val policy_digest : t -> string
(** Hex digest of the served weights (canonical serialized form), the
    checkpoint fingerprint every [ok] reply carries. Computed once at
    {!create}. *)

val resolve_target :
  t -> Protocol.target -> (Linalg.t, Protocol.error_code * string) result
(** [Spec] strings go through {!Op_spec.parse}; [Ir] payloads through
    {!Ir_parser.parse_result} then {!Lower.raise_nest}. Parse failures
    map to [Parse_error]; raisable-but-unservable ops (raise failure, or
    loop/operand/rank counts beyond the policy's N/L/D bounds) map to
    [Unsupported]. Never raises. *)

val nest_digest : Linalg.t -> string
(** {!Loop_nest.digest} of the op's canonical lowered nest: the full
    semantics, not just name and shape, so two different bodies never
    collide — and no pretty-printed intermediate string, unlike the
    print+MD5 scheme it replaced. Names are not hashed, so renamed
    copies of one op share a cache entry. *)

val target_digest : Protocol.target -> string
(** Routing key for the fleet supervisor: {!nest_digest} of the parsed
    target, so it equals the replica-side {!cache_key} whenever the
    target parses (consistent-hash routing then keeps each digest on
    the replica whose cache is already hot for it, whether the nest
    arrived as a spec or as IR). Targets that do not parse hash their
    raw text instead — every replica answers those with the same
    error, so placement is irrelevant. Needs no engine. *)

val solve_batch :
  t -> Linalg.t array -> (outcome, Protocol.error_code * string) result array
(** Optimize a slab of ops: cache hits answered immediately, misses run
    as one lockstep batched greedy rollout (one forward pass per step
    across all still-active episodes) and are cached. Per-op failures
    come back as [Env_failure] entries; the other ops still succeed. *)

val cache_stats : t -> Util.Sharded_cache.stats

val cache_hits : t -> int

val cache_misses : t -> int

val evaluator_cache_stats : t -> Evaluator.cache_stats
(** Counters of the engine evaluator's base-time and state-seconds
    caches, aggregated across every forked rollout env — the layer
    below the result cache, surfaced in serve stats and metrics. *)
