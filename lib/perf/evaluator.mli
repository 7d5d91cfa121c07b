(** Timing oracle over schedule states.

    The environment's stand-in for "compile and run": price a schedule
    state with the cost model, compute speedups against the untransformed
    op and enforce the paper's adaptive timeout (10x the base time maps
    to a capped, penalized measurement). *)

type t
(** An evaluator bound to a machine; caches base times per op. Every
    state it prices goes through the cost model: there is no state-time
    cache (see docs/performance.md, "Why there is no state cache"). *)

val create :
  ?machine:Machine.t ->
  ?noise:float ->
  ?noise_seed:int ->
  ?measure_delay_s:float ->
  unit ->
  t
(** Defaults to {!Machine.e5_2680_v4} and noiseless measurements.
    [noise] adds log-normal multiplicative jitter to every measurement
    (sigma of the log, e.g. 0.05 for ~5% timing noise) — real machines
    measure like this, and the paper's training signal carried such
    noise. Base times stay noiseless so speedups are jittered only
    through the measurement. The base-time cache holds 4096 entries
    (FIFO eviction — an eviction only costs a recompute).
    [measure_delay_s] emulates the hardware-measurement
    stall of a real deployment: every {!state_seconds} call sleeps that
    long before pricing, so parallel-search benches scale with how well
    the search overlaps measurement latency instead of with the host's
    core count — the same device the serve engine's [measure_delay_s]
    models at batch level. Results are bit-identical with the delay on
    or off; 0 (off) by default. *)

val fork : t -> t
(** A worker-local evaluator for parallel rollouts and search tasks:
    shares the (domain safe, sharded) base-time cache, copies machine,
    noise sigma, the measurement tap and the parent's last base-time
    memo, and starts a fresh explored counter and jitter stream. The
    caller is expected to seed the jitter stream via {!set_noise_state}
    and merge the fork's {!explored} delta back. *)

val machine : t -> Machine.t

val base_seconds : t -> Linalg.t -> float
(** Estimated time of the op with no transformation (cached). *)

val state_seconds : t -> Sched_state.t -> float
(** Estimated time of the current transformed nest, including the im2col
    packing charge. Every call prices the state with the cost model,
    counts in {!explored}, fires the measurement tap and draws jitter,
    so a state priced twice costs two pricings and two draws. *)

val timeout_factor : float
(** The paper's adaptive timeout: measurements above
    [timeout_factor *. base] are treated as timed out (10.0). *)

val measure : t -> Sched_state.t -> [ `Seconds of float | `Timeout of float ]
(** [measure t state] is [`Timeout capped] when the estimate exceeds the
    adaptive timeout, [`Seconds s] otherwise. *)

val speedup : t -> Sched_state.t -> float
(** [base /. measured], with timeouts evaluated at the cap (so a timeout
    yields [1. /. timeout_factor]). Always strictly positive. *)

val schedule_speedup : t -> Linalg.t -> Schedule.t -> (float, string) result
(** Apply a whole schedule and return its speedup. *)

val tail_speedup :
  t -> Sched_state.t -> Cost_model.walk -> Schedule.t -> (float, string) result
(** [tail_speedup t head (Cost_model.walk head.nest) steps] is
    [Result.map (speedup t)] of [steps] applied to [head] with
    {!Sched_state.apply}: the same value, [explored] count, jitter draw
    and [Error]. When [steps] are tiles and swaps with at most a final
    vectorize, it prices [head]'s walk through their column maps
    ({!Cost_model.seconds_walked}) and builds no state. It applies the
    steps to states, as {!speedup} needs them, when something reads
    states: the measurement tap, the sanitizer, the verifier or
    legality certificates. *)

val explored : t -> int
(** Number of [state_seconds]/[measure] calls so far — the "schedules
    explored" counter used by the Figure 6 search-efficiency bench. *)

val set_explored : t -> int -> unit
(** Restore the explored counter (checkpoint resume). *)

val noise_state : t -> int64
(** State of the jitter stream, for checkpointing. *)

val set_noise_state : t -> int64 -> unit
(** Restore a jitter stream saved by {!noise_state}. *)

type measure_hook = Sched_state.t -> seconds:float -> unit
(** A tap on the state-seconds computation: receives the schedule state
    and the pure, pre-jitter cost-model seconds. *)

val set_measure_hook : t -> measure_hook option -> unit
(** Install (or clear) the measurement tap. The hook fires on every
    {!state_seconds} call, so once per priced state, repeats included;
    consumers that want one record per nest dedup themselves (the
    surrogate dataset logger does). It must be fast and, if the
    evaluator is forked across domains, thread-safe; it never observes
    jitter and never perturbs the noise stream, so installing it is
    bit-invisible to all consumers. Forks inherit the hook. *)

val attach_surrogate_cache : t -> (unit -> Util.Sharded_cache.stats) -> unit
(** Attach a surrogate ranker's stats, in the cache-stats shape, so its
    counters appear in {!cache_stats} (and hence {!cache_counters})
    alongside the base-time cache. Takes a closure, so the ranker's
    type stays out of this interface. Purely observational. *)

type cache_stats = {
  base : Util.Sharded_cache.stats;  (** base-time cache, keyed by op *)
  state : Util.Sharded_cache.stats option;
      (** always [None]: the evaluator keeps no state-time cache. The
          field stays because the end-to-end benchmark's report reads
          it; it goes when that reader does. *)
  surrogate : Util.Sharded_cache.stats option;
      (** attached surrogate ranker's stats; [None] unless a ranker
          called {!attach_surrogate_cache} *)
}

val cache_stats : t -> cache_stats
(** Hit/miss/eviction counters of the base-time cache and of an
    attached surrogate ranker. Forks share the base-time cache, so its
    counters aggregate across all of them (and under parallel
    collection they depend on scheduling — report them on stderr or in
    metrics, never on determinism-checked stdout). *)

val cache_counters : cache_stats -> (string * int) list
(** [eval_<tag>_cache_{hits,misses,evictions,contention}_total] for each
    present cache, tags in [base; surrogate] order. Whoever owns the
    evaluator passes [fun () -> cache_counters (cache_stats ev)] to
    {!Util.Metrics.add_collector}, so CLI stderr, serve [stats] and
    Prometheus render one set of names. *)
