(** Staged-search ranker: a trained {!Model} packaged for scoring
    thousands of candidate schedules per op.

    Scoring never applies a candidate's transformations — features come
    from a memoized per-op static block plus a cheap encoding of the
    schedule itself — and a batch of candidates runs through one
    forward pass. Predictions are not memoized: a search's candidates
    are distinct schedules. The reused forward-pass buffers are
    mutex-guarded, so one ranker may be shared across domains. *)

type t

val create : machine:Machine.t -> Model.t -> t

val of_checkpoint :
  machine:Machine.t -> path:string -> unit -> (t, string) result
(** {!Model.load} + {!create}. *)

val cache_stats : t -> Util.Sharded_cache.stats
(** The ranker's activity in the {!Util.Sharded_cache.stats} shape, so
    it plugs into the evaluator's unified cache rendering: [misses] is
    the number of candidates the network has scored; the ranker keeps
    no memo, so [hits], [evictions], [contention], [size] and
    [capacity] are 0 and [shards] is 1. *)

val attach : t -> Evaluator.t -> unit
(** Expose {!cache_stats} as the evaluator's surrogate group
    ({!Evaluator.attach_surrogate_cache}), so
    {!Evaluator.cache_counters} reports the scored count as
    [eval_surrogate_cache_misses_total] alongside base/state. *)

val score_schedule : t -> Linalg.t -> Schedule.t -> float
(** Predicted log-seconds of running [op] under [sched]; no
    transformation is applied. The reference that {!schedule_scorer}'s
    folded batch must equal bit for bit. *)

val schedule_scorer : t -> Linalg.t -> Schedule.t array -> float array
(** Batched stage-1 scoring for {!Auto_scheduler.search_staged} (the
    autosched layer cannot depend on this library; partial application
    to [op] gives its ranker closure): every candidate runs through a
    single forward — one [m; dim] matmul per layer instead of [m] tiny
    ones — which amortizes the network cost to well under the exact
    path's per-candidate price. *)
