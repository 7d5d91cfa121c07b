(** PPO training loops over the environment.

    Handles rollout collection across a pool of training ops, the PPO
    update, evaluation-time greedy inference, and crash recovery:
    with a [checkpoint_path] the loop persists policy weights, Adam
    state, RNG streams and accounting every [checkpoint_every]
    iterations, and [~resume:true] continues a killed run
    deterministically — the resumed run's statistics are identical to
    an uninterrupted run's.

    {2 Parallel collection}

    With [jobs > 1] episode collection fans out over a
    {!Util.Domain_pool} of OCaml 5 domains: each worker plays a
    contiguous range of global episode indices on {!Env.fork}ed
    environments, advancing up to [inference_batch] episodes in
    lockstep so each policy forward pass prices a whole slab of
    observations at once ({!Policy.act_batch}). The PPO update always
    runs on the main domain.

    Every episode's random streams (op choice, actions, measurement
    jitter, fault injection) are derived purely from
    [(seed, global episode index)] via {!Util.Rng.derive}, and the main
    domain consumes collected episodes in strictly increasing index
    order — so a seeded run is bit-reproducible for {e any} [jobs]
    value: identical iteration statistics, identical checkpoint bytes.
    See docs/parallelism.md for the full contract. *)

type config = {
  ppo : Ppo.config;
  iterations : int;  (** batch-collection + update rounds (paper: 1000) *)
  seed : int;
  checkpoint_path : string option;
      (** the checkpoint file ({!Checkpoint}); [None] disables
          checkpointing *)
  checkpoint_every : int;
      (** checkpoint every this many iterations (and always at the
          last); [<= 0] disables *)
  jobs : int;
      (** worker domains for episode collection (1 = fully serial on
          the main domain); results are identical for any value *)
  inference_batch : int;
      (** episodes each worker advances in lockstep per policy forward
          pass (the batched-inference slab size); also benefits
          [jobs = 1] *)
}

val default_config : config
(** Paper hyperparameters with a modest iteration count; benches override
    [iterations]. Checkpointing is off ([checkpoint_path = None],
    [checkpoint_every = 10]); [jobs = 1], [inference_batch = 8]. *)

type iteration_stats = {
  iteration : int;
  mean_episode_return : float;
  mean_final_speedup : float;  (** geomean of episode-end speedups *)
  best_speedup : float;  (** best speedup seen so far across training *)
  ppo_stats : Ppo.stats;
  measurement_seconds : float;  (** cumulative simulated compile+run time *)
  schedules_explored : int;  (** cumulative evaluator measurements *)
  degraded_measurements : int;
      (** cumulative measurements that fell back to the cost model *)
  episodes : int;  (** cumulative episodes consumed by training *)
}

val train :
  ?callback:(iteration_stats -> unit) ->
  ?resume:bool ->
  config ->
  Env.t ->
  Policy.t ->
  ops:Linalg.t array ->
  iteration_stats list
(** Train the hierarchical policy; each episode samples an op uniformly
    from [ops]. Returns per-iteration statistics in order (on resume:
    only the iterations run in this call). [resume] (default false)
    restores the latest checkpoint at [config.checkpoint_path] if one
    exists, and starts fresh otherwise; it raises [Invalid_argument]
    when no [checkpoint_path] is configured or the checkpoint is
    corrupt. Checkpoint/resume composes with any [jobs] value. *)

val train_flat :
  config ->
  Env.t ->
  Flat_policy.t ->
  ops:Linalg.t array ->
  iteration_stats list
(** Same loop for the flat/simple action-space policy (no callback, no
    resume). All [ops] must have the loop count the policy was built
    for. *)

val greedy_rollout : Env.t -> Policy.t -> Linalg.t -> Schedule.t * float
(** Run one greedy episode; returns the schedule and its speedup. *)

val sampled_best :
  ?jobs:int ->
  Util.Rng.t ->
  Env.t ->
  Policy.t ->
  Linalg.t ->
  trials:int ->
  Schedule.t * float
(** Sample [trials] stochastic episodes and keep the best schedule —
    the inference mode used for the Figure 6 exploration comparison.
    Episodes sample at temperature 1.5, which flattens the policy so a
    converged (low-entropy) agent still proposes diverse candidates.
    [jobs]
    (default 1) spreads the trials over worker domains; per-trial rng
    streams are split off [rng] up front and trial accounting is merged
    back into [env] in trial order, so the result and the evaluator
    counters are identical for any [jobs]. *)
