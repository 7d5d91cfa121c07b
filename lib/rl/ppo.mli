(** Proximal Policy Optimization (clipped surrogate objective).

    Generic over the sample type: the environment-specific policy plugs
    in through {!type-policy}, which must re-evaluate stored samples
    differentiably. Hyperparameters follow the paper (§5.1.3): the
    update clips at 0.2, discounts with gamma 0.99 and GAE lambda 0.95,
    runs 4 epochs, weighs the value loss by 0.5 and clips the gradient
    norm at 0.5; the config below holds the rest. *)

type config = {
  learning_rate : float;
  batch_size : int;  (** steps collected per iteration *)
  minibatch_size : int;
  entropy_coef : float;
}

val default_config : config
(** lr 1e-3, batch 64, minibatch 64, entropy coefficient 0.01. *)

type evaluation = {
  log_prob : Autodiff.node;  (** \[batch\] log pi(a|s) of stored actions *)
  entropy : Autodiff.node;  (** \[batch\] policy entropy at s *)
  value : Autodiff.node;  (** \[batch\] state-value estimates *)
}

type 'sample policy = {
  evaluate : Autodiff.Tape.t -> 'sample array -> evaluation;
  params : Autodiff.Param.t list;
}

type 'sample transition = {
  sample : 'sample;  (** whatever the policy needs: obs, action, masks *)
  reward : float;
  value : float;  (** V(s) at collection time *)
  log_prob : float;  (** log pi(a|s) at collection time *)
  terminal : bool;
}

type stats = {
  policy_loss : float;
  value_loss : float;
  entropy_mean : float;
  approx_kl : float;
  clip_fraction : float;
  grad_norm : float;
}

val update :
  config ->
  'sample policy ->
  Optim.t ->
  'sample transition array ->
  rng:Util.Rng.t ->
  stats
(** One PPO iteration over a collected batch: computes GAE advantages
    (normalized), then runs 4 epochs of minibatch updates with the
    clipped surrogate, value MSE and entropy bonus. Returns averaged
    statistics. *)
